"""Command-line surface: training, evaluation, analysis, and self-checks.

Every command takes ``--config`` (JSON, documented in the README), an
optional ``--seed`` override, and ``--out`` for the run directory. Settings
resolve as flag > config file > default. Outputs are machine-readable
(metrics CSV, JSON summary, JSON checkpoint) and byte-reproducible for a
fixed config and seed, except for wall-time fields in the summary.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import json
import sys
import time
import zlib
from pathlib import Path

import numpy as np

from . import diffcore as dc
from .analysis import (
    HeldTrials,
    gen_gap,
    spearman_rank_correlation,
    toy_task_sampler,
    fewshot_task_sampler,
    vary_n_sweep,
    write_report_csv,
    write_report_json,
)
from .models import config_hash
from .sibcore import InnerLoopError, task_objective
from .trainer import (
    RunConfig,
    build_model,
    config_from_dict,
    config_to_dict,
    episode_objective,
    episode_pool,
    episodes_for,
    evaluate,
    load_checkpoint,
    make_theta0,
    metric_records,
    save_checkpoint,
    train,
    write_metrics_csv,
)


def keep_freed_pages() -> None:
    """Let the C allocator keep the pages a command frees, for its next
    allocations: by default glibc maps large arrays (from 128 KiB, a
    threshold it raises only as it sees them freed) one by one and returns
    freed heap tops to the kernel, so every chunk's temporaries are faulted
    in afresh. Raising both thresholds keeps them in the heap. One arena
    serves every thread, so the worker that generates episodes ahead
    (``tasks.ahead``) reuses those pages instead of growing an arena of its
    own. A no-op where glibc's ``mallopt`` is not available."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD: keep up to 256 MiB of freed heap top
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: heap-allocate arrays up to 32 MiB
    mallopt(-8, 1)  # M_ARENA_MAX: one arena for all threads


def main(argv=None) -> int:
    keep_freed_pages()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InnerLoopError as exc:
        # eval, analyze and sweep-n, after their run directory is prepared;
        # training reports its own divergence (TrainingDiverged)
        write_report_json(args.out / "summary.json", {"command": args.command, "error": str(exc)})
        print(f"error: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sgmeta", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override run_seed")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config entry (dotted keys, JSON values)")
        p.add_argument("--out", type=Path, required=True, help="run directory")
        p.add_argument("--force", action="store_true",
                       help="allow writing into an existing run directory")

    p = sub.add_parser("train-toy", help="train the zero-shot regression model")
    add_common(p)
    p.set_defaults(handler=cmd_train, mode="toy")

    p = sub.add_parser("train-fewshot", help="train the episodic classification model")
    add_common(p)
    p.set_defaults(handler=cmd_train, mode="fewshot")

    p = sub.add_parser("eval", help="evaluate a checkpoint on fresh episodes")
    add_common(p)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--episodes", type=count_at_least(1), default=None)
    p.add_argument("--inner-steps", type=count_at_least(0), default=None,
                   help="override the number of adaptation steps at evaluation")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("analyze", help="information-theoretic diagnostics of a checkpoint")
    add_common(p)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--trials", type=count_at_least(2), default=2000)
    p.add_argument("--mc-seeds", type=count_at_least(1), default=1,
                   help="independent estimator seeds")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("sweep-n", help="generalization gap versus query-set size")
    add_common(p)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--n-values", type=counts_at_least(1), default="4,8,16,32")
    p.add_argument("--trials", type=count_at_least(2), default=500)
    p.add_argument("--mc-seeds", type=count_at_least(1), default=1)
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("gradcheck", help="finite-difference checks of every op and the unrolled graph")
    p.set_defaults(handler=cmd_gradcheck)

    return parser


def count_at_least(minimum: int):
    """Argument type: an integer >= ``minimum`` (argparse names the flag)."""

    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return value

    return count


def counts_at_least(minimum: int):
    """Argument type: comma-separated integers >= ``minimum``, at least one."""
    count = count_at_least(minimum)
    return lambda text: [count(item) for item in text.split(",")]


# -- shared plumbing -----------------------------------------------------------


def resolve_config(args, mode=None) -> RunConfig:
    """Every ``--set`` and ``--seed`` is merged into the config file's dict
    (an empty one without a file), which is then parsed once, so a setting
    means the same on the command line as in the file."""
    data = {}
    if args.config is not None:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config root must be a JSON object")
    for item in args.set:
        if "=" not in item:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        *sections, last = key.split(".")
        node = data
        for part in sections:
            if node.get(part) is None:
                node[part] = {}
            node = node[part]
            if not isinstance(node, dict):
                raise ValueError(f"unknown config key {key!r}")
        node[last] = value
    if args.seed is not None:
        data["run_seed"] = args.seed
    if mode is not None:
        data.setdefault("mode", mode)
        if data["mode"] != mode:
            raise ValueError(f"config mode {data['mode']!r} does not match the command")
    return config_from_dict(data)


def prepare_out(args) -> Path:
    out: Path = args.out
    if out.exists() and any(out.iterdir()) and not args.force:
        raise ValueError(f"run directory {out} exists and is not empty (use --force)")
    out.mkdir(parents=True, exist_ok=True)
    return out


def echo_config(cfg: RunConfig, out: Path) -> None:
    with open(out / "effective_config.json", "w") as fh:
        json.dump(config_to_dict(cfg), fh, sort_keys=True, indent=2)
        fh.write("\n")


# -- commands ---------------------------------------------------------------------


def cmd_train(args) -> int:
    from .trainer import TrainingDiverged

    cfg = resolve_config(args, mode=args.mode)
    out = prepare_out(args)
    echo_config(cfg, out)
    t0 = time.time()
    try:
        result = train(cfg)
    except TrainingDiverged as exc:
        # retain the last finite state and whatever was logged
        save_checkpoint(exc.model, out / "checkpoint.json", cfg, step=exc.step)
        write_metrics_csv(out / "metrics.csv", exc.records)
        write_report_json(out / "summary.json", {
            "command": f"train-{cfg.mode}", "error": str(exc), "step": exc.step,
        })
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wall_ms = 1000.0 * (time.time() - t0)
    write_metrics_csv(out / "metrics.csv", result.records)
    save_checkpoint(result.model, out / "checkpoint.json", cfg, step=result.steps_run)
    save_checkpoint(result.best, out / "checkpoint_best.json", cfg, step=result.best_step)
    row = result.final_eval.row
    summary = {
        "command": f"train-{cfg.mode}",
        "config_hash": config_hash(config_to_dict(cfg)),
        "steps": result.steps_run,
        "final": {k: v for k, v in dataclasses.asdict(row).items() if v is not None},
        "final_ci95": result.final_eval.ci95,
        "best_metric": result.best_metric,
        "best_step": result.best_step,
        "wall_time_ms": wall_ms,
    }
    write_report_json(out / "summary.json", summary)
    name, value, ci = result.final_eval.primary_metric()
    print(f"{name} {value:.6f} ± {ci:.6f}")
    return 0


def cmd_eval(args) -> int:
    cfg = resolve_config(args)
    out = prepare_out(args)
    echo_config(cfg, out)
    model = load_checkpoint(args.checkpoint, cfg)
    inner = cfg.inner
    if args.inner_steps is not None:
        inner = dataclasses.replace(cfg.inner, steps=args.inner_steps)
    n_eps = cfg.eval_episodes if args.episodes is None else args.episodes
    # generated chunk by chunk as evaluation reads them
    episodes = episode_pool(cfg, args.split, n_eps)
    t0 = time.time()
    report = evaluate(model, cfg, args.split, episodes, inner=inner)
    wall_ms = 1000.0 * (time.time() - t0)
    write_metrics_csv(out / "metrics.csv", metric_records(report.row, report.ci95))
    name, value, ci = report.primary_metric()
    summary = {
        "command": "eval",
        "split": args.split,
        "episodes": report.n_episodes,
        "metric": name,
        "value": value,
        "ci95": ci,
        "degenerate": report.degenerate,
        "inner_steps": inner.steps,
        "wall_time_ms": wall_ms,
    }
    write_report_json(out / "summary.json", summary)
    print(f"{name} {value:.6f} ± {ci:.6f}")
    return 0


def cmd_analyze(args) -> int:
    cfg = resolve_config(args)
    # the mode chooses the evaluation rows (its primary metric with its
    # interval, the others without), the pool, the gap samplers, the gap
    # rows' suffix and the summary's gap keys
    if cfg.mode == "toy":
        rows = ("kl_to_true_posterior", "query_mse", "prior_kl_to_true")
        pool_size = cfg.toy.n_test_tasks
        samplers = [toy_task_sampler(cfg.toy, seed=cfg.run_seed + 1000 * s)
                    for s in range(args.mc_seeds)]
        suffix = "_seed{}"

        def gap_summary(gaps):
            # null when the posterior regime has no bound
            holds = None if gaps[0].bound is None else all(
                abs(e.gap) <= e.bound + 3 * e.stderr for e in gaps)
            return {"bound_holds_all_seeds": holds, "gaps": [dataclasses.asdict(e) for e in gaps]}
    else:
        if args.mc_seeds != 1:
            raise ValueError("--mc-seeds must be 1 in fewshot mode (one gap estimate)")
        rows = ("query_accuracy",)
        pool_size = min(cfg.eval_episodes, 500)
        samplers = [fewshot_task_sampler(cfg.fewshot, seed=cfg.run_seed)]
        suffix = ""

        def gap_summary(gaps):
            return {"gap": dataclasses.asdict(gaps[0])}
    out = prepare_out(args)
    echo_config(cfg, out)
    model = load_checkpoint(args.checkpoint, cfg)
    t0 = time.time()
    # every gap adapts from the run's θ₀ rule, so gap trials that are
    # evaluation episodes are generated and adapted once, by the evaluation
    theta0_fn = functools.partial(make_theta0, cfg=cfg)
    held = HeldTrials(seed for sampler in samplers
                      for seed in sampler.seeds(range(args.trials)))
    report = evaluate(model, cfg, "test", episode_pool(cfg, "test", pool_size),
                      on_chunk=held.keep)
    quantities = [(name, getattr(report.row, name),
                   report.ci95[name] if name == report.primary else 0.0) for name in rows]
    quantities.append(("mi_estimate", report.row.kl_to_prior, 0.0))
    gaps = []
    for s, sampler in enumerate(samplers):
        est = gen_gap(model, sampler, cfg.inner, trials=args.trials, seed=cfg.run_seed + s,
                      theta0_fn=theta0_fn, held=held)
        gaps.append(est)
        tag = suffix.format(s)
        quantities.append((f"gen_gap{tag}", est.gap, est.stderr))
        if est.bound is not None:  # the posterior regime has a bound
            quantities.append((f"gen_bound{tag}", est.bound, 0.0))
        # the bound's inputs, from which it is recomputed as sqrt(2 σ² mi / n)
        quantities.extend((name + tag, getattr(est, name), 0.0) for name in ("sigma", "mi", "n"))
    payload = {"command": "analyze", "trials": args.trials, "mc_seeds": args.mc_seeds,
               **gap_summary(gaps), "eval_episodes": report.n_episodes,
               "wall_time_ms": 1000.0 * (time.time() - t0)}
    write_report_csv(out / "report.csv", quantities)
    write_report_json(out / "summary.json", payload)
    for name, value, stderr in quantities:
        print(f"{name} {value:.6f} (stderr {stderr:.6f})")
    return 0


def cmd_sweep(args) -> int:
    cfg = resolve_config(args)
    if cfg.mode != "toy":
        raise ValueError("sweep-n operates on the toy regression mode")
    out = prepare_out(args)
    echo_config(cfg, out)
    model = load_checkpoint(args.checkpoint, cfg)
    n_values = args.n_values
    quantities = []
    all_rows = []
    correlations = []
    t0 = time.time()
    for s in range(args.mc_seeds):
        rows = vary_n_sweep(model, cfg.toy, cfg.inner, n_values, trials=args.trials,
                            seed=cfg.run_seed + 7919 * s,
                            theta0_fn=functools.partial(make_theta0, cfg=cfg))
        all_rows.append([dataclasses.asdict(r) for r in rows])
        rho = spearman_rank_correlation([r.n for r in rows], [abs(r.gap) for r in rows])
        correlations.append(rho)
        for r in rows:
            quantities.append((f"gap_n{r.n}_seed{s}", r.gap, r.stderr))
            if r.bound is not None:  # the posterior regime has a bound
                quantities.append((f"bound_n{r.n}_seed{s}", r.bound, 0.0))
            quantities.append((f"metric_n{r.n}_seed{s}", r.metric, 0.0))
        quantities.append((f"spearman_gap_vs_n_seed{s}", rho, 0.0))
    payload = {
        "command": "sweep-n",
        "n_values": n_values,
        "rows": all_rows,
        "spearman_per_seed": correlations,
        "wall_time_ms": 1000.0 * (time.time() - t0),
    }
    write_report_csv(out / "report.csv", quantities)
    write_report_json(out / "summary.json", payload)
    for s, rho in enumerate(correlations):
        print(f"seed {s}: spearman(|gap|, n) = {rho:+.3f}")
    return 0


# -- verification commands ------------------------------------------------------------


def _check(name: str, fn, failures: list) -> None:
    t0 = time.time()
    try:
        fn()
        print(f"ok   {name} ({time.time() - t0:.2f}s)")
    except Exception as exc:  # noqa: BLE001 - report and continue
        failures.append(name)
        print(f"FAIL {name}: {exc}")


_FEATS = np.linspace(-1.0, 2.0, 9)
_ROWS = np.linspace(-1.5, 1.0, 12)


def _cosine_rule(feats, scale, layers, seed_scale):
    """The cosine head's synthetic-gradient rule on constant features."""
    return dc._cosine_sg_direction(dc.constant(feats), scale, layers, seed_scale,
                                   dc.row_norms(feats))


def _descent(theta0, rule, steps, draws=0, pull=None):
    """theta_K of ``steps`` descent steps at a rate of 0.4 along ``rule``,
    with ``draws`` fixed offsets per step, squared."""
    offsets = [np.linspace(-0.3, 0.2, draws * theta0.size).reshape((draws,) + theta0.shape)
               * (k + 1) if draws else None for k in range(steps)]
    return _sq(dc.descent(theta0, rule, 0.4, offsets, pull)[-1])


def _mean(t, axis=None):
    """The mean of a tensor, over one axis or all."""
    return dc.scale(t.sum(axis=axis), 1.0 / (t.size if axis is None else t.shape[axis]))


def _sq(t):
    """A fused op's output squared entrywise, so the case's sum is not linear in it."""
    return t * t


def _layers(a, b, k):
    """A k -> 3 -> k relu network made of two 6-vectors' entries."""
    if k == 1:
        return [(_mean(b.reshape(2, 3), 0).reshape(1, 3), a.reshape(2, 3).sum(axis=0)),
                (_mean(b.reshape(3, 2), 1).reshape(3, 1), _mean(a).reshape(1))]
    return [(a.reshape(2, 3), _mean(b.reshape(2, 3), 0)),
            (b.reshape(3, 2), a.reshape(3, 2).sum(axis=0))]


# Finite-difference cases of the diffcore ops: (name, build), where build(a, b)
# is a tensor of two 6-vectors; a case is named after the op it checks, with
# an optional suffix ("matmul3d", "descent_cosine_affine").
OP_CASES = [
    ("add", lambda a, b: a + b),
    ("sub", lambda a, b: a - b),
    ("mul", lambda a, b: a * b),
    ("scale", lambda a, b: dc.scale(a, 2.5) + b),
    ("matmul", lambda a, b: dc.matmul(a.reshape(2, 3), b.reshape(3, 2))),
    ("matmul3d", lambda a, b: dc.matmul(a.reshape(2, 3, 1), b.reshape(2, 1, 3))),
    ("matmul3d_2d", lambda a, b: dc.matmul(a.reshape(3, 1, 2), b.reshape(2, 3))),
    ("reshape", lambda a, b: (a.reshape(3, 2) * b.reshape(3, 2)).sum()),
    ("softmax", lambda a, b: dc.softmax(a.reshape(2, 3)) * b.reshape(2, 3)),
    # the unrolled synthetic-gradient descent, both heads: "affine" cases
    # take a one-layer net, "draws" cases Monte-Carlo offsets and the prior's
    # pull on stacked (B, k, d) weights; cosine seeds and linear directions
    # by the mean and the sum convention
    ("descent_cosine_affine", lambda a, b: _descent(b.reshape(1, 2, 3), _cosine_rule(
        _FEATS.reshape(3, 3), _mean(a),
        [(dc.matmul(a.reshape(2, 3), b.reshape(3, 2)), b.reshape(3, 2).sum(axis=0))], 0.5), 2)),
    ("descent_linear_affine", lambda a, b: _descent(a.reshape(6, 1), dc._linear_sg_direction(
        dc.constant(_ROWS.reshape(6, 2)), [(_mean(b).reshape(1, 1), b.sum().reshape(1))],
        True), 2)),
    ("descent_cosine", lambda a, b: _descent(b.reshape(1, 2, 3), _cosine_rule(
        _FEATS.reshape(3, 3), _mean(a), _layers(a, b, 2), 1.0 / 3), 3)),
    ("descent_cosine_draws_pull", lambda a, b: _descent(
        a.reshape(2, 1, 3) * b.reshape(1, 2, 3),
        _cosine_rule(_ROWS.reshape(2, 2, 3), b.sum(), _layers(a, b, 2), 1.0), 2, draws=3,
        pull=(dc.scale(b, 0.5), a * 0.3))),
    ("descent_linear", lambda a, b: _descent(a.reshape(6, 1), dc._linear_sg_direction(
        dc.constant(_ROWS.reshape(6, 2)), _layers(a, b, 1), False), 3)),
    ("descent_linear_draws_pull", lambda a, b: _descent(
        _mean(a.reshape(2, 3), 0).reshape(3, 1),
        dc._linear_sg_direction(dc.constant(_FEATS.reshape(3, 3)), _layers(b, a, 1), True), 3,
        draws=2, pull=(_mean(b).reshape(1), (a.sum() * 0.3).reshape(1)))),
    ("cosine_logits", lambda a, b: _sq(
        dc.cosine_logits(a.reshape(2, 3), b.reshape(2, 3), _mean(b)))),
    ("cosine_logits3d", lambda a, b: _sq(
        dc.cosine_logits(a.reshape(3, 1, 2), b.reshape(1, 3, 2), a.sum()))),
    ("cosine_vjp", lambda a, b: _sq(dc.cosine_vjp(
        dc.constant(_FEATS.reshape(3, 3)), b.reshape(2, 3), _mean(a), a.reshape(3, 2)))),
    ("cosine_vjp3d", lambda a, b: _sq(dc.cosine_vjp(
        dc.constant(_FEATS.reshape(3, 1, 3)), b.reshape(1, 2, 3), b.sum(),
        a.reshape(3, 1, 2)))),
    # the objective's terms: a (d,) prior against (B, d) and stacked (M, B, d)
    # weights, in both regimes; slopes with and without Monte-Carlo offsets;
    # rows of 2-D and stacked logits. The prior term's split weight is 1:
    # central differences cannot see a stop-gradient.
    ("prior_divergence", lambda a, b: dc.prior_divergence(
        a.reshape(2, 3), _mean(b.reshape(2, 3), 0), dc.scale(b.reshape(3, 2).sum(axis=1), 0.3),
        -0.7)),
    ("prior_divergence_point_mass", lambda a, b: dc.prior_divergence(
        a.reshape(2, 3), _mean(b.reshape(2, 3), 0), dc.scale(b.reshape(3, 2).sum(axis=1), 0.3))),
    ("prior_divergence3d", lambda a, b: dc.prior_divergence(
        (a.reshape(6, 1) * b.reshape(1, 6)).reshape(2, 3, 6), b, a * 0.3, 0.4)),
    ("linear_squared_error", lambda a, b: dc.linear_squared_error(
        (a * b).reshape(6, 1), None, _ROWS.reshape(6, 2), _ROWS.reshape(2, 6).T, True)),
    ("linear_squared_error_draws", lambda a, b: dc.linear_squared_error(
        (a + b).reshape(2, 3, 1), np.linspace(-0.5, 0.4, 18).reshape(3, 2, 3, 1),
        _ROWS.reshape(3, 4), _FEATS[:4], False)),
    ("softmax_cross_entropy", lambda a, b: dc.softmax_cross_entropy(
        a.reshape(2, 3) * b.reshape(2, 3), [2, 0])),
    ("softmax_cross_entropy3d", lambda a, b: dc.softmax_cross_entropy(
        (a.reshape(6, 1) * b.reshape(1, 6)).reshape(3, 2, 6), [5, 1])),
    ("sum", lambda a, b: (a * b).sum().reshape(()) + a.sum(axis=0).sum()),
]


def check_op_case(name: str, build) -> None:
    """Autodiff against central differences of sum(build(a, b)) at 1e-6, on
    two normal 6-vectors drawn from a seed fixed by the case's name."""
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    a, b = dc.param(rng.normal(size=6)), dc.param(rng.normal(size=6))
    dc.check_gradients(lambda: build(a, b).sum(), [a, b], h=1e-5, tol=1e-6)


def cmd_gradcheck(args) -> int:
    failures: list = []

    def op_suite():
        for name, build in OP_CASES:
            check_op_case(name, build)

    _check("diffcore op suite vs central differences", op_suite, failures)

    # the unrolled graphs are the training objective itself, episode_objective,
    # on a batch of two episodes of 5 query points, as training reads it: a
    # parsed config with outer_kl_weight 1 (central differences cannot see
    # the prior term's stop-gradient split), the model it builds with every
    # zero-initialized parameter drawn away from zero, and its episodes
    def objective_graph(data, scale, seed):
        cfg = config_from_dict({**data, "outer_kl_weight": 1})
        model = build_model(cfg)
        g = np.random.default_rng(seed)
        for t in model.trainable().values():
            if not t.data.any():
                t.data = g.normal(size=t.shape) * scale
        episodes = episodes_for(cfg, "train", (1, 2))
        # few-shot: trim one of 6 (sizes per class stay balanced at generation)
        episodes.query_inputs = episodes.query_inputs[:, :5]
        episodes.query_labels = episodes.query_labels[:, :5]
        params = [t for n, t in sorted(model.trainable().items()) if n != "f_weight"]
        dc.check_gradients(lambda: episode_objective(model, episodes, cfg)[0].sum(), params,
                           h=1e-5, tol=1e-6)
        if cfg.train_f:
            # theta0 and the inner loop read the features detached, so the map's
            # gradient is the objective's at fixed adapted weights
            fixed = dc.constant(episode_objective(model, episodes, cfg)[1].data)
            dc.check_gradients(
                lambda: task_objective(episodes, fixed, model, cfg.inner,
                                       cfg.outer_kl_weight).sum(),
                [model.params["f_weight"]], h=1e-5, tol=1e-6)

    # inner draws, the prior pull inside the inner loop, the mean convention
    toy = {"mode": "toy", "run_seed": 4, "toy": {"n": 5},
           "inner": {"eta_inner": 0.05, "kl_in_inner": True, "sum_convention": False,
                     "posterior": {"regime": "gaussian_fixed_var"}}}  # one draw each
    fewshot = {"mode": "fewshot", "run_seed": 5, "theta_init": "proto",
               "fewshot": {"k": 3, "n_shot": 1, "n_query_per_class": 2, "d_x": 4,
                           "class_pool": {"train": 8, "val": 4, "test": 4},
                           "cluster_spread": 0.4},
               "inner": {"eta_inner": 0.05, "kl_in_inner": True,
                         "posterior": {"regime": "deterministic"}}}
    _check("unrolled toy graph (K=3, 2 episodes) vs central differences",
           lambda: objective_graph(toy, 0.5, 3), failures)
    _check("unrolled classification graph (K=3, 3-way, 5 query points, 2 episodes)",
           lambda: objective_graph(fewshot, 0.3, 9), failures)
    _check("the same with a trainable feature map (train_f)",
           lambda: objective_graph({**fewshot, "train_f": True}, 0.3, 9), failures)

    if failures:
        print(f"{len(failures)} gradient check(s) failed")
        return 1
    print("all gradient checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
