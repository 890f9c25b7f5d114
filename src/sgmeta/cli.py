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
import json
import math
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
from .models import build_fewshot_model, build_toy_model, config_hash
from .sibcore import InnerLoopConfig, InnerLoopError, sib_unroll, task_objective
from .tasks import derive_task_seed, gen_fewshot_episode, gen_spinning_lines
from .trainer import (
    RunConfig,
    config_from_dict,
    config_to_dict,
    default_config,
    episode_pool,
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
    in afresh. Raising both thresholds keeps them in the heap. A no-op
    where glibc's ``mallopt`` is not available."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD: keep up to 256 MiB of freed heap top
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: heap-allocate arrays up to 32 MiB


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

    def add_common(p, needs_out=True):
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override run_seed")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config entry (dotted keys, JSON values)")
        if needs_out:
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
    if result.best_snapshot is not None:
        best = result.model
        current = best.clone_data()
        best.load_data(result.best_snapshot)
        save_checkpoint(best, out / "checkpoint_best.json", cfg, step=result.best_step)
        best.load_data(current)
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
    if cfg.mode != "toy" and args.mc_seeds != 1:
        raise ValueError("--mc-seeds must be 1 in fewshot mode (one gap estimate)")
    out = prepare_out(args)
    echo_config(cfg, out)
    model = load_checkpoint(args.checkpoint, cfg)
    quantities = []
    payload = {"command": "analyze", "trials": args.trials, "mc_seeds": args.mc_seeds}
    t0 = time.time()
    pool_size = cfg.toy.n_test_tasks if cfg.mode == "toy" else min(cfg.eval_episodes, 500)
    if cfg.mode == "toy":
        samplers = [toy_task_sampler(cfg.toy, seed=cfg.run_seed + 1000 * s)
                    for s in range(args.mc_seeds)]
    else:
        samplers = [fewshot_task_sampler(cfg.fewshot, seed=cfg.run_seed)]
    # gap trials that are evaluation episodes are generated and adapted once,
    # by the evaluation, with the gap's θ₀ and inner loop
    held = HeldTrials(seed for sampler in samplers
                      for seed in sampler.seeds(range(args.trials)))
    report = evaluate(model, cfg, "test", episode_pool(cfg, "test", pool_size),
                      on_chunk=held.keep)
    if cfg.mode == "toy":
        quantities.append(("kl_to_true_posterior", report.row.kl_to_true_posterior, 0.0))
        quantities.append(("query_mse", report.row.query_mse, report.ci95["query_mse"]))
        quantities.append(("prior_kl_to_true", report.row.prior_kl_to_true, 0.0))
        quantities.append(("mi_estimate", report.row.kl_to_prior, 0.0))
        gaps = []
        for s, sampler in enumerate(samplers):
            est = gen_gap(model, sampler, cfg.inner, trials=args.trials, seed=cfg.run_seed + s,
                          held=held)
            gaps.append(est)
            quantities.append((f"gen_gap_seed{s}", est.gap, est.stderr))
            append_bound(quantities, f"gen_bound_seed{s}", est.bound)
            append_bound_inputs(quantities, est, f"_seed{s}")
        # null when the posterior regime has no bound
        payload["bound_holds_all_seeds"] = None if gaps[0].bound is None else all(
            abs(e.gap) <= e.bound + 3 * e.stderr for e in gaps
        )
        payload["gaps"] = [dataclasses.asdict(e) for e in gaps]
    else:
        quantities.append(("query_accuracy", report.row.query_accuracy,
                           report.ci95["query_accuracy"]))
        quantities.append(("mi_estimate", report.row.kl_to_prior, 0.0))
        est = gen_gap(model, samplers[0], cfg.inner, trials=args.trials, seed=cfg.run_seed,
                      theta0_fn=lambda frozen, chunk: make_theta0(frozen, chunk, cfg), held=held)
        quantities.append(("gen_gap", est.gap, est.stderr))
        append_bound(quantities, "gen_bound", est.bound)
        append_bound_inputs(quantities, est, "")
        payload["gap"] = dataclasses.asdict(est)
    payload["eval_episodes"] = report.n_episodes
    payload["wall_time_ms"] = 1000.0 * (time.time() - t0)
    write_report_csv(out / "report.csv", quantities)
    write_report_json(out / "summary.json", payload)
    for name, value, stderr in quantities:
        print(f"{name} {value:.6f} (stderr {stderr:.6f})")
    return 0


def append_bound(quantities: list, name: str, bound) -> None:
    """A bound row, unless the posterior regime has no bound (``None``)."""
    if bound is not None:
        quantities.append((name, bound, 0.0))


def append_bound_inputs(quantities: list, est, suffix: str) -> None:
    """The bound's σ, mutual-information term and query size, from which the
    bound row is recomputed as sqrt(2 σ² mi / n)."""
    for name in ("sigma", "mi", "n"):
        quantities.append((name + suffix, getattr(est, name), 0.0))


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
                            seed=cfg.run_seed + 7919 * s)
        all_rows.append([dataclasses.asdict(r) for r in rows])
        rho = spearman_rank_correlation([r.n for r in rows], [abs(r.gap) for r in rows])
        correlations.append(rho)
        for r in rows:
            quantities.append((f"gap_n{r.n}_seed{s}", r.gap, r.stderr))
            append_bound(quantities, f"bound_n{r.n}_seed{s}", r.bound)
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


def _cosine_sg(feats, theta, scale, layers, seed_scale):
    return dc.cosine_sg_direction(dc.constant(feats), theta, scale, layers, seed_scale,
                                  dc.row_norms(feats))


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
# an optional suffix ("matmul3d", "cosine_sg_direction_affine").
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
    # the synthetic-gradient directions; "affine" cases take a one-layer net,
    # "4d" and "3d" Monte-Carlo draws of stacked weights
    ("cosine_sg_direction_affine", lambda a, b: _sq(_cosine_sg(
        _FEATS.reshape(3, 3), b.reshape(2, 3), _mean(a),
        [(dc.matmul(a.reshape(2, 3), b.reshape(3, 2)), b.reshape(3, 2).sum(axis=0))], 0.5))),
    ("linear_sg_direction_affine", lambda a, b: _sq(dc.linear_sg_direction(
        a.reshape(6, 1), dc.constant(_ROWS.reshape(6, 2)),
        [(_mean(b).reshape(1, 1), b.sum().reshape(1))], True))),
    ("cosine_sg_direction", lambda a, b: _sq(_cosine_sg(
        _FEATS.reshape(3, 3), b.reshape(2, 3), _mean(a), _layers(a, b, 2), 1.0 / 3))),
    ("cosine_sg_direction4d", lambda a, b: _sq(_cosine_sg(
        _ROWS.reshape(2, 2, 3), (a.reshape(6, 1) + b.reshape(1, 6)).reshape(3, 2, 2, 3),
        b.sum(), _layers(a, b, 2), 1.0))),
    ("linear_sg_direction", lambda a, b: _sq(dc.linear_sg_direction(
        a.reshape(6, 1), dc.constant(_ROWS.reshape(6, 2)), _layers(a, b, 1), False))),
    ("linear_sg_direction3d", lambda a, b: _sq(dc.linear_sg_direction(
        a.reshape(2, 3, 1), dc.constant(_FEATS.reshape(3, 3)), _layers(b, a, 1), True))),
    ("cosine_logits", lambda a, b: _sq(
        dc.cosine_logits(a.reshape(2, 3), b.reshape(2, 3), _mean(b)))),
    ("cosine_logits3d", lambda a, b: _sq(
        dc.cosine_logits(a.reshape(3, 1, 2), b.reshape(1, 3, 2), a.sum()))),
    ("cosine_vjp", lambda a, b: _sq(dc.cosine_vjp(
        dc.constant(_FEATS.reshape(3, 3)), b.reshape(2, 3), _mean(a), a.reshape(3, 2)))),
    ("cosine_vjp3d", lambda a, b: _sq(dc.cosine_vjp(
        dc.constant(_FEATS.reshape(3, 1, 3)), b.reshape(1, 2, 3), b.sum(),
        a.reshape(3, 1, 2)))),
    ("prior_pull", lambda a, b: _sq(dc.prior_pull(a, _mean(b), b * 0.3))),
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

    # both unrolled graphs run on a batch of two episodes, as training does
    def batch_loss(model, episodes, cfg, inner):
        def loss():
            theta_k, _ = sib_unroll(make_theta0(model, episodes, cfg), episodes, model, inner)
            return task_objective(episodes, theta_k, model, inner).sum()

        return loss

    def toy_graph():
        model = build_toy_model(seed=8)
        g = np.random.default_rng(3)
        for name in ("xi_w3", "xi_b3", "xi_b1", "xi_b2"):
            model.params[name].data[:] = g.normal(size=model.params[name].shape) * 0.5
        model.params["lambda_global"].data[:] = 0.8
        cfg = default_config("toy")
        episodes = gen_spinning_lines(cfg.toy, [derive_task_seed(4, "train", i) for i in (2, 3)],
                                      n=5)
        inner = InnerLoopConfig(
            steps=3, eta_inner=0.05, kl_in_inner=True, q_log_var=2 * math.log(0.1)
        )
        params = [model.params[n] for n in sorted(model.params) if model.params[n].requires_grad]
        dc.check_gradients(batch_loss(model, episodes, cfg, inner), params, h=1e-5, tol=1e-6)

    _check("unrolled toy graph (K=3, 2 episodes) vs central differences", toy_graph, failures)

    def fewshot_graph(train_f):
        from .tasks import FewShotConfig

        model = build_fewshot_model(k=3, d_x=4, seed=5, train_f=train_f)
        g = np.random.default_rng(9)
        for name in ("xi_w3", "xi_b3", "xi_b1", "xi_b2"):
            model.params[name].data[:] = g.normal(size=model.params[name].shape) * 0.3
        task_cfg = FewShotConfig(
            k=3, n_shot=1, n_query_per_class=2, d_x=4,
            class_pool={"train": 8, "val": 4, "test": 4}, cluster_spread=0.4,
        )
        # 5 query points: trim one (sizes per class stay balanced at generation)
        episodes = gen_fewshot_episode(task_cfg, "train",
                                       [derive_task_seed(5, "train", i) for i in (1, 2)])
        episodes.query_inputs = episodes.query_inputs[:, :5]
        episodes.query_labels = episodes.query_labels[:, :5]
        inner = InnerLoopConfig(steps=3, eta_inner=0.05, kl_in_inner=True,
                                posterior_regime="deterministic")
        cfg = default_config("fewshot")
        params = [t for n, t in sorted(model.params.items()) if t.requires_grad and n != "f_weight"]
        dc.check_gradients(batch_loss(model, episodes, cfg, inner), params, h=1e-5, tol=1e-6)
        if train_f:
            # theta0 and the inner loop read the features detached, so the map's
            # gradient is the objective's at fixed adapted weights
            theta_k, _ = sib_unroll(make_theta0(model, episodes, cfg), episodes, model, inner)
            fixed = dc.constant(theta_k.data)
            dc.check_gradients(lambda: task_objective(episodes, fixed, model, inner).sum(),
                               [model.params["f_weight"]], h=1e-5, tol=1e-6)

    _check("unrolled classification graph (K=3, 3-way, 5 query points, 2 episodes)",
           lambda: fewshot_graph(train_f=False), failures)
    _check("the same with a trainable feature map (train_f)",
           lambda: fewshot_graph(train_f=True), failures)

    if failures:
        print(f"{len(failures)} gradient check(s) failed")
        return 1
    print("all gradient checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
