"""Command-line surface: training, evaluation, analysis, and self-checks.

Every command takes ``--config`` (JSON, documented in the README), an
optional ``--seed`` override, and ``--out`` for the run directory. Settings
resolve as flag > config file > default. Outputs are machine-readable
(metrics CSV, JSON summary, JSON checkpoint) and byte-reproducible for a
fixed config and seed, except for wall-time fields in the summary.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import diffcore as dc
from .analysis import (
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
from .tasks import LazySequence, derive_task_seed, gen_fewshot_episode, gen_spinning_lines
from .trainer import (
    RunConfig,
    config_from_dict,
    config_to_dict,
    default_config,
    episode_for,
    evaluate,
    load_checkpoint,
    make_theta0,
    metric_records,
    save_checkpoint,
    train,
    write_metrics_csv,
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, FileNotFoundError) as exc:
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
        save_checkpoint(best, out / "checkpoint_best.json", cfg, step=result.steps_run)
        best.load_data(current)
    row = result.final_eval.row
    summary = {
        "command": f"train-{cfg.mode}",
        "config_hash": config_hash(config_to_dict(cfg)),
        "steps": result.steps_run,
        "final": {k: v for k, v in dataclasses.asdict(row).items()
                  if v is not None and k != "wall_time_ms"},
        "final_ci95": result.final_eval.ci95,
        "best_metric": result.best_metric,
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
    episodes = LazySequence(n_eps, lambda i: episode_for(cfg, args.split, i))
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
    report = evaluate(model, cfg, "test",
                      LazySequence(pool_size, lambda i: episode_for(cfg, "test", i)))
    if cfg.mode == "toy":
        quantities.append(("kl_to_true_posterior", report.row.kl_to_true_posterior, 0.0))
        quantities.append(("query_mse", report.row.query_mse, report.ci95["query_mse"]))
        quantities.append(("prior_kl_to_true", report.row.prior_kl_to_true, 0.0))
        quantities.append(("mi_estimate", report.row.kl_to_prior, 0.0))
        gaps = []
        for s in range(args.mc_seeds):
            sampler = toy_task_sampler(cfg.toy, seed=cfg.run_seed + 1000 * s)
            est = gen_gap(model, sampler, cfg.inner, trials=args.trials, seed=cfg.run_seed + s)
            gaps.append(est)
            quantities.append((f"gen_gap_seed{s}", est.gap, est.stderr))
            append_bound(quantities, f"gen_bound_seed{s}", est.bound)
            quantities.append((f"sigma_seed{s}", est.sigma, 0.0))
        # null when the posterior regime has no bound
        payload["bound_holds_all_seeds"] = None if gaps[0].bound is None else all(
            abs(e.gap) <= e.bound + 3 * e.stderr for e in gaps
        )
        payload["gaps"] = [dataclasses.asdict(e) for e in gaps]
    else:
        quantities.append(("query_accuracy", report.row.query_accuracy,
                           report.ci95["query_accuracy"]))
        quantities.append(("mi_estimate", report.row.kl_to_prior, 0.0))
        sampler = fewshot_task_sampler(cfg.fewshot, seed=cfg.run_seed)
        est = gen_gap(model, sampler, cfg.inner, trials=args.trials, seed=cfg.run_seed,
                      theta0_fn=lambda frozen, chunk: make_theta0(frozen, chunk, cfg))
        quantities.append(("gen_gap", est.gap, est.stderr))
        append_bound(quantities, "gen_bound", est.bound)
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


def cmd_gradcheck(args) -> int:
    failures: list = []
    rng = np.random.default_rng(0)

    def op_suite():
        a = dc.param(rng.normal(size=6))
        b = dc.param(rng.normal(size=6))
        cases = {
            "add": lambda: (a + b).sum(),
            "sub": lambda: (a - b).sum(),
            "mul": lambda: (a * b).sum(),
            "div": lambda: (a / (b + 4.0)).sum(),
            "matmul": lambda: dc.matmul(a.reshape(2, 3), dc.transpose(b.reshape(2, 3))).sum(),
            "scale": lambda: dc.scale(a, 1.7).sum() + b.mean(),
            "relu": lambda: dc.relu(a - b).sum(),
            "exp": lambda: dc.exp(a * 0.2).sum() + b.sum(),
            "log": lambda: dc.log(dc.square(a) + 1.0).sum() * b.mean(),
            "softmax": lambda: (dc.softmax(a.reshape(2, 3)) * b.reshape(2, 3)).sum(),
            "sum": lambda: (a * b).sum(),
            "mean": lambda: (a * b).mean(),
            "square": lambda: dc.square(a + b).sum(),
            "row_norm": lambda: (dc.row_norm(a.reshape(2, 3)) * b.reshape(2, 3)).sum(),
            "linear": lambda: dc.square(dc.linear(a.reshape(3, 2), b.reshape(2, 3),
                                                  b.reshape(2, 3).mean(axis=0))).sum(),
            "matmul3d": lambda: dc.matmul(a.reshape(2, 3, 1),
                                          dc.transpose(b.reshape(2, 3, 1))).sum(),
            "transpose3d": lambda: (dc.transpose(a.reshape(3, 2, 1)) * b.reshape(3, 1, 2)).sum(),
        }
        for name, f in cases.items():
            dc.check_gradients(f, [a, b], h=1e-5, tol=1e-6)

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
        episodes = [gen_spinning_lines(cfg.toy, derive_task_seed(4, "train", i), n=5)
                    for i in (2, 3)]
        inner = InnerLoopConfig(
            steps=3, eta_inner=0.05, kl_in_inner=True, q_log_var=2 * math.log(0.1)
        )
        params = [model.params[n] for n in sorted(model.params) if model.params[n].requires_grad]
        dc.check_gradients(batch_loss(model, episodes, cfg, inner), params, h=1e-5, tol=1e-6)

    _check("unrolled toy graph (K=3, 2 episodes) vs central differences", toy_graph, failures)

    def fewshot_graph():
        from .tasks import FewShotConfig

        model = build_fewshot_model(k=3, d_x=4, seed=5, identity_features=True)
        g = np.random.default_rng(9)
        for name in ("xi_w3", "xi_b3", "xi_b1", "xi_b2"):
            model.params[name].data[:] = g.normal(size=model.params[name].shape) * 0.3
        task_cfg = FewShotConfig(
            k=3, n_shot=1, n_query_per_class=2, d_x=4,
            class_pool={"train": 8, "val": 4, "test": 4}, cluster_spread=0.4,
        )
        # 5 query points: trim one (sizes per class stay balanced at generation)
        episodes = [gen_fewshot_episode(task_cfg, "train", derive_task_seed(5, "train", i))
                    for i in (1, 2)]
        for ep in episodes:
            ep.query_inputs = ep.query_inputs[:5]
            ep.query_labels = ep.query_labels[:5]
        inner = InnerLoopConfig(steps=3, eta_inner=0.05, kl_in_inner=True,
                                posterior_regime="deterministic")
        params = [model.params[n] for n in sorted(model.params) if model.params[n].requires_grad]
        dc.check_gradients(batch_loss(model, episodes, default_config("fewshot"), inner),
                           params, h=1e-5, tol=1e-6)

    _check("unrolled classification graph (K=3, 3-way, 5 query points, 2 episodes)",
           fewshot_graph, failures)

    if failures:
        print(f"{len(failures)} gradient check(s) failed")
        return 1
    print("all gradient checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
