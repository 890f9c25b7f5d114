"""Command-line surface: training, evaluation, analysis, and self-checks.

Every command takes ``--config`` (JSON, documented in the README),
``--seed`` and ``--set`` overrides, and ``--out`` for the run directory.
Settings resolve as ``--set``/``--seed`` > config file, or else the
checkpoint's config (``eval``, ``analyze``, ``sweep-n``) > mode defaults.
Outputs (metrics CSV, JSON summary and checkpoint) are machine-readable and
byte-reproducible per config and seed, wall-time fields excepted.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import json
import sys
import time
from pathlib import Path

from .models import config_hash
from .sibcore import InnerLoopError
from .trainer import (
    RunConfig,
    _read_json_object,
    config_from_dict,
    config_to_dict,
    episode_pool,
    evaluate,
    load_checkpoint,
    make_theta0,
    metric_records,
    save_checkpoint,
    train,
    write_metrics_csv,
    write_report_json,
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
    (else the checkpoint's stored config, or an empty one for training), which
    is then parsed once, so a setting means the same on the command line."""
    if args.config is not None:
        data = _read_json_object(args.config)
    else:
        data = {} if mode else _read_json_object(args.checkpoint).get("config") or {}
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
    t0 = time.time()
    # generated chunk by chunk as evaluation reads them
    report = evaluate(model, cfg, args.split, episode_pool(cfg, args.split, cfg.eval_episodes))
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
        "inner_steps": cfg.inner.steps,
        "wall_time_ms": wall_ms,
    }
    write_report_json(out / "summary.json", summary)
    print(f"{name} {value:.6f} ± {ci:.6f}")
    return 0


def cmd_analyze(args) -> int:
    from .analysis import HeldTrials, fewshot_task_sampler, gen_gap, toy_task_sampler, write_reports

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
    write_reports(out, quantities, payload)
    for name, value, stderr in quantities:
        print(f"{name} {value:.6f} (stderr {stderr:.6f})")
    return 0


def cmd_sweep(args) -> int:
    from .analysis import spearman_rank_correlation, vary_n_sweep, write_reports

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
    write_reports(out, quantities, payload)
    for s, rho in enumerate(correlations):
        print(f"seed {s}: spearman(|gap|, n) = {rho:+.3f}")
    return 0


def cmd_gradcheck(args) -> int:
    from .gradcheck import run_checks
    return run_checks()


if __name__ == "__main__":
    sys.exit(main())
