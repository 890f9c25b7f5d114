"""Benchmark of the ``sgmeta`` CLI: end-to-end metrics, or per-layer tracing.

Run from the repository root::

    python3 bench/run.py --workload toy-train --seed 0 --seconds 30 --trace 0

Each repeat runs one workload command in a fresh single-threaded process
(``bench/child.py``), one repeat after another: as many as fit in
``--seconds``, and at least the minimum number. ``--trace 0`` reports the
end-to-end metrics as medians over the repeats, with times normalised to a
reference machine speed measured while they run (``bench/speed.py``); the
unnormalised wall-clock medians are printed for reference. ``--trace 1``
alternates untraced and traced repeats and reports the per-layer metrics;
the traced repeats must write byte-identical files and identical counts.

Every repeat is checked: the command exits 0, every number it prints or
writes is finite, the deterministic output files hash the same on every
repeat, and, for a seed with recorded references, the checked quantities
match them. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COUNT_METRICS, METRICS as LAYER_METRICS
from workloads import REFERENCES, TINY, TOLERANCE, WORKLOADS

HERE = Path(__file__).resolve().parent

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
E2E_UNITS = {"setup_s": "s", "episodes_per_s": "1/s", "peak_rss_mb": "MB"}
MIN_REPEATS = 3  # median of three at least; also gives the rerun hash check a pair
MIN_TRACED = 2  # counts must repeat across two traced runs
SETUP_PROBES = 2  # extra set-up-only processes after each repeat, for the setup_s median
DEADLINE_S = 170  # a run that is not done by then is stopped with an error
# Scratch space for run directories; the spans of the last traced repeat of
# each workload stay here.
RUNS_DIR = HERE / ".runs"


class BenchError(RuntimeError):
    """The benchmark itself cannot run here; no result is printed."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink the workload to a fraction of a second (self-test)")
    return p.parse_args(argv)


def check_layout(root: Path) -> None:
    for rel in ("src/sgmeta/cli.py", "configs/toy.json", "configs/fewshot.json"):
        if not (root / rel).is_file():
            raise BenchError(f"{rel} not found under {root}: run from the repository root")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.update(THREAD_ENV)
    return env


def run_child(root: Path, env: dict, spec: dict, deadline: float) -> dict:
    spec = dict(spec, spawned=time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        cwd=root, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - spec["spawned"]),
    )
    if proc.returncode != 0:
        raise BenchError(f"benchmark child failed ({proc.returncode}):\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metadata(root: Path) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (TypeError, KeyError, AttributeError):
        pass
    lines = {p.name: sum(1 for _ in p.open()) for p in sorted((root / "src/sgmeta").glob("*.py"))}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OMP_NUM_THREADS": THREAD_ENV["OMP_NUM_THREADS"],
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def check_repeat(workload: str, seed: int, tiny: bool, res: dict, first: dict | None) -> list:
    """Problems with one repeat; the empty list means it passed."""
    if res["rc"] != 0:
        return [f"exit code {res['rc']}: {res.get('error') or res['stdout'][-500:]}"]
    problems = []
    if res.get("nonfinite"):
        problems.append(f"non-finite outputs {res['nonfinite'][:5]}")
    if first is not None and res["hashes"] != first["hashes"]:
        diff = sorted(k for k in res["hashes"] if res["hashes"][k] != first["hashes"].get(k))
        problems.append(f"output files differ between repeats: {diff}")
    refs = {} if tiny else REFERENCES[workload].get(seed, {})
    for name, want in refs.items():
        got = res["checked"][name]
        mode, tol = TOLERANCE[name]
        err = abs(got - want) if mode == "abs" else abs(got - want) / abs(want)
        if not err <= tol:
            problems.append(f"{name} = {got!r}, reference {want!r} ({mode} error {err:.3e} > {tol:.0e})")
    return problems


def measure(args, root: Path) -> dict:
    env = child_env(root)
    work = RUNS_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    start = time.monotonic()
    deadline = start + DEADLINE_S
    # compile bytecode once so no repeat pays for it
    subprocess.run([sys.executable, "-c", "import sgmeta.cli"], cwd=root, env=env,
                   check=True, timeout=DEADLINE_S)
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    runs, problems, setups = [], [], []
    first = None
    i = 0
    cycle_s = 0.0  # duration of the last repeat with its set-up probes
    try:
        while True:
            n_traced = sum(1 for r in runs if r["traced"])
            n_plain = len(runs) - n_traced
            enough = n_traced >= MIN_TRACED if args.trace else len(runs) >= MIN_REPEATS
            # stop once enough repeats ran and the next one would overrun the run
            if enough and time.monotonic() - start + cycle_s > args.seconds:
                break
            cycle_start = time.monotonic()
            traced = bool(args.trace) and n_plain > n_traced
            spec = {"workload": args.workload, "seed": args.seed, "tiny": args.tiny,
                    "trace": traced, "dir": str(work / f"r{i}"),
                    "spans": str(RUNS_DIR / f"{args.workload}.spans.jsonl")}
            res = run_child(root, env, spec, deadline)
            res["traced"] = traced
            found = check_repeat(args.workload, args.seed, args.tiny, res, first)
            problems += [f"repeat {i}{' (traced)' if traced else ''}: {p}" for p in found]
            res["ok"] = not found
            if first is None and res["rc"] == 0:
                first = res
            runs.append(res)
            shutil.rmtree(work / f"r{i}")
            for _ in range(0 if args.trace else SETUP_PROBES):
                setups.append(run_child(root, env, dict(spec, setup_only=True), deadline))
                shutil.rmtree(work / f"r{i}")
            cycle_s = time.monotonic() - cycle_start
            i += 1
    finally:
        shutil.rmtree(work)
    return {"runs": runs, "problems": problems, "setups": setups,
            "run_s": time.monotonic() - start}


def end_to_end(episodes: int, runs: list, setups: list) -> dict:
    """Medians over the repeats; times are normalised to the reference speed."""
    ok = [r for r in runs if r["ok"]]
    values = {
        "setup_s": statistics.median(r["setup_norm_s"] for r in ok + setups),
        "episodes_per_s": statistics.median(episodes / r["norm_s"] for r in ok),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def wall_clock(episodes: int, runs: list, setups: list) -> list:
    """Human-readable lines: the same medians from unnormalised wall times."""
    ok = [r for r in runs if r["ok"]]
    if not ok:
        return []
    return [
        f"wall-clock episodes_per_s {statistics.median(episodes / r['wall_s'] for r in ok):.6g} 1/s",
        f"wall-clock setup_s {statistics.median(r['setup_s'] for r in ok + setups):.6g} s",
        "machine slowdown (wall / normalised command time) "
        f"{statistics.median(r['wall_s'] / r['norm_s'] for r in ok):.4f}",
    ]


def per_layer(runs: list, problems: list) -> dict:
    traced = [r for r in runs if r["traced"] and r["ok"]]
    plain = [r for r in runs if not r["traced"] and r["ok"]]
    if not traced or not plain:
        return {}
    for name in COUNT_METRICS:
        seen = {r["layers"][name] for r in traced}
        if len(seen) > 1:
            problems.append(f"count {name} differs between traced runs: {sorted(seen)}")
    out = {}
    for name, unit in LAYER_METRICS:
        out[name] = {"value": statistics.median(r["layers"][name] for r in traced), "unit": unit}
    untraced_s = statistics.median(r["norm_s"] for r in plain)
    traced_s = statistics.median(r["norm_s"] for r in traced)
    out["trace.overhead_frac"] = {"value": (traced_s - untraced_s) / untraced_s, "unit": "ratio"}
    return out


def report(workload: str, seed: int, tiny: bool, runs: list) -> list:
    """Human-readable lines: checked quantities and, when traced, layer shares."""
    ok = [r for r in runs if r["ok"]]
    if not ok:
        return []
    refs = {} if tiny else REFERENCES[workload].get(seed, {})
    lines = []
    for name, value in ok[0]["checked"].items():
        ref = f"reference {refs[name]!r}" if name in refs else "no reference for this seed"
        lines.append(f"checked {name} {value!r} ({ref})")
    traced = [r for r in ok if r["traced"]]
    for layer in sorted(traced[0]["shares"]) if traced else ():
        share = statistics.median(r["shares"][layer] for r in traced)
        lines.append(f"self-time share {layer} {100 * share:.1f}%")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    try:
        check_layout(root)
        workload = (TINY if args.tiny else WORKLOADS)[args.workload]
        episodes = workload.episodes(root)
        meta = metadata(root)
        meta["loadavg_before"] = os.getloadavg()
        measured = measure(args, root)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    meta["loadavg_after"] = os.getloadavg()
    runs, problems = measured["runs"], measured["problems"]
    failed = sum(1 for r in runs if not r["ok"])
    metrics = {}
    if failed < len(runs):
        metrics = per_layer(runs, problems) if args.trace else end_to_end(episodes, runs, measured["setups"])
    for p in problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    meta.update(workload=args.workload, seed=args.seed, trace=args.trace,
                repeats=len(runs), traced_repeats=sum(1 for r in runs if r["traced"]),
                nominal_episodes=episodes,
                reference_checked=not args.tiny and args.seed in REFERENCES[args.workload],
                command_wall_s=[round(r["wall_s"], 4) for r in runs],
                command_norm_s=[round(r["norm_s"], 4) for r in runs],
                probe_us=[r["probe_us"] for r in runs], run_s=round(measured["run_s"], 2))
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"error_rate {failed / len(runs):.4f} ({failed}/{len(runs)} command runs failed)")
    for line in report(args.workload, args.seed, args.tiny, runs):
        print(line)
    if not args.trace:
        for line in wall_clock(episodes, runs, measured["setups"]):
            print(line)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    correct = not problems and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
