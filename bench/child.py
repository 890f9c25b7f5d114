"""One workload run in a fresh process: set-up, then one ``sgmeta`` command.

Usage (run from the repository root, by ``run.py``)::

    python3 bench/child.py <spec-json>

The spec names the workload, seed, run directory, the parent's monotonic
clock reading just before it started this process, and whether to trace
or to stop after set-up (a set-up probe).
The command is called in-process through ``sgmeta.cli.main`` with its
standard output captured. Set-up, from the first line of this file, and the
command run under a ``speed.SpeedProbe``, so that both times can also be
given normalised to the reference machine speed. The last line
printed is one JSON object with the exit code, the captured output, set-up
and command times (wall and normalised), peak RSS, hashes of the
deterministic output files, the checked quantities and, when traced, the
per-layer metrics.
"""

from __future__ import annotations

import speed

# probe the machine's speed through set-up, imports included
SETUP_PROBE = speed.SpeedProbe(speed.probe_python, speed.SETUP_PERIOD_S).start()

import contextlib
import hashlib
import io
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

MIN_SAMPLES = 20  # fewer probe samples than this are topped up by direct probes


def main(spec: dict) -> dict:
    root = Path.cwd()
    from workloads import TINY, WORKLOADS, make_analysis_checkpoint

    import sgmeta.cli

    src = (root / "src").resolve()
    if Path(sgmeta.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"imported sgmeta from {sgmeta.__file__}, not from {src}")
    workload = (TINY if spec["tiny"] else WORKLOADS)[spec["workload"]]
    seed = spec["seed"]
    run_dir = Path(spec["dir"])
    out = run_dir / "out"
    run_dir.mkdir(parents=True)
    checkpoint = None
    if workload.command == "analyze":
        checkpoint = run_dir / "input_checkpoint.json"
        make_analysis_checkpoint(root, workload, seed, checkpoint)
    argv = workload.argv(seed, out, checkpoint)

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(workload.name)
        tracer.install()

    SETUP_PROBE.stop()
    setup_s = time.monotonic() - spec["spawned"] - SETUP_PROBE.total_s
    setup_samples = _enough(SETUP_PROBE.samples, speed.probe_python)
    setup = {"setup_s": setup_s,
             "setup_norm_s": setup_s * speed.scale(setup_samples, speed.PYTHON_REFERENCE_S),
             "probe_us": {"setup": 1e6 * speed.trimmed_mean(setup_samples)}}
    if spec.get("setup_only"):
        return setup

    captured = io.StringIO()
    error = None
    probe = speed.SpeedProbe(speed.probe_numpy, speed.COMMAND_PERIOD_S)
    t_start = time.monotonic()
    try:
        with contextlib.redirect_stdout(captured), probe:
            rc = sgmeta.cli.main(argv)
    except Exception:  # noqa: BLE001 - a crashing command is a failed run, reported
        rc, error = 1, traceback.format_exc()
    t_end = time.monotonic()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    work_s = t_end - t_start - probe.total_s
    samples = _enough(probe.samples, speed.probe_numpy)
    command_scale = speed.scale(samples, speed.NUMPY_REFERENCE_S)
    setup["probe_us"]["command"] = 1e6 * speed.trimmed_mean(samples)
    result = {
        "rc": rc,
        "error": error,
        "stdout": captured.getvalue(),
        **setup,
        "wall_s": work_s,
        "norm_s": work_s * command_scale,
        "peak_rss_mb": rss_kb / 1024.0,
        "hashes": {},
        "checked": {},
    }
    if rc == 0:
        for name in workload.output_files():
            result["hashes"][name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
        result["checked"] = workload.checked_values(out)
        result["nonfinite"] = _nonfinite_outputs(result["stdout"], out, workload.output_files())
    if tracer is not None:
        tracer.uninstall()
        tracer.exclude(probe.time_within)
        tracer.write(spec["spans"])
        if rc == 0:
            tracer.check_coverage()
            result["layers"] = tracer.metrics(command_scale)
            result["shares"] = tracer.shares()
    return result


def _enough(samples: list, probe) -> list:
    """``samples``, topped up by direct probes for a measurement too short
    for the timer to fire often (tiny self-test sizes)."""
    return samples + [probe() for _ in range(MIN_SAMPLES - len(samples))]


def _nonfinite_outputs(stdout: str, out: Path, files) -> list:
    """Printed numbers and CSV values that are not finite."""
    bad = [tok for tok in stdout.split() if _is_nonfinite(tok)]
    for name in files:
        if name.endswith(".csv"):
            for line in (out / name).read_text().splitlines()[1:]:
                bad += [f"{name}:{tok}" for tok in line.split(",") if _is_nonfinite(tok)]
    return bad


def _is_nonfinite(token: str) -> bool:
    try:
        return not math.isfinite(float(token))
    except ValueError:
        return False


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
