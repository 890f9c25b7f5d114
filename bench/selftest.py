"""Fast self-test of the benchmark (under a minute).

Run from the repository root::

    python3 bench/selftest.py

Checks that every workload, at a tiny size, emits every metric named in
``BENCHMARK.json`` with its unit, traced and untraced; that the tracer fails
loudly on a missing or never-called wrap target; and that the benchmark
exits non-zero without a result where the program's sources are absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_metrics_emitted(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            if proc.returncode != 0:
                raise AssertionError(f"{workload} --trace {trace} exited {proc.returncode}:\n"
                                     f"{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{workload} --trace {trace}: {got} != {want}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
            print(f"ok   {workload} --trace {trace}: {len(got)} metrics")


def check_tracer_fails_loudly() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import tracer

    saved = tracer.TARGETS
    try:
        tracer.TARGETS = saved + (("sgmeta.trainer.no_such_function", "io", tracer.TRAINING),)
        t = tracer.Tracer("toy-train")
        try:
            t.install()
        except tracer.TraceError:
            pass
        else:
            raise AssertionError("missing wrap target was not reported")
        finally:
            t.uninstall()
    finally:
        tracer.TARGETS = saved
    t = tracer.Tracer("fewshot-analyze")
    t.install()
    t.uninstall()
    try:
        t.check_coverage()  # nothing ran, so every expected target is uncalled
    except tracer.TraceError as exc:
        assert "sgmeta.analysis.gen_gap" in str(exc), exc
    else:
        raise AssertionError("uncalled wrap targets were not reported")
    print("ok   tracer rejects missing and uncalled wrap targets")


def check_fails_without_sources() -> None:
    bare = HERE / ".runs" / "selftest-bare"
    if bare.exists():
        shutil.rmtree(bare)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run_bench(bare, "toy-train", 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert not any(line.startswith("{") for line in proc.stdout.splitlines()), proc.stdout
    print("ok   exits non-zero without a result when src/ is absent")


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    check_tracer_fails_loudly()
    check_fails_without_sources()
    check_metrics_emitted(spec)
    print("benchmark self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
