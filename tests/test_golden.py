"""Golden outputs: a fixed matrix of small CLI runs against recorded values.

Every run goes through ``sgmeta.cli.main``. Its exit code, printed lines,
``metrics.csv`` and ``report.csv`` rows and checkpoint parameters are
compared with ``tests/golden/<run>.json``: row keys, counts, accuracies and
printed lines exactly, every other value to 1e-12 relative (the tolerance
for refactors that may change float summation order). A run that sets a key
with ``--set`` away from its checkpoint's stored config warns once, naming
each such key; any other warning fails the run.

Set ``SGMETA_REGEN_GOLDEN=1`` to rewrite the golden files from the current
code instead of comparing. A rewrite keeps each recorded value that passes
its comparison and writes the new one only where it fails, so a golden file
changes only where the outputs moved; a change that rewrites them says why.
"""

import contextlib
import io
import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from sgmeta.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = os.environ.get("SGMETA_REGEN_GOLDEN") == "1"
RTOL = 1e-12

TOY = {
    "mode": "toy",
    "epochs": 2,
    "batch_tasks": 4,
    "toy": {"n": 16, "n_train_tasks": 16, "n_test_tasks": 40},
}
TOY_INNER_DRAWS = {**TOY, "inner": {"posterior": {"inner_draws": 2}}}
FEWSHOT = {
    "mode": "fewshot",
    "total_steps": 20,
    "batch_tasks": 4,
    "eval_every": 10,
    "val_pool_size": 6,
    "eval_episodes": 210,
    "fewshot": {
        "k": 3,
        "n_shot": 1,
        "n_query_per_class": 4,
        "d_x": 6,
        "class_pool": {"train": 8, "val": 4, "test": 5},
    },
}
FEWSHOT_GAUSSIAN = {
    **FEWSHOT,
    "inner": {"posterior": {"regime": "gaussian_fixed_var", "log_var": -4.0, "inner_draws": 2,
                            "objective_draws": 2}},
}
CONFIGS = {
    "toy": TOY,
    "toy-inner-draws": TOY_INNER_DRAWS,
    "fewshot": FEWSHOT,
    "fewshot-global": {**FEWSHOT, "theta_init": "global"},
    "fewshot-ssl": {**FEWSHOT, "theta_init": "ssl"},
    "fewshot-gaussian": FEWSHOT_GAUSSIAN,
    "fewshot-train-f": {**FEWSHOT, "train_f": True},
}

# run name -> (config, argv after the config; "{name}" is that run's checkpoint)
RUNS = {
    "train-toy": ("toy", ["train-toy"]),
    "train-toy-inner-draws": ("toy-inner-draws", ["train-toy"]),
    "train-fewshot-proto": ("fewshot", ["train-fewshot"]),
    "train-fewshot-global": ("fewshot-global", ["train-fewshot"]),
    "train-fewshot-ssl": ("fewshot-ssl", ["train-fewshot"]),
    "train-fewshot-gaussian": ("fewshot-gaussian", ["train-fewshot"]),
    "train-fewshot-train-f": ("fewshot-train-f", ["train-fewshot"]),
    "eval-toy": ("toy", ["eval", "--checkpoint", "{train-toy}", "--set", "eval_episodes=160"]),
    "eval-toy-k0": ("toy", ["eval", "--checkpoint", "{train-toy}", "--set", "inner.steps=0"]),
    "eval-fewshot": ("fewshot", ["eval", "--checkpoint", "{train-fewshot-proto}"]),
    "eval-fewshot-k0": ("fewshot", ["eval", "--checkpoint", "{train-fewshot-proto}",
                                    "--set", "eval_episodes=30", "--set", "inner.steps=0"]),
    "analyze-toy": ("toy-inner-draws", ["analyze", "--checkpoint", "{train-toy-inner-draws}",
                                        "--trials", "160", "--mc-seeds", "2"]),
    "analyze-fewshot": ("fewshot", ["analyze", "--checkpoint", "{train-fewshot-proto}",
                                    "--trials", "250"]),
    "analyze-fewshot-gaussian": ("fewshot-gaussian", [
        "analyze", "--checkpoint", "{train-fewshot-gaussian}", "--trials", "30"]),
    "sweep-n": ("toy", ["sweep-n", "--checkpoint", "{train-toy}", "--n-values", "4,16",
                        "--trials", "160"]),
}


def _csv_rows(path: Path) -> list:
    if not path.exists():
        return []
    lines = path.read_text().splitlines()[1:]
    return [[int(f) if f.isdigit() else f for f in line.split(",")] for line in lines]


def _run(name: str, root: Path) -> dict:
    config, argv = RUNS[name]
    cfg_path = root / f"{config}.json"
    if not cfg_path.exists():
        cfg_path.write_text(json.dumps(CONFIGS[config]))
    argv = [str(root / a[1:-1] / "checkpoint.json") if a.startswith("{") else a for a in argv]
    out = root / name
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv + ["--config", str(cfg_path), "--out", str(out)])
    # a run whose --set differs from the checkpoint's config warns once, naming each key
    keys = [argv[i + 1].split("=")[0] for i, flag in enumerate(argv) if flag == "--set"]
    assert len(caught) == (1 if keys else 0)
    assert all(f"{key}: " in str(w.message) for w in caught for key in keys)
    record = {"exit": code, "printed": printed.getvalue().splitlines(),
              "metrics": _csv_rows(out / "metrics.csv"), "report": _csv_rows(out / "report.csv")}
    if argv[0].startswith("train"):
        payload = json.loads((out / "checkpoint.json").read_text())
        record["params"] = {k: v["values"] for k, v in payload["params"].items()}
    return record


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    # dict order runs every training before the commands reading its checkpoint
    return {name: _run(name, root) for name in RUNS}


def _close(actual: float, expected: float) -> bool:
    return abs(actual - expected) <= RTOL * max(abs(actual), abs(expected))


def _assert_close(actual: float, expected: float, where: str) -> None:
    assert _close(actual, expected), f"{where}: {actual!r} != {expected!r} (rel 1e-12)"


def _row_passes(got: list, want: list) -> tuple:
    """Whether a row's value and its spread pass: an accuracy exactly, any
    other value and every spread to ``RTOL``."""
    if "accuracy" in str(got[-3]):
        value = got[-2] == want[-2]
    else:
        value = _close(float(got[-2]), float(want[-2]))
    return value, _close(float(got[-1]), float(want[-1]))


def _compare_rows(actual: list, expected: list, where: str) -> None:
    """Rows are (key fields..., value, spread); keys and accuracies exact."""
    assert [r[:-2] for r in actual] == [r[:-2] for r in expected], f"{where}: row keys differ"
    for got, want in zip(actual, expected):
        label = f"{where} {got[:-2]}"
        value, spread = _row_passes(got, want)
        assert value, f"{label}: {got[-2]} != {want[-2]}"
        assert spread, f"{label} spread: {got[-1]} != {want[-1]}"


def _regenerated(got: dict, want: dict) -> dict:
    """The record a rewrite stores: ``got``, with each recorded value of
    ``want`` that passes its comparison kept. Exact comparisons pass only
    on equal values, so only rows and parameters compared to ``RTOL`` keep
    a recorded value; rows whose keys changed and parameters whose names or
    sizes changed are written new."""
    record = dict(got)
    for csv in ("metrics", "report"):
        if [r[:-2] for r in got[csv]] == [r[:-2] for r in want[csv]]:
            record[csv] = [_kept_row(g, w) for g, w in zip(got[csv], want[csv])]
    if "params" in got:
        record["params"] = dict(got["params"])
        for name, values in got["params"].items():
            old = want.get("params", {}).get(name, [])
            if len(old) == len(values):  # passes as ``assert_allclose`` below compares it
                passes = np.isclose(values, old, rtol=RTOL, atol=0, equal_nan=True)
                record["params"][name] = np.where(passes, old, values).tolist()
    return record


def _kept_row(got: list, want: list) -> list:
    """A row with its recorded value and spread kept where each passes."""
    value, spread = _row_passes(got, want)
    return got[:-2] + [want[-2] if value else got[-2], want[-1] if spread else got[-1]]


@pytest.mark.parametrize("name", list(RUNS))
def test_golden_outputs(outputs, name):
    got = outputs[name]
    path = GOLDEN_DIR / f"{name}.json"
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        record = _regenerated(got, json.loads(path.read_text())) if path.exists() else got
        path.write_text(json.dumps(record, indent=1) + "\n")
        return
    want = json.loads(path.read_text())
    assert got["exit"] == want["exit"] == 0
    assert got["printed"] == want["printed"]
    _compare_rows(got["metrics"], want["metrics"], "metrics.csv")
    _compare_rows(got["report"], want["report"], "report.csv")
    assert sorted(got.get("params", {})) == sorted(want.get("params", {}))
    for param, values in want.get("params", {}).items():
        np.testing.assert_allclose(got["params"][param], values, rtol=RTOL, atol=0,
                                   err_msg=f"checkpoint parameter {param}")


def test_regeneration_keeps_the_recorded_values_that_pass():
    want = {"exit": 0, "printed": ["a"], "metrics": [],
            "report": [["gap", "1.0", "0.5"], ["query_accuracy", "0.25", "0.125"]],
            "params": {"w": [1.0, 2.0], "b": [3.0]}}
    got = {"exit": 0, "printed": ["b"], "metrics": [],
           "report": [["gap", "1.0000000000000002", "0.6"], ["query_accuracy", "0.5", "0.125"]],
           "params": {"w": [1.0000000000000002, 2.5], "b": [3.0, 4.0]}}
    assert _regenerated(got, want) == {
        "exit": 0, "printed": ["b"], "metrics": [],
        "report": [["gap", "1.0", "0.6"], ["query_accuracy", "0.5", "0.125"]],
        "params": {"w": [1.0, 2.5], "b": [3.0, 4.0]}}
    renamed = {**got, "report": [["gen_gap", "1.0", "0.5"], got["report"][1]]}
    assert _regenerated(renamed, want)["report"] == renamed["report"]


@pytest.mark.parametrize("name", [name for name in RUNS if name.startswith("analyze")])
def test_bound_rows_are_recomputed_from_their_report(outputs, name):
    """Each ``gen_bound*`` row of ``report.csv`` is sqrt(2 σ² mi / n) of the
    ``sigma*``, ``mi*`` and ``n*`` rows with its suffix in the same file. The
    deterministic regime (``analyze-fewshot``) has no bound, only its inputs."""
    rows = {row[0]: float(row[1]) for row in outputs[name]["report"]}
    bounds = [key for key in rows if key.startswith("gen_bound")]
    assert bool(bounds) == (name != "analyze-fewshot")
    assert bounds or {"sigma", "mi", "n"} <= set(rows)
    for key in bounds:
        sigma, mi, n = (rows[q + key[len("gen_bound"):]] for q in ("sigma", "mi", "n"))
        expected = math.sqrt(2.0 * sigma * sigma * mi / n)
        assert abs(rows[key] - expected) <= 1e-12 * expected


def test_best_checkpoint_records_the_step_it_was_taken(tmp_path):
    """``checkpoint_best.json`` and the summary's ``best_step`` name the first
    evaluation with the best validation accuracy (step 10 of this run's 20),
    and the checkpoint holds that evaluation's parameters: evaluating it on
    the validation pool writes the step-10 rows again, and its parameters
    are not the last ones."""
    cfg_path = tmp_path / "fewshot-global.json"
    cfg_path.write_text(json.dumps(CONFIGS["fewshot-global"]))
    out = tmp_path / "run"
    assert main(["train-fewshot", "--config", str(cfg_path), "--out", str(out)]) == 0
    evals = [(step, float(value)) for step, split, metric, value, _ in _csv_rows(out / "metrics.csv")
             if split == "val" and metric == "query_accuracy"]
    best = max(value for _, value in evals)
    best_step = next(step for step, value in evals if value == best)
    assert best_step == 10 and [step for step, _ in evals] == [10, 20]
    assert json.loads((out / "checkpoint_best.json").read_text())["step"] == best_step
    assert json.loads((out / "summary.json").read_text())["best_step"] == best_step

    evaluated = tmp_path / "eval"
    with pytest.warns(UserWarning, match="eval_episodes: 210 in the checkpoint, 6 now"):
        assert main(["eval", "--config", str(out / "effective_config.json"),
                     "--checkpoint", str(out / "checkpoint_best.json"), "--split", "val",
                     "--set", "eval_episodes=6", "--out", str(evaluated)]) == 0
    step_10 = [row[1:] for row in _csv_rows(out / "metrics.csv") if row[:2] == [10, "val"]]
    assert step_10 and [row[1:] for row in _csv_rows(evaluated / "metrics.csv")] == step_10
    params = [json.loads((out / name).read_text())["params"]
              for name in ("checkpoint_best.json", "checkpoint.json")]
    assert params[0] != params[1]
