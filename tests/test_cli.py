"""Command-line behavior: reproducibility, run-dir discipline, exit codes."""

import argparse
import ctypes
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import sgmeta.analysis as analysis
import sgmeta.cli as cli
import sgmeta.sibcore as sibcore
import sgmeta.tasks as tasks
import sgmeta.trainer as trainer
from sgmeta.cli import build_parser, main
from sgmeta.tasks import derive_task_seed
from sgmeta.trainer import (
    build_model,
    config_from_dict,
    episodes_for,
    load_checkpoint,
    make_theta0,
    save_checkpoint,
)


TINY_TOY = {
    "mode": "toy",
    "epochs": 2,
    "batch_tasks": 4,
    "val_pool_size": 4,
    "toy": {"n": 8, "n_train_tasks": 8, "n_test_tasks": 6},
    "inner": {"steps": 2},
}

TINY_FEWSHOT = {
    "mode": "fewshot",
    "total_steps": 3,
    "batch_tasks": 2,
    "eval_every": 2,
    "val_pool_size": 3,
    "eval_episodes": 4,
    "fewshot": {
        "k": 3,
        "n_shot": 1,
        "n_query_per_class": 4,
        "d_x": 6,
        "class_pool": {"train": 8, "val": 4, "test": 4},
    },
}


@pytest.fixture
def toy_cfg_file(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(TINY_TOY))
    return path


@pytest.fixture
def fewshot_cfg_file(tmp_path):
    path = tmp_path / "fs.json"
    path.write_text(json.dumps(TINY_FEWSHOT))
    return path


def read_masked_summary(path: Path) -> dict:
    data = json.loads(path.read_text())
    data.pop("wall_time_ms", None)
    return data


def test_train_toy_writes_run_artifacts(tmp_path, toy_cfg_file, capsys):
    out = tmp_path / "run"
    rc = main(["train-toy", "--config", str(toy_cfg_file), "--out", str(out)])
    assert rc == 0
    assert (out / "metrics.csv").exists()
    assert (out / "checkpoint.json").exists()
    assert (out / "summary.json").exists()
    assert (out / "effective_config.json").exists()
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header == "step,split,metric,value,ci95"
    printed = capsys.readouterr().out
    assert "query_mse" in printed and "±" in printed


def test_cli_runs_are_byte_identical(tmp_path, toy_cfg_file):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["train-toy", "--config", str(toy_cfg_file), "--out", str(out1)]) == 0
    assert main(["train-toy", "--config", str(toy_cfg_file), "--out", str(out2)]) == 0
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
    assert (out1 / "checkpoint.json").read_bytes() == (out2 / "checkpoint.json").read_bytes()
    assert read_masked_summary(out1 / "summary.json") == read_masked_summary(out2 / "summary.json")


def test_rerun_from_echoed_config_is_identical(tmp_path, toy_cfg_file):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["train-toy", "--config", str(toy_cfg_file), "--out", str(out1)]) == 0
    echoed = out1 / "effective_config.json"
    assert main(["train-toy", "--config", str(echoed), "--out", str(out2)]) == 0
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()


def test_refuses_to_overwrite_run_dir(tmp_path, toy_cfg_file, capsys):
    out = tmp_path / "run"
    assert main(["train-toy", "--config", str(toy_cfg_file), "--out", str(out)]) == 0
    rc = main(["train-toy", "--config", str(toy_cfg_file), "--out", str(out)])
    assert rc == 2
    assert "exists" in capsys.readouterr().err
    rc = main(["train-toy", "--config", str(toy_cfg_file), "--out", str(out), "--force"])
    assert rc == 0


def test_invalid_config_key_reports_and_fails(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mode": "toy", "learning_rte": 0.1}))
    rc = main(["train-toy", "--config", str(bad), "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "learning_rte" in err


def test_missing_config_file_fails(tmp_path, capsys):
    rc = main(["train-toy", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "r")])
    assert rc == 2


def test_seed_and_set_overrides(tmp_path, toy_cfg_file):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main([
        "train-toy", "--config", str(toy_cfg_file), "--out", str(out1),
        "--seed", "7", "--set", "inner.eta_inner=0.002",
    ]) == 0
    eff = json.loads((out1 / "effective_config.json").read_text())
    assert eff["run_seed"] == 7
    assert eff["inner"]["eta_inner"] == 0.002
    # overrides change outputs
    assert main(["train-toy", "--config", str(toy_cfg_file), "--out", str(out2)]) == 0
    assert (out1 / "metrics.csv").read_bytes() != (out2 / "metrics.csv").read_bytes()


def test_set_means_what_the_config_file_means(tmp_path, toy_cfg_file):
    # toy.sigma_w sets inner.q_log_var unless the inner section does, on both routes
    edited = json.loads(toy_cfg_file.read_text())
    edited["toy"]["sigma_w"] = 0.2
    edited["epochs"] = 1
    edited_file = tmp_path / "edited.json"
    edited_file.write_text(json.dumps(edited))
    by_file, by_set = tmp_path / "file", tmp_path / "set"
    assert main(["train-toy", "--config", str(edited_file), "--out", str(by_file)]) == 0
    assert main(["train-toy", "--config", str(toy_cfg_file), "--set", "toy.sigma_w=0.2",
                 "--set", "epochs=1", "--out", str(by_set)]) == 0
    echoed = (by_set / "effective_config.json").read_bytes()
    assert echoed == (by_file / "effective_config.json").read_bytes()
    assert json.loads(echoed)["inner"]["q_log_var"] == pytest.approx(2 * math.log(0.2))


def test_eval_matches_training_final_row(tmp_path, fewshot_cfg_file, capsys):
    run = tmp_path / "run"
    assert main(["train-fewshot", "--config", str(fewshot_cfg_file), "--out", str(run)]) == 0
    capsys.readouterr()
    out = tmp_path / "eval"
    rc = main([
        "eval", "--config", str(run / "effective_config.json"),
        "--checkpoint", str(run / "checkpoint.json"),
        "--split", "val", "--episodes", "3", "--out", str(out),
    ])
    assert rc == 0
    printed = capsys.readouterr().out.strip()
    summary = json.loads((out / "summary.json").read_text())
    # the printed value is the summary value, which matches the metrics row
    assert f"{summary['value']:.6f}" in printed
    lines = (out / "metrics.csv").read_text().splitlines()
    acc_rows = [l for l in lines if ",query_accuracy," in l]
    assert len(acc_rows) == 1
    assert float(acc_rows[0].split(",")[3]) == summary["value"]
    # training summary final row agrees with a fresh evaluation on the pool
    train_summary = json.loads((run / "summary.json").read_text())
    out2 = tmp_path / "eval_pool"
    rc = main([
        "eval", "--config", str(run / "effective_config.json"),
        "--checkpoint", str(run / "checkpoint.json"),
        "--split", "val", "--episodes", str(TINY_FEWSHOT["val_pool_size"]),
        "--out", str(out2),
    ])
    assert rc == 0
    summary2 = json.loads((out2 / "summary.json").read_text())
    assert summary2["value"] == pytest.approx(train_summary["final"]["query_accuracy"], abs=1e-12)


def test_eval_with_inner_steps_override(tmp_path, fewshot_cfg_file, capsys):
    run = tmp_path / "run"
    assert main(["train-fewshot", "--config", str(fewshot_cfg_file), "--out", str(run)]) == 0
    out = tmp_path / "eval0"
    rc = main([
        "eval", "--config", str(run / "effective_config.json"),
        "--checkpoint", str(run / "checkpoint.json"),
        "--split", "test", "--episodes", "3", "--inner-steps", "0",
        "--out", str(out),
    ])
    assert rc == 0
    assert json.loads((out / "summary.json").read_text())["inner_steps"] == 0


def test_analyze_toy_writes_report(tmp_path, toy_cfg_file):
    run = tmp_path / "run"
    assert main(["train-toy", "--config", str(toy_cfg_file), "--out", str(run)]) == 0
    out = tmp_path / "analysis"
    rc = main([
        "analyze", "--config", str(run / "effective_config.json"),
        "--checkpoint", str(run / "checkpoint.json"),
        "--trials", "40", "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == "quantity,value,stderr"
    names = {l.split(",")[0] for l in lines[1:]}
    assert {"kl_to_true_posterior", "mi_estimate", "gen_gap_seed0", "gen_bound_seed0"} <= names
    summary = json.loads((out / "summary.json").read_text())
    assert "bound_holds_all_seeds" in summary


def test_deterministic_toy_analyze_reports_the_prior_term(tmp_path, toy_cfg_file):
    """In the deterministic regime too, ``mi_estimate`` is the mean point-mass
    ``prior_term`` of the evaluation pool's adapted weights, the KL the
    objective and the gap's ``mi`` use."""
    run = tmp_path / "run"
    assert main(["train-toy", "--config", str(toy_cfg_file), "--set",
                 "inner.posterior_regime=deterministic", "--out", str(run)]) == 0
    out = tmp_path / "analysis"
    assert main(["analyze", "--config", str(run / "effective_config.json"),
                 "--checkpoint", str(run / "checkpoint.json"), "--trials", "20",
                 "--out", str(out)]) == 0
    rows = dict(line.split(",")[:2] for line in (out / "report.csv").read_text().splitlines())
    cfg = config_from_dict(json.loads((run / "effective_config.json").read_text()))
    model = load_checkpoint(run / "checkpoint.json", cfg)
    pool = episodes_for(cfg, "test", range(cfg.toy.n_test_tasks))
    theta_k, _ = sibcore.sib_unroll(make_theta0(model, pool, cfg), pool, model, cfg.inner)
    expected = float(np.mean(sibcore.prior_term(theta_k, model, cfg.inner).data))
    assert float(rows["mi_estimate"]) == pytest.approx(expected, rel=1e-12, abs=0)


def test_deterministic_toy_metrics_do_not_read_q_log_var(tmp_path, toy_cfg_file):
    """A point mass has no variance: deterministic toy trainings and
    evaluations that differ only in ``inner.q_log_var`` write the same
    ``metrics.csv``, ``kl_to_true_posterior`` (the point-mass term) included."""
    written = []
    for q_log_var in ("-4.0", "0.5"):
        run, out = tmp_path / f"run{q_log_var}", tmp_path / f"eval{q_log_var}"
        assert main(["train-toy", "--config", str(toy_cfg_file), "--set",
                     "inner.posterior_regime=deterministic", "--set",
                     f"inner.q_log_var={q_log_var}", "--out", str(run)]) == 0
        assert main(["eval", "--config", str(run / "effective_config.json"),
                     "--checkpoint", str(run / "checkpoint.json"), "--out", str(out)]) == 0
        written.append([(run / "metrics.csv").read_bytes(), (out / "metrics.csv").read_bytes()])
    assert written[0] == written[1]
    assert all(b"kl_to_true_posterior" in text for text in written[0])


def test_fewshot_analyze_runs_the_trials_it_records(tmp_path, fewshot_cfg_file):
    run = tmp_path / "run"
    assert main(["train-fewshot", "--config", str(fewshot_cfg_file), "--out", str(run)]) == 0
    out = tmp_path / "analysis"
    assert main(["analyze", "--config", str(run / "effective_config.json"),
                 "--checkpoint", str(run / "checkpoint.json"), "--trials", "501",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["trials"] == summary["gap"]["trials"] == 501
    assert summary["eval_episodes"] == TINY_FEWSHOT["eval_episodes"]


@pytest.mark.parametrize("command", [["eval"], ["analyze", "--trials", "4"]])
def test_evaluation_pool_is_generated_once_chunk_by_chunk(tmp_path, fewshot_cfg_file,
                                                          monkeypatch, command):
    cfg = config_from_dict(json.loads(fewshot_cfg_file.read_text()))
    save_checkpoint(build_model(cfg), tmp_path / "checkpoint.json", cfg, step=0)
    events = []

    def generating(task_cfg, split, seeds):
        events.extend(seeds)
        return generate(task_cfg, split, seeds)

    def unrolling(theta0, episodes, *args, **kwargs):
        events.append(f"unroll {len(episodes)}")
        return unroll(theta0, episodes, *args, **kwargs)

    generate, unroll = trainer.gen_fewshot_episode, trainer.sib_unroll
    monkeypatch.setattr(trainer, "gen_fewshot_episode", generating)
    monkeypatch.setattr(trainer, "sib_unroll", unrolling)
    n_query = cfg.fewshot.k * cfg.fewshot.n_query_per_class
    monkeypatch.setattr(sibcore, "CHUNK_POINTS", 3 * n_query)
    assert main(command + ["--config", str(fewshot_cfg_file), "--set", "eval_episodes=10",
                           "--checkpoint", str(tmp_path / "checkpoint.json"),
                           "--out", str(tmp_path / "out")]) == 0
    seeds = [derive_task_seed(cfg.run_seed, "test", i) for i in range(10)]
    # each chunk's episodes are generated just before it is adapted, once each
    assert events == (seeds[0:3] + ["unroll 3"] + seeds[3:6] + ["unroll 3"]
                      + seeds[6:9] + ["unroll 3"] + seeds[9:] + ["unroll 1"])


def test_eval_rejects_a_non_finite_checkpoint_parameter(tmp_path, fewshot_cfg_file, capsys):
    run = tmp_path / "run"
    assert main(["train-fewshot", "--config", str(fewshot_cfg_file), "--set", "total_steps=2",
                 "--out", str(run)]) == 0
    payload = json.loads((run / "checkpoint.json").read_text())
    payload["params"]["xi_w1"]["values"][0] = float("nan")
    (run / "checkpoint.json").write_text(json.dumps(payload))
    capsys.readouterr()
    rc = main(["eval", "--config", str(fewshot_cfg_file), "--checkpoint",
               str(run / "checkpoint.json"), "--episodes", "4", "--out", str(tmp_path / "eval")])
    assert rc == 2
    assert "xi_w1" in capsys.readouterr().err


def _without(*keys):
    def mutate(payload):
        section = payload
        for key in keys[:-1]:
            section = section[key]
        del section[keys[-1]]
    return mutate


def _truncate_values(payload):
    payload["params"]["xi_w1"]["values"].pop()


def _params_as_list(payload):
    payload["params"] = list(payload["params"].values())


def _root_as_list(payload):
    return []  # replaces the whole payload


@pytest.mark.parametrize("mutate, named", [
    (_without("meta"), "checkpoint is missing 'meta'"),
    (_without("meta", "k"), "checkpoint meta is missing 'k'"),
    (_without("params", "xi_w1", "shape"), "xi_w1 is missing 'shape'"),
    (_without("params", "xi_w1", "values"), "xi_w1 is missing 'values'"),
    (_truncate_values, "xi_w1 has values that do not fit its shape"),
    (_without("params", "xi_w1"), "missing ['xi_w1']"),
    (_params_as_list, "checkpoint params must be an object"),
    (_root_as_list, "checkpoint.json must be a JSON object"),
], ids=["no-meta", "no-meta-k", "no-shape", "no-values", "short-values", "no-param",
        "params-list", "root-list"])
def test_eval_rejects_a_malformed_checkpoint_naming_the_field(tmp_path, fewshot_cfg_file, capsys,
                                                              mutate, named):
    run = tmp_path / "run"
    assert main(["train-fewshot", "--config", str(fewshot_cfg_file), "--set", "total_steps=2",
                 "--out", str(run)]) == 0
    payload = json.loads((run / "checkpoint.json").read_text())
    replaced = mutate(payload)
    (run / "checkpoint.json").write_text(json.dumps(payload if replaced is None else replaced))
    capsys.readouterr()
    # the checkpoint's config hash is another config's, but an invalid
    # checkpoint reports only its fault
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["eval", "--config", str(fewshot_cfg_file), "--checkpoint",
                   str(run / "checkpoint.json"), "--episodes", "4", "--out",
                   str(tmp_path / "eval")])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("flag", ["--out", "--config", "--checkpoint"])
def test_a_path_of_the_wrong_kind_exits_2_and_names_it(tmp_path, fewshot_cfg_file, capsys, flag):
    run = tmp_path / "run"
    assert main(["train-fewshot", "--config", str(fewshot_cfg_file), "--set", "total_steps=2",
                 "--out", str(run)]) == 0
    paths = {"--out": str(tmp_path / "eval"), "--config": str(fewshot_cfg_file),
             "--checkpoint": str(run / "checkpoint.json")}
    # a file where a directory belongs, a directory where a file belongs
    paths[flag] = str(fewshot_cfg_file) if flag == "--out" else str(run)
    capsys.readouterr()
    rc = main(["eval", "--episodes", "4", *(a for flag_path in paths.items() for a in flag_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and paths[flag] in err and "Traceback" not in err


@pytest.mark.parametrize("config, overrides, named", [
    ("fewshot", ["--set", "fewshot.k=2"], "the config's fewshot.k 2"),
    ("fewshot", ["--set", "fewshot.d_x=5"], "the config's fewshot.d_x 5"),
    ("fewshot", ["--set", "d_f=4"], "the config's d_f 4"),
    ("toy", [], "the config's mode 'toy'"),
], ids=["k", "d_x", "d_f", "toy-config"])
@pytest.mark.filterwarnings("ignore:checkpoint config hash")
def test_eval_rejects_a_checkpoint_of_another_geometry(tmp_path, toy_cfg_file, fewshot_cfg_file,
                                                       capsys, config, overrides, named):
    run = tmp_path / "run"
    assert main(["train-fewshot", "--config", str(fewshot_cfg_file), "--set", "total_steps=2",
                 "--out", str(run)]) == 0
    capsys.readouterr()
    cfg_file = toy_cfg_file if config == "toy" else fewshot_cfg_file
    rc = main(["eval", "--config", str(cfg_file), *overrides, "--checkpoint",
               str(run / "checkpoint.json"), "--episodes", "4", "--out", str(tmp_path / "e")])
    assert rc == 2
    assert named in capsys.readouterr().err


def test_readme_names_every_command_and_no_other():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    named = set(re.findall(r"^\s*sgmeta ([\w-]+)", readme, flags=re.MULTILINE))
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert named == set(commands)


def test_fewshot_analyze_rejects_several_estimator_seeds(tmp_path, fewshot_cfg_file, capsys):
    run = tmp_path / "run"
    assert main(["train-fewshot", "--config", str(fewshot_cfg_file), "--out", str(run)]) == 0
    capsys.readouterr()
    out = tmp_path / "analysis"
    rc = main(["analyze", "--config", str(run / "effective_config.json"),
               "--checkpoint", str(run / "checkpoint.json"), "--mc-seeds", "3",
               "--out", str(out)])
    assert rc == 2
    assert "--mc-seeds" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_n_writes_table(tmp_path, toy_cfg_file):
    run = tmp_path / "run"
    assert main(["train-toy", "--config", str(toy_cfg_file), "--out", str(run)]) == 0
    out = tmp_path / "sweep"
    rc = main([
        "sweep-n", "--config", str(run / "effective_config.json"),
        "--checkpoint", str(run / "checkpoint.json"),
        "--n-values", "2,4", "--trials", "30", "--out", str(out),
    ])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_values"] == [2, 4]
    assert len(summary["spearman_per_seed"]) == 1
    lines = (out / "report.csv").read_text().splitlines()
    assert any(l.startswith("gap_n2_seed0,") for l in lines)


def test_gradcheck_exit_code(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "all gradient checks passed" in out


def test_inner_divergence_leaves_checkpoint_metrics_and_summary(tmp_path, fewshot_cfg_file,
                                                               capsys):
    out = tmp_path / "run"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["train-fewshot", "--config", str(fewshot_cfg_file),
                   "--set", "inner.eta_inner=1e308", "--out", str(out)])
    assert rc == 1
    summary = json.loads((out / "summary.json").read_text())
    assert "non-finite inner update" in summary["error"]
    checkpoint = json.loads((out / "checkpoint.json").read_text())
    assert checkpoint["step"] == summary["step"]
    assert (out / "metrics.csv").read_text().startswith("step,split,metric,value,ci95")
    assert "non-finite inner update" in capsys.readouterr().err


def test_diverged_update_leaves_the_checkpoint_before_it(tmp_path, toy_cfg_file, capsys):
    """An update to infinite weights diverges at the next step's inner loop;
    the checkpoint holds the finite weights from before that update, and
    ``eval`` loads it."""
    run = tmp_path / "run"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["train-toy", "--config", str(toy_cfg_file), "--set", 'optimizer="sgd"',
                   "--set", "learning_rate=1e308", "--set", "grad_clip_norm=0",
                   "--out", str(run)])
    assert rc == 1
    assert "non-finite inner update (inner step 0) at outer step 1" in capsys.readouterr().err
    checkpoint = json.loads((run / "checkpoint.json").read_text())
    assert checkpoint["step"] == 0
    for name, param in checkpoint["params"].items():
        assert np.all(np.isfinite(param["values"])), name
    assert main(["eval", "--config", str(run / "effective_config.json"),
                 "--checkpoint", str(run / "checkpoint.json"), "--episodes", "4",
                 "--out", str(tmp_path / "eval")]) == 0


def test_diverged_last_update_leaves_the_checkpoint_before_it(tmp_path, toy_cfg_file, capsys):
    """An update to infinite weights that no later loss or inner update
    reads (the last one, with no inner steps) diverges before the final
    evaluation; the checkpoint holds the finite weights from before it."""
    run = tmp_path / "run"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["train-toy", "--config", str(toy_cfg_file), "--set", "epochs=1",
                   "--set", "toy.n_train_tasks=4", "--set", "toy.n_test_tasks=4",
                   "--set", "batch_tasks=4", "--set", "inner.steps=0",
                   "--set", 'optimizer="sgd"', "--set", "learning_rate=1e308",
                   "--set", "grad_clip_norm=0", "--out", str(run)])
    assert rc == 1
    assert "non-finite parameter update at step 0" in capsys.readouterr().err
    summary = json.loads((run / "summary.json").read_text())
    assert summary["step"] == 0 and "non-finite parameter update" in summary["error"]
    checkpoint = json.loads((run / "checkpoint.json").read_text())
    assert checkpoint["step"] == 0
    for name, param in checkpoint["params"].items():
        assert np.all(np.isfinite(param["values"])), name
    assert "query_mse" not in (run / "metrics.csv").read_text()
    assert main(["eval", "--config", str(run / "effective_config.json"),
                 "--checkpoint", str(run / "checkpoint.json"), "--episodes", "4",
                 "--out", str(tmp_path / "eval")]) == 0


@pytest.mark.parametrize("command,size", [("eval", "--episodes"), ("analyze", "--trials")])
def test_inner_divergence_outside_training_exits_1_with_summary(tmp_path, fewshot_cfg_file,
                                                                capsys, command, size):
    run = tmp_path / "run"
    assert main(["train-fewshot", "--config", str(fewshot_cfg_file), "--set", "total_steps=2",
                 "--out", str(run)]) == 0
    capsys.readouterr()
    out = tmp_path / command
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main([command, "--config", str(run / "effective_config.json"),
                   "--checkpoint", str(run / "checkpoint.json"), size, "4",
                   "--set", "inner.eta_inner=1e308", "--out", str(out)])
    assert rc == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == command
    assert "non-finite inner update (inner step" in summary["error"]
    assert "error: non-finite inner update (inner step" in capsys.readouterr().err


@pytest.mark.parametrize("setting,key", [
    ("learning_rate=abc", "learning_rate"),
    ("epochs=-1", "epochs"),
    ("eval_every=-3", "eval_every"),
    ("inner.steps=1.5", "inner.steps"),
    ("toy.n=abc", "toy.n"),
    ("inner.steps.x=1", "inner.steps.x"),
    ("foo.bar=1", "foo"),
])
def test_invalid_scalar_setting_exits_2_and_names_key(tmp_path, toy_cfg_file, capsys,
                                                      setting, key):
    out = tmp_path / "run"
    rc = main(["train-toy", "--config", str(toy_cfg_file), "--set", setting, "--out", str(out)])
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize("command,setting,key", [
    ("train-toy", 'theta_init="proto"', "theta_init"),
    ("train-toy", 'theta_init="ssl"', "theta_init"),
    ("train-toy", "total_steps=1", "total_steps"),
    ("train-toy", "fewshot.k=3", "fewshot"),
    ("train-fewshot", "fewshot.n_shot=0", "fewshot.n_shot"),
    ("train-fewshot", "epochs=7", "epochs"),
    ("train-fewshot", "toy.n=4", "toy"),
])
def test_setting_the_mode_cannot_apply_exits_2_and_names_key(tmp_path, toy_cfg_file,
                                                            fewshot_cfg_file, capsys,
                                                            command, setting, key):
    cfg_file = toy_cfg_file if command == "train-toy" else fewshot_cfg_file
    out = tmp_path / "run"
    rc = main([command, "--config", str(cfg_file), "--set", setting, "--out", str(out)])
    assert rc == 2
    assert f"error: {key} must be" in capsys.readouterr().err
    assert not out.exists()


def test_fewshot_analyze_reports_no_bound_in_the_deterministic_regime(tmp_path,
                                                                      fewshot_cfg_file, capsys):
    # A prior variance below 1/e, near the adapted weights' spread, drives the
    # point-mass prior term (which drops a divergent constant) below zero, as
    # a trained prior does.
    cfg = config_from_dict(json.loads(fewshot_cfg_file.read_text()))
    assert cfg.inner.posterior_regime == "deterministic"
    model = build_model(cfg)
    model.params["psi_log_var"].data[:] = -1.0
    save_checkpoint(model, tmp_path / "checkpoint.json", cfg, step=0)
    out = tmp_path / "analysis"
    assert main(["analyze", "--config", str(fewshot_cfg_file),
                 "--checkpoint", str(tmp_path / "checkpoint.json"), "--trials", "20",
                 "--out", str(out)]) == 0
    gap = json.loads((out / "summary.json").read_text())["gap"]
    assert gap["mi"] < 0
    assert gap["bound"] is None
    names = [line.split(",")[0] for line in (out / "report.csv").read_text().splitlines()]
    assert "gen_gap" in names and "gen_bound" not in names
    assert "gen_bound" not in capsys.readouterr().out


def test_toy_analysis_without_bound_in_the_deterministic_regime(tmp_path, toy_cfg_file):
    run = tmp_path / "run"
    assert main(["train-toy", "--config", str(toy_cfg_file),
                 "--set", 'inner.posterior_regime="deterministic"', "--out", str(run)]) == 0
    config = ["--config", str(run / "effective_config.json")]
    out = tmp_path / "analysis"
    assert main(["analyze", *config,
                 "--checkpoint", str(run / "checkpoint.json"), "--trials", "20",
                 "--mc-seeds", "2", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["bound_holds_all_seeds"] is None
    assert [gap["bound"] for gap in summary["gaps"]] == [None, None]
    assert "gen_bound" not in (out / "report.csv").read_text()
    out = tmp_path / "sweep"
    assert main(["sweep-n", *config,
                 "--checkpoint", str(run / "checkpoint.json"), "--n-values", "2,4",
                 "--trials", "20", "--out", str(out)]) == 0
    report = (out / "report.csv").read_text()
    assert "gap_n4_seed0" in report and "bound_n" not in report


@pytest.mark.parametrize("command,flag,value", [
    ("analyze", "--mc-seeds", "0"),
    ("analyze", "--trials", "1"),
    ("analyze", "--trials", "x"),
    ("eval", "--episodes", "0"),
    ("eval", "--inner-steps", "-1"),
    ("sweep-n", "--mc-seeds", "0"),
    ("sweep-n", "--trials", "0"),
    ("sweep-n", "--n-values", "0,4"),
    ("sweep-n", "--n-values", "4,,8"),
    ("sweep-n", "--n-values", ""),
])
def test_count_flags_out_of_range_exit_2_and_name_the_flag(tmp_path, toy_cfg_file, capsys,
                                                          command, flag, value):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(toy_cfg_file), "--checkpoint", str(tmp_path / "none.json"),
              flag, value, "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not out.exists()


# -- what a command pays for once -------------------------------------------------


def test_commands_build_no_generator_per_episode_and_no_analysis_trial_twice(
        tmp_path, toy_cfg_file, fewshot_cfg_file, monkeypatch):
    """A run builds a fixed handful of Philox generators, however many
    episodes it draws (each episode's stream resets one shared generator),
    and an ``analyze`` command generates and adapts each task once: gap
    trials that are evaluation episodes are read from the evaluation."""
    tasks._stream(0)  # the shared generator, built once per process
    built = []
    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(args or kwargs)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    generated, adapted = [], []

    def counting(name, generate):
        def wrapper(*args, **kwargs):
            episodes = generate(*args, **kwargs)
            generated.extend((name, seed) for seed in episodes.task_seed)
            return episodes
        return wrapper

    # every module binding, as the analysis sampler imports from tasks when called
    for name in ("gen_spinning_lines", "gen_fewshot_episode", "resample_query_set"):
        wrapper = counting(name, getattr(tasks, name))
        for module in (tasks, trainer, analysis, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)

    def counting_unroll(theta0, episodes, *args, **kwargs):
        adapted.extend(episodes.task_seed)
        return sib_unroll(theta0, episodes, *args, **kwargs)

    sib_unroll = sibcore.sib_unroll
    for module in (sibcore, trainer, analysis, cli):
        monkeypatch.setattr(module, "sib_unroll", counting_unroll)

    def run(argv):
        del built[:], generated[:], adapted[:]
        assert main(argv) == 0
        return len(built)

    toy = tmp_path / "toy"
    assert run(["train-toy", "--config", str(toy_cfg_file),
                "--set", "inner.inner_eval_at_mean=false", "--out", str(toy)]) == 1
    assert len(generated) >= 14  # one Philox: the model's initialization

    def analyze(run_dir, *flags):
        return run(["analyze", "--config", str(run_dir / "effective_config.json"),
                    "--checkpoint", str(run_dir / "checkpoint.json"), "--trials", "40", *flags,
                    "--out", str(run_dir / "analysis")])

    def each_task_once(pool, reused, estimates):
        # per estimate: the gap's 40 datasets, all adapted, and their fresh draws
        assert len(generated) == pool + estimates * (40 + 40) - reused
        assert len(adapted) == pool + estimates * 40 - reused
        assert len(set(generated)) == len(generated)
        assert len(set(adapted)) == len(adapted)

    # one model build while loading the checkpoint, then each estimate's gap and σ draws;
    # test episodes 0, 2 and 4 of the pool of 6 are the first estimate's trials 0, 1 and 2
    assert analyze(toy, "--mc-seeds", "2") == 1 + 2 * 2
    each_task_once(pool=6, reused=3, estimates=2)
    for regime in ("deterministic", "gaussian_fixed_var"):
        fewshot = tmp_path / regime
        assert main(["train-fewshot", "--config", str(fewshot_cfg_file),
                     "--set", f'inner.posterior_regime="{regime}"', "--out", str(fewshot)]) == 0
        assert analyze(fewshot) == 1 + 2
        # test episodes 0 and 3 of the pool of 4 are trials 0 and 1
        each_task_once(pool=4, reused=2, estimates=1)


@pytest.mark.parametrize("libc", ["missing", "without mallopt"])
def test_commands_run_where_the_allocator_cannot_be_tuned(tmp_path, toy_cfg_file, monkeypatch,
                                                          libc):
    def run(name):
        out = tmp_path / name
        assert main(["train-toy", "--config", str(toy_cfg_file), "--out", str(out)]) == 0
        return (out / "metrics.csv").read_bytes()

    tuned = [run("first"), run("second")]  # setting the allocator twice is harmless

    def cdll(name, *args, **kwargs):
        if libc == "missing":
            raise OSError(f"{name}: cannot open shared object file")
        return object()

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert run("untuned") == tuned[0] == tuned[1]
