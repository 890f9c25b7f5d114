"""The benchmark's workloads: one ``sgmeta`` CLI command each.

A workload knows how to prepare its inputs for a seed (set-up), which
argument vector it hands to ``sgmeta.cli.main``, its nominal episode count,
and which of its outputs are checked. Sizes are fixed here.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

# Perturbation scale of the synthetic-gradient net's output layer in the
# analysis checkpoint. Freshly built models have xi_w3 = xi_b3 = 0, so every
# inner step would add a zero direction; a seeded perturbation makes the
# adaptation move theta, as a trained checkpoint would.
PERTURB_SCALE = 0.3

ANALYZE_CAP = 500  # cmd_analyze caps both its evaluation pool and gap trials

# Per-seed reference values of the quantities checked after every command.
# A seed without an entry gets only the checks that need no reference.
# Tolerances: reordering a sum or scaling every gradient by 1 + 1e-12 moved
# the trained quantities by about 3e-16 (relative); skipping one inner step
# or scaling one matmul gradient by 0.9 moved them by 3e-4 or more, and
# flipped at least 2 of the 37500 query predictions in fewshot-analyze. So
# continuous quantities must match to 1e-9 relative and accuracies must not
# lose or gain a single prediction (1/37500 = 2.7e-5).
REFERENCES = {
    "toy-train": {0: {"query_mse": 0.13947197676821627,
                      "kl_to_true_posterior": 6.114864360279814}},
    "fewshot-train": {0: {"query_accuracy": 0.7402, "query_loss": 0.6913318834456083}},
    "fewshot-analyze": {0: {"query_accuracy": 0.7314933333333333,
                            "mi_estimate": 6.019974533217088,
                            "gen_gap": -0.0040994352917168705}},
}
TOLERANCE = {
    "query_accuracy": ("abs", 1e-5),
    "query_mse": ("rel", 1e-9),
    "query_loss": ("rel", 1e-9),
    "kl_to_true_posterior": ("rel", 1e-9),
    "mi_estimate": ("rel", 1e-9),
    "gen_gap": ("rel", 1e-9),
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # sgmeta subcommand
    config: str  # repo-relative config file
    settings: dict  # --set overrides (dotted keys)
    trials: int = 0  # analyze only

    def argv(self, seed: int, out: Path, checkpoint: Path | None) -> list:
        argv = [self.command, "--config", self.config, "--seed", str(seed),
                "--out", str(out), "--force"]
        for key, value in self.settings.items():
            argv += ["--set", f"{key}={json.dumps(value)}"]
        if self.command == "analyze":
            argv += ["--checkpoint", str(checkpoint), "--trials", str(self.trials)]
        return argv

    def episodes(self, root: Path) -> int:
        """Nominal episode count: steps x batch_tasks for training, evaluation
        episodes plus gap trials for analysis. Periodic evaluations are not
        counted, though their time is."""
        cfg = _load_config(root / self.config, self.settings)
        if self.command == "train-toy":
            steps = math.ceil(cfg["toy"]["n_train_tasks"] / cfg["batch_tasks"]) * cfg["epochs"]
            return steps * cfg["batch_tasks"]
        if self.command == "train-fewshot":
            return cfg["total_steps"] * cfg["batch_tasks"]
        return min(cfg.get("eval_episodes", 2000), ANALYZE_CAP) + min(self.trials, ANALYZE_CAP)

    def output_files(self) -> tuple:
        """Deterministic files the command writes (summary.json holds wall times)."""
        if self.command == "analyze":
            return ("effective_config.json", "report.csv")
        return ("effective_config.json", "metrics.csv", "checkpoint.json")

    def checked_values(self, out: Path) -> dict:
        """The quantities compared against REFERENCES, at full precision."""
        if self.command == "analyze":
            with open(out / "report.csv", newline="") as fh:
                rows = {r["quantity"]: float(r["value"]) for r in csv.DictReader(fh)}
            return {k: rows[k] for k in ("query_accuracy", "mi_estimate", "gen_gap")}
        with open(out / "summary.json") as fh:
            final = json.load(fh)["final"]
        keys = ("query_mse", "kl_to_true_posterior") if self.command == "train-toy" \
            else ("query_accuracy", "query_loss")
        return {k: float(final[k]) for k in keys}


def _load_config(path: Path, settings: dict) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    for key, value in settings.items():
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return cfg


WORKLOADS = {
    "toy-train": Workload(
        name="toy-train", command="train-toy", config="configs/toy.json",
        settings={"epochs": 4}),
    "fewshot-train": Workload(
        name="fewshot-train", command="train-fewshot", config="configs/fewshot.json",
        settings={"total_steps": 250}),
    "fewshot-analyze": Workload(
        name="fewshot-analyze", command="analyze", config="configs/fewshot.json",
        settings={}, trials=ANALYZE_CAP),
}

# The same commands at a fraction of a second each, for the self-test.
TINY = {
    "toy-train": replace(WORKLOADS["toy-train"], settings={
        "epochs": 1, "toy.n_train_tasks": 16, "toy.n_test_tasks": 16}),
    "fewshot-train": replace(WORKLOADS["fewshot-train"], settings={
        "total_steps": 2, "val_pool_size": 4}),
    "fewshot-analyze": replace(WORKLOADS["fewshot-analyze"], settings={
        "eval_episodes": 4}, trials=4),
}


def make_analysis_checkpoint(root: Path, workload: Workload, seed: int, path: Path) -> None:
    """Untrained few-shot checkpoint with a seeded synthetic-gradient output layer."""
    import numpy as np
    from sgmeta.trainer import build_model, config_from_dict, save_checkpoint

    cfg = config_from_dict(_load_config(root / workload.config, workload.settings))
    cfg.run_seed = seed
    model = build_model(cfg)
    rng = np.random.default_rng([seed, 0x5EED])
    for name in ("xi_w3", "xi_b3"):
        p = model.params[name]
        p.data = p.data + PERTURB_SCALE * rng.normal(size=p.shape)
    save_checkpoint(model, path, cfg, step=0)
