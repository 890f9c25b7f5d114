"""The benchmark's hooks into the program.

``bench/tracer.py`` wraps program functions by name, reads a few of their
arguments and writes each call's episode task seeds as JSON. A renamed
function, a moved argument or a seed JSON cannot write would otherwise fail
only a traced benchmark run. These tests read ``bench/`` and change nothing
there; they run its tiny workloads in process, under the tracer.
"""

import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from sgmeta import analysis, cli, trainer
from sgmeta.tasks import (
    FewShotConfig,
    ToyConfig,
    derive_task_seed,
    gen_fewshot_episode,
    gen_spinning_lines,
    resample_query_set,
)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no bench/__pycache__
try:
    import tracer
    import workloads
finally:
    sys.dont_write_bytecode = _write_bytecode

WORKLOADS = sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_wrap_target_resolves_and_is_restored(name):
    originals = (trainer.evaluate, analysis.gen_gap, trainer.gen_fewshot_episode)
    t = tracer.Tracer(name)
    try:
        t.install()  # raises on a target that does not resolve
        assert trainer.evaluate is not originals[0]
    finally:
        t.uninstall()
    assert (trainer.evaluate, analysis.gen_gap, trainer.gen_fewshot_episode) == originals


def test_the_arguments_the_tracer_reads_are_where_it_reads_them():
    assert list(inspect.signature(trainer.evaluate).parameters)[3] == "episodes"
    assert list(inspect.signature(analysis.gen_gap).parameters)[3] == "trials"
    gens = {target for target, kind, _ in tracer.TARGETS if kind == "gen"}
    assert gens == {"sgmeta.tasks.gen_spinning_lines", "sgmeta.tasks.gen_fewshot_episode",
                    "sgmeta.tasks.resample_query_set"}


def test_every_generator_writes_its_task_seeds_as_json():
    task_seeds = [derive_task_seed(3, "test", i) for i in range(3)]
    cfg = FewShotConfig(k=3, n_shot=1, n_query_per_class=2, d_x=4)
    fewshot = gen_fewshot_episode(cfg, "test", task_seeds)
    batches = (gen_spinning_lines(ToyConfig(n=4), task_seeds), fewshot,
               resample_query_set(fewshot, cfg, [seed + 1 for seed in task_seeds]))
    for episodes in batches:
        assert json.loads(json.dumps(["episode", episodes.task_seed]))[1] == list(
            episodes.task_seed)
    with pytest.raises(TypeError):  # what a seed held as a numpy integer would do
        json.dumps(["episode", (np.uint64(task_seeds[0]),)])


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_workload_calls_every_target_it_must(name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # workload configs are repository-relative
    workload = workloads.TINY[name]
    checkpoint = tmp_path / "checkpoint.json"
    if workload.command == "analyze":
        workloads.make_analysis_checkpoint(ROOT, workload, 7, checkpoint)
    t = tracer.Tracer(name)
    t.install()
    try:
        assert cli.main(workload.argv(7, tmp_path / "out", checkpoint)) == 0
    finally:
        t.uninstall()
    t.check_coverage()
    t.write(tmp_path / "spans.jsonl")  # every tag, task seeds included, is JSON
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    units = {}
    for span in spans:
        units.setdefault(span["name"], []).append(span["units"])
    assert all(n >= 1 for n in units["sgmeta.trainer.evaluate"])
    if workload.command == "analyze":
        assert units["sgmeta.analysis.gen_gap"] == [workload.trials]
    metrics = t.metrics()
    assert metrics["tasks.episodes_generated"] >= 1 and metrics["sibcore.unrolls"] >= 1
