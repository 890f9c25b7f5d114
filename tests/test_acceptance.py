"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line with the measured values (visible with
``pytest -s`` or in the captured-output section on failure). The two
reference models are trained once per session at their documented default
configurations.
"""

import dataclasses
import functools
import json
import time

import numpy as np
import pytest

from sgmeta.analysis import (
    gen_gap,
    spearman_rank_correlation,
    toy_task_sampler,
    vary_n_sweep,
)
from sgmeta.cli import main as cli_main
from sgmeta.sibcore import maml_inner, sib_unroll
from sgmeta.tasks import derive_task_seed, gen_spinning_lines
from sgmeta.trainer import default_config, episodes_for, evaluate, make_theta0, train
from ib_decomposition import ib_decomposition_check, random_instance


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


@pytest.fixture(scope="module")
def toy_run():
    cfg = default_config("toy")
    start = time.perf_counter()
    result = train(cfg)
    elapsed = time.perf_counter() - start
    return cfg, result, elapsed


@pytest.fixture(scope="module")
def fewshot_run():
    cfg = default_config("fewshot")
    start = time.perf_counter()
    result = train(cfg)
    elapsed = time.perf_counter() - start
    return cfg, result, elapsed


def test_criterion_1_gradient_integrity(capsys):
    start = time.perf_counter()
    rc = cli_main(["gradcheck"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert rc == 0, f"gradcheck failed:\n{out}"
    assert "all gradient checks passed" in out.splitlines()
    assert elapsed < 30.0, f"gradcheck took {elapsed:.1f}s (budget 30s)"
    report("1 (gradient integrity)", f"all finite-difference checks passed in {elapsed:.1f}s")


def test_criterion_2_toy_reproduction(toy_run):
    cfg, result, elapsed = toy_run
    assert elapsed < 300.0, f"toy training took {elapsed:.0f}s (budget 300s)"
    row = result.final_eval.row
    assert row.kl_to_true_posterior < 0.05, (
        f"E KL(q || true posterior) = {row.kl_to_true_posterior:.4f} >= 0.05"
    )
    assert row.prior_kl_to_true < 0.05, (
        f"KL(prior || true prior) = {row.prior_kl_to_true:.4f} >= 0.05"
    )
    pool = gen_spinning_lines(
        cfg.toy, [derive_task_seed(cfg.run_seed, "test", i) for i in range(cfg.toy.n_test_tasks)])
    k0 = dataclasses.replace(cfg.inner, steps=0)
    base = evaluate(result.model, dataclasses.replace(cfg, inner=k0), "test", pool)
    ratio = row.query_mse / base.row.query_mse
    assert ratio < 0.25, f"MSE ratio K3/K0 = {ratio:.3f} >= 0.25"
    # the posterior divergence trends down over training epochs (a plateau
    # at the floor is fine; early must dominate late)
    series = np.array([r[3] for r in result.records if r[2] == "kl_to_true_posterior"])
    rho = spearman_rank_correlation(range(len(series)), series)
    quarter = len(series) // 4
    assert rho < -0.5 and series[-quarter:].mean() < 0.25 * series[:quarter].mean(), (
        f"posterior KL is not decreasing over epochs (spearman {rho:+.2f}, "
        f"first/last quarter means {series[:quarter].mean():.3f}/{series[-quarter:].mean():.3f})"
    )
    report(
        "2 (toy reproduction)",
        f"kl_post={row.kl_to_true_posterior:.4f}, kl_prior={row.prior_kl_to_true:.5f}, "
        f"mse K3/K0 = {row.query_mse:.5f}/{base.row.query_mse:.5f} = {ratio:.3f}, "
        f"epoch trend spearman {rho:+.2f}, trained in {elapsed:.0f}s",
    )


def test_criterion_3_trajectory_descent(toy_run):
    cfg, result, _ = toy_run
    episodes = gen_spinning_lines(cfg.toy,
                                  [derive_task_seed(cfg.run_seed, "test", i) for i in range(200)])
    w = episodes.truth
    theta0 = make_theta0(result.model, episodes, cfg)
    _, thetas = sib_unroll(theta0, episodes, result.model, cfg.inner)
    dists = np.array([np.abs(theta.data[:, 0] - w).mean() for theta in thetas])
    assert np.all(np.diff(dists) < 0), f"mean |theta_k - w| not strictly decreasing: {dists}"
    report(
        "3 (trajectory descent)",
        "mean |theta_k - w| = " + " > ".join(f"{d:.4f}" for d in dists),
    )


def test_criterion_4_decomposition_identity():
    rng = np.random.default_rng(20240917)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        t, d, w = rng.integers(2, 9, size=3)
        rep = ib_decomposition_check(random_instance(rng, int(t), int(d), int(w)), tol=1e-9)
        worst = max(worst, abs(rep.residual))
        assert rep.bound_satisfied
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"decomposition check took {elapsed:.1f}s (budget 10s)"
    report(
        "4 (decomposition identity)",
        f"100 instances, max |residual| = {worst:.2e} < 1e-9, bound held, {elapsed:.1f}s",
    )


def test_criterion_5_generalization_bound(toy_run):
    cfg, result, _ = toy_run
    margins = []
    for s in range(10):
        sampler = toy_task_sampler(cfg.toy, seed=1000 + s)
        est = gen_gap(result.model, sampler, cfg.inner, trials=2000, seed=2000 + s,
                      theta0_fn=functools.partial(make_theta0, cfg=cfg))
        assert abs(est.gap) <= est.bound + 3 * est.stderr, (
            f"seed {s}: |gap| {abs(est.gap):.4f} exceeds bound {est.bound:.4f} "
            f"+ 3*stderr {3 * est.stderr:.4f}"
        )
        margins.append(est.bound + 3 * est.stderr - abs(est.gap))
    report(
        "5 (generalization bound)",
        f"bound held on 10 seeds x 2000 trials; min margin {min(margins):.4f} nats-of-loss",
    )


def test_criterion_6_adaptation_gain(fewshot_run):
    cfg, result, elapsed = fewshot_run
    model = result.model
    test_eps = episodes_for(cfg, "test", range(2000))
    start = time.perf_counter()
    rep3 = evaluate(model, cfg, "test", test_eps)
    rep0 = evaluate(model, dataclasses.replace(cfg, inner=dataclasses.replace(cfg.inner, steps=0)),
                    "test", test_eps)
    eval_elapsed = time.perf_counter() - start
    total = elapsed + eval_elapsed
    delta = rep3.row.query_accuracy - rep0.row.query_accuracy
    assert delta >= 0.02, (
        f"K=3 accuracy {rep3.row.query_accuracy:.4f} is not 2 points above "
        f"K=0 accuracy {rep0.row.query_accuracy:.4f}"
    )
    assert total < 600.0, f"benchmark took {total:.0f}s (budget 600s)"
    test_criterion_6_adaptation_gain.delta = delta
    test_criterion_6_adaptation_gain.acc0 = rep0.row.query_accuracy
    report(
        "6 (adaptation gain)",
        f"K=3 acc {rep3.row.query_accuracy:.4f} ± {rep3.ci95['query_accuracy']:.4f} vs "
        f"K=0 acc {rep0.row.query_accuracy:.4f} ± {rep0.ci95['query_accuracy']:.4f} "
        f"(delta +{delta:.4f}), {total:.0f}s",
    )


def test_criterion_7_inductive_variant_report(fewshot_run):
    cfg, result, _ = fewshot_run
    model = result.model
    episodes = episodes_for(cfg, "test", range(500))
    theta_k = maml_inner(make_theta0(model, episodes, cfg), episodes, model, cfg.inner)
    metrics = model.head.episode_metrics(episodes, theta_k, cfg, cfg.inner)
    acc_inductive = float(np.mean(metrics["query_accuracy"]))
    acc0 = getattr(test_criterion_6_adaptation_gain, "acc0", None)
    delta6 = getattr(test_criterion_6_adaptation_gain, "delta", None)
    assert np.isfinite(acc_inductive)
    delta_txt = (
        f"inductive delta vs K=0: {acc_inductive - acc0:+.4f} "
        f"(transductive delta was {delta6:+.4f})"
        if acc0 is not None
        else "criterion 6 ran separately"
    )
    report(
        "7 (inductive variant, report only)",
        f"support-gradient baseline acc {acc_inductive:.4f} on 500 episodes; {delta_txt}",
    )


def test_criterion_8_query_size_trend(toy_run):
    cfg, result, _ = toy_run
    rhos = []
    for s in range(5):
        rows = vary_n_sweep(result.model, cfg.toy, cfg.inner, [4, 8, 16, 32],
                            trials=1000, seed=777 + s,
                            theta0_fn=functools.partial(make_theta0, cfg=cfg))
        rho = spearman_rank_correlation([r.n for r in rows], [abs(r.gap) for r in rows])
        rhos.append(rho)
        assert rho < 0, (
            f"seed {s}: spearman(|gap|, n) = {rho:+.2f} is not negative "
            f"(gaps: {[round(r.gap, 4) for r in rows]})"
        )
    report(
        "8 (query-size trend)",
        "spearman(|gap|, n) per seed: " + ", ".join(f"{r:+.2f}" for r in rhos),
    )


def test_criterion_9_transduction_purity(fewshot_run):
    cfg, result, _ = fewshot_run
    model = result.model
    rng = np.random.default_rng(99)
    episodes = episodes_for(cfg, "test", range(10_000, 10_100))
    theta0 = make_theta0(model, episodes, cfg)
    ref, _ = sib_unroll(theta0, episodes, model, cfg.inner)
    permuted, randomized = [], []
    for labels in episodes.query_labels:
        permuted.append(rng.permutation(labels))
        randomized.append(rng.integers(0, cfg.fewshot.k, size=episodes.n_query))
    for labels in (permuted, randomized):
        mutated = dataclasses.replace(episodes, query_labels=np.stack(labels))
        out, _ = sib_unroll(theta0, mutated, model, cfg.inner)
        changed = np.nonzero((ref.data != out.data).any(axis=(1, 2)))[0]
        assert changed.size == 0, (
            f"episodes {changed.tolist()}: adapted weights changed under label modification"
        )
    report("9 (transduction purity)", "theta_K bitwise invariant on 100 episodes "
           "under permuted and randomized query labels")


def test_criterion_10_cli_determinism(tmp_path):
    toy_cfg = {
        "mode": "toy",
        "epochs": 2,
        "batch_tasks": 4,
        "toy": {"n": 8, "n_train_tasks": 8, "n_test_tasks": 6},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(toy_cfg))
    pairs = []
    for tag in ("a", "b"):
        run_dir = tmp_path / f"run_{tag}"
        assert cli_main(["train-toy", "--config", str(cfg_path), "--out", str(run_dir)]) == 0
        ck = run_dir / "checkpoint.json"
        eval_dir = tmp_path / f"eval_{tag}"
        with pytest.warns(UserWarning, match="eval_episodes: 2000 in the checkpoint, 4 now"):
            assert cli_main([
                "eval", "--config", str(run_dir / "effective_config.json"),
                "--checkpoint", str(ck), "--split", "test", "--set", "eval_episodes=4",
                "--out", str(eval_dir),
            ]) == 0
        an_dir = tmp_path / f"an_{tag}"
        assert cli_main([
            "analyze", "--config", str(run_dir / "effective_config.json"),
            "--checkpoint", str(ck), "--trials", "25", "--out", str(an_dir),
        ]) == 0
        sw_dir = tmp_path / f"sw_{tag}"
        assert cli_main([
            "sweep-n", "--config", str(run_dir / "effective_config.json"),
            "--checkpoint", str(ck), "--n-values", "2,4", "--trials", "20",
            "--out", str(sw_dir),
        ]) == 0
        pairs.append({
            "train_metrics": (run_dir / "metrics.csv").read_bytes(),
            "train_checkpoint": ck.read_bytes(),
            "eval_metrics": (eval_dir / "metrics.csv").read_bytes(),
            "analyze_report": (an_dir / "report.csv").read_bytes(),
            "sweep_report": (sw_dir / "report.csv").read_bytes(),
        })
    for key in pairs[0]:
        assert pairs[0][key] == pairs[1][key], f"{key} differs between identical runs"
    report("10 (determinism)", "train/eval/analyze/sweep outputs byte-identical across reruns")
