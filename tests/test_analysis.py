"""Analysis estimators against enumeration, symbolic, and resampling oracles."""

import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sgmeta.analysis as analysis
from sgmeta.analysis import (
    gen_bound,
    gen_gap,
    mi_estimate,
    spearman_rank_correlation,
    toy_task_sampler,
    vary_n_sweep,
    write_report_csv,
)
from sgmeta.distributions import DiagGaussian, Deterministic, GaussianFixedVar
from sgmeta.models import build_toy_model, frozen_copy
from sgmeta.sibcore import InnerLoopConfig, sib_unroll
from sgmeta import sibcore
from sgmeta import diffcore as dc
from sgmeta.tasks import (
    Episode,
    FewShotConfig,
    ToyConfig,
    derive_task_seed,
    episode_rng,
    gen_spinning_lines,
    true_posterior,
)
from sgmeta.trainer import build_model, default_config, episodes_for, evaluate, make_theta0
from ib_decomposition import DiscreteInstance, ib_decomposition_check, random_instance
from test_fused import kl_diag_gaussian


TOY = ToyConfig()
# the toy run's θ₀ rule: the global initialization, one row per episode
TOY_THETA0 = functools.partial(make_theta0, cfg=default_config("toy"))


def episodes(n, seed=0):
    return gen_spinning_lines(TOY, [derive_task_seed(seed, "test", i) for i in range(n)])


def oracle_posterior_model(lam=0.0):
    """Model whose unrolled update is the identity (zero synthetic net)."""
    model = build_toy_model(seed=0)
    model.params["lambda_global"].data[:] = lam
    return model


def toy_inner(**kw):
    base = dict(steps=3, eta_inner=1e-3, sum_convention=True,
                posterior=GaussianFixedVar(log_var=2 * math.log(TOY.sigma_w), inner_draws=0))
    base.update(kw)
    return InnerLoopConfig(**base)


def mi_of(model, eps, inner):
    """``mi_estimate`` of the weights adapted on a batch of episodes."""
    frozen = frozen_copy(model)
    theta_k, _ = sib_unroll(TOY_THETA0(frozen, eps), eps, frozen, inner)
    return mi_estimate(model, theta_k.data, inner)


def kl_to_true_posterior(model, eps, inner):
    """Mean exact KL to the closed-form posterior, as ``evaluate`` reports it."""
    cfg = dataclasses.replace(default_config("toy"), toy=TOY, inner=inner)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a single episode has a degenerate interval
        return evaluate(model, cfg, "test", eps).row.kl_to_true_posterior


def test_kl_to_true_posterior_zero_for_exact_match():
    # identity update from lambda, and lambda forced to each episode's target
    model = oracle_posterior_model()
    inner = toy_inner(steps=0)
    eps = episodes(5)
    for b in range(len(eps)):
        ep = eps.take([b])
        model.params["lambda_global"].data[:] = ep.query_inputs.mean() + TOY.mu_w
        assert kl_to_true_posterior(model, ep, inner) == pytest.approx(0.0, abs=1e-12)


def test_kl_to_true_posterior_untrained_matches_closed_form():
    # zero-output synthetic net: q stays at N(lambda, sigma_w^2)
    model = oracle_posterior_model(lam=0.0)
    inner = toy_inner()
    eps = episodes(200, seed=3)
    measured = kl_to_true_posterior(model, eps, inner)
    expected = np.mean([
        kl_diag_gaussian(
            DiagGaussian(np.zeros(1), np.full(1, 2 * math.log(TOY.sigma_w))),
            true_posterior(eps.take([b]), TOY),
        ).data[0]
        for b in range(len(eps))
    ])
    assert measured == pytest.approx(expected, rel=1e-12)


def test_kl_to_true_posterior_requires_toy_mode():
    # the closed-form posterior exists only for the toy regression
    cfg = dataclasses.replace(default_config("fewshot"), fewshot=FewShotConfig(
        k=2, d_x=3, n_query_per_class=2, class_pool={"train": 4, "val": 2, "test": 2}))
    pool = episodes_for(cfg, "test", range(2))
    report = evaluate(build_model(cfg), cfg, "test", pool)
    assert report.row.kl_to_true_posterior is None
    assert "kl_to_true_posterior" not in report.per_episode


def test_mi_estimate_zero_when_posterior_equals_prior():
    model = oracle_posterior_model(lam=0.7)
    model.params["psi_mean"].data[:] = 0.7
    model.params["psi_log_var"].data[:] = 2 * math.log(TOY.sigma_w)
    value = mi_of(model, episodes(20), toy_inner(steps=0))
    assert value == pytest.approx(0.0, abs=1e-12)


def test_mi_estimate_nonnegative():
    model = oracle_posterior_model(lam=0.2)
    assert mi_of(model, episodes(50, seed=9), toy_inner()) >= 0.0


def test_ib_decomposition_residual_small_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(100):
        t, d, w = rng.integers(2, 9, size=3)
        inst = random_instance(rng, int(t), int(d), int(w))
        report = ib_decomposition_check(inst, tol=1e-9)
        assert abs(report.residual) < 1e-9
        assert report.bound_satisfied


def test_ib_decomposition_tight_when_posterior_ignores_data():
    # q(w | d, t) independent of d and p(w) equal to the aggregated posterior:
    # the mutual-information term vanishes and the prior KL term is zero.
    rng = np.random.default_rng(1)
    t_n, d_n, w_n = 2, 3, 4
    base = random_instance(rng, t_n, d_n, w_n)
    shared = base.q_w_given_dt[:, 0:1, :].repeat(d_n, axis=1)
    # same conditional for every t so the aggregated posterior matches one p(w)
    shared[1] = shared[0]
    inst = DiscreteInstance(
        q_t=base.q_t,
        q_d_given_t=base.q_d_given_t,
        q_w_given_dt=shared,
        p_w=shared[0, 0],
        p_d_given_wt=base.p_d_given_wt,
    )
    report = ib_decomposition_check(inst)
    assert report.mi_term == pytest.approx(0.0, abs=1e-12)
    assert report.prior_kl_term == pytest.approx(0.0, abs=1e-12)


def test_ib_equality_condition_with_matched_likelihood():
    # p(d | w, t) set to q(d | w, t) makes the bound tight up to the prior KL.
    rng = np.random.default_rng(7)
    inst = random_instance(rng, 2, 3, 4)
    joint = inst.q_t[:, None, None] * inst.q_d_given_t[:, :, None] * inst.q_w_given_dt
    q_w_t = (inst.q_d_given_t[:, :, None] * inst.q_w_given_dt).sum(axis=1)
    cond = joint / (inst.q_t[:, None, None] * q_w_t[:, None, :])
    q_d_wt = np.transpose(cond, (0, 2, 1))  # (T, W, D)
    matched = DiscreteInstance(
        q_t=inst.q_t,
        q_d_given_t=inst.q_d_given_t,
        q_w_given_dt=inst.q_w_given_dt,
        p_w=inst.p_w,
        p_d_given_wt=q_d_wt,
    )
    report = ib_decomposition_check(matched)
    # objective == lower bound + prior KL term exactly
    assert report.objective - report.lower_bound == pytest.approx(
        report.prior_kl_term, abs=1e-10
    )


def test_instance_validation():
    rng = np.random.default_rng(0)
    inst = random_instance(rng, 2, 2, 2)
    bad = inst.q_d_given_t.copy()
    bad[0, 0] += 0.1
    with pytest.raises(ValueError, match="sum to 1"):
        DiscreteInstance(inst.q_t, bad, inst.q_w_given_dt, inst.p_w, inst.p_d_given_wt)
    with pytest.raises(ValueError, match="capped"):
        random_instance(rng, 17, 2, 2)


def test_gen_bound_values_and_errors():
    assert gen_bound(1.0, 32, 0.0) == 0.0
    assert gen_bound(1.0, 32, 0.16) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        gen_bound(1.0, 32, -0.1)
    with pytest.raises(ValueError):
        gen_bound(0.0, 32, 0.1)


@settings(max_examples=50, deadline=None)
@given(
    sigma=st.floats(0.01, 10.0),
    n=st.integers(1, 1000),
    mi=st.floats(0.0, 50.0),
)
def test_gen_bound_monotonicity(sigma, n, mi):
    base = gen_bound(sigma, n, mi)
    assert gen_bound(sigma, n + 1, mi) <= base
    assert gen_bound(sigma, n, mi + 0.5) >= base


def test_gen_gap_zero_for_constant_predictor():
    # zero synthetic net and fixed global init: weights ignore the dataset
    model = oracle_posterior_model(lam=0.9)
    inner = toy_inner(posterior=Deterministic())
    sampler = toy_task_sampler(TOY, seed=5)
    est = gen_gap(model, sampler, inner, trials=400, seed=2, theta0_fn=TOY_THETA0)
    assert abs(est.gap) <= 3 * est.stderr + 1e-9


def test_gen_gap_oracle_posterior_matches_symbolic_value():
    """theta^K set to the exact posterior mean via a stub unroll.

    Symbolically, with w ~ N(m_post, s_w^2), loss(w, d) averages
    (w - w_d)^2 x^2; on the adapted-on dataset E = 2 s_w^2 E[x^2]-ish while
    fresh datasets add the variance of the input means. The exact value:
      E on d      = (s_w^2 + s_w^2) * E_d[mean x^2]          (w - w_d = s_w eps - (e_w - mu_w))
      E on fresh  = (2 s_w^2 + 2 sigma^2/n) * E[mean x'^2]   (plus mean-difference term)
    computed here by a high-precision Monte-Carlo oracle instead.
    """
    rng = np.random.default_rng(0)
    n, reps = TOY.n, 300_000
    # oracle: direct simulation of the generative process with w ~ posterior
    m = rng.normal(0.0, 1.0, size=(reps, n))
    m_d = m.mean(axis=1)
    e_w = rng.normal(TOY.mu_w, TOY.sigma_w, size=reps)
    w_d = m_d + e_w
    w = m_d + TOY.mu_w + TOY.sigma_w * rng.normal(size=reps)
    on_d = ((w - w_d) ** 2)[:, None] * m**2
    x2 = rng.normal(0.0, 1.0, size=(reps, n))
    m2_d = x2.mean(axis=1)
    w2_d = m2_d + rng.normal(TOY.mu_w, TOY.sigma_w, size=reps)
    on_fresh = ((w - w2_d) ** 2)[:, None] * x2**2
    oracle_gap = on_fresh.mean() - on_d.mean()
    oracle_se = (on_fresh.mean(axis=1) - on_d.mean(axis=1)).std(ddof=1) / math.sqrt(reps)

    model = oracle_posterior_model()
    inner = toy_inner(steps=0)

    def posterior_means(frozen, chunk):
        from sgmeta import diffcore as dc

        return dc.constant(np.array([[x.mean() + TOY.mu_w] for x in chunk.query_inputs]))

    est = gen_gap(model, toy_task_sampler(TOY, seed=11), inner, trials=3000,
                  seed=3, theta0_fn=posterior_means)
    assert abs(est.gap - oracle_gap) < 3 * (est.stderr + oracle_se)


def test_gen_gap_stderr_scales_with_trials():
    model = oracle_posterior_model(lam=0.5)
    inner = toy_inner()
    small, large = (gen_gap(model, toy_task_sampler(TOY, seed=21), inner, trials=trials, seed=4,
                            theta0_fn=TOY_THETA0) for trials in (200, 800))
    ratio = small.stderr / large.stderr
    assert 1.4 < ratio < 2.9  # ~2 expected from 4x trials


def toy_gap_estimate(trials, on_chunk=None):
    """The gap estimate of a toy Gaussian sampler with inner draws."""
    cfg = default_config("toy")
    cfg.toy = ToyConfig(n=6, n_train_tasks=8, n_test_tasks=8)
    cfg.inner.posterior.log_var = 2 * math.log(cfg.toy.sigma_w)
    cfg.inner.posterior.inner_draws = 1
    model = build_model(cfg)
    g = np.random.default_rng(3)
    for name in ("xi_w3", "xi_b3", "xi_b1", "xi_b2"):
        model.params[name].data[:] = g.normal(size=model.params[name].shape) * 0.5
    est = gen_gap(model, toy_task_sampler(cfg.toy, seed=4), cfg.inner, trials=trials, seed=2,
                  theta0_fn=functools.partial(make_theta0, cfg=cfg), on_chunk=on_chunk)
    return dataclasses.asdict(est)


def test_gen_gap_is_bitwise_the_per_trial_draw_formulas():
    """The estimate, bit for bit. The gap, its stderr and the
    mutual-information term are the values recorded when the gap drew each
    trial's weights as ``theta + math.exp(log_var / 2) * rng.normal(size)``,
    before the posterior section's ``draw`` took the draw over. σ is a loop of the same
    formulas over the gap's adapted slopes: draw t adds ``std * noise`` to
    trial t's slope and takes a point of trial (t + 1) mod T."""
    trials, n, std = 37, 6, math.exp(2 * math.log(TOY.sigma_w) / 2)
    chunks = []
    est = toy_gap_estimate(trials, on_chunk=lambda idx, datasets, theta_k: chunks.append(
        (datasets.query_inputs[..., 0], datasets.query_labels, theta_k[:, 0])))
    x, y, slope = (np.concatenate(a) for a in zip(*chunks))
    rng = episode_rng(derive_task_seed(3, "test", 0x51E), stream=9)
    losses = []
    for t in range(trials):
        w = slope[t] + std * rng.normal(size=1)[0]
        i, s = int(rng.integers(n)), (t + 1) % trials
        losses.append((w * x[s, i] - y[s, i]) ** 2)
    sigma = (max(losses) - min(losses)) / 2.0
    mi = 2.108854460879188
    assert est == {
        "gap": 0.4100809932220589, "stderr": 0.2591901861661375, "trials": trials,
        "sigma": sigma, "bound": gen_bound(sigma, n, mi), "mi": mi, "n": n}


@pytest.mark.parametrize("trials, gap, stderr", [
    (2101, 0.36574956988222734, 0.10459353228881384),  # trial 0's point is not read
    (4001, 0.381531711691207, 0.0620666938774358),
], ids=["2101", "4001"])
def test_gen_gap_beyond_the_sigma_draw_cap_is_bitwise_the_recorded_estimate(trials, gap,
                                                                            stderr):
    """σ makes at most 2000 draws, which read trials 0 .. 2000 alike at both
    sizes, and the mutual-information term reads 200 trials. The gap and the
    mutual-information term were recorded when σ read its weights from a
    table of adapted weights by trial and generated the trials it lacked
    itself; σ and the bound when it first paired each trial with the next."""
    assert toy_gap_estimate(trials) == {
        "gap": gap, "stderr": stderr, "trials": trials, "sigma": 22.471248731369514,
        "bound": 19.792235168141115, "mi": 2.3273222736998607, "n": 6}


def test_gen_gap_needs_two_trials():
    with pytest.raises(ValueError, match="trials"):
        gen_gap(oracle_posterior_model(), toy_task_sampler(TOY, seed=1), toy_inner(), trials=1,
                theta0_fn=TOY_THETA0)


@pytest.mark.parametrize("trials", [2, 3, 2101])
def test_no_sigma_draw_reads_the_weights_and_the_point_of_one_trial(monkeypatch, trials):
    """Every trial's query inputs and (unadapted, point-mass) slope are its
    trial number, so each loss σ computes shows which trial's slope met
    which trial's point: draw t pairs trial t with trial (t + 1) mod T."""
    n = 3

    def make(task_seeds):
        inputs = np.repeat(np.asarray(task_seeds, dtype=float), n).reshape(-1, n, 1)
        return Episode(inputs, np.zeros(inputs.shape[:2]), task_seed=tuple(task_seeds))

    sampler = analysis.TaskSampler(n, list, make, lambda datasets, trials: datasets)
    pairs = []

    def recording_losses(model, inputs, labels, w):
        if inputs.shape[1] == 1:  # σ's one point per draw
            pairs.extend(zip(w[:, 0], inputs[:, 0, 0]))
        return losses(model, inputs, labels, w)

    losses = analysis._losses
    theta0 = lambda frozen, chunk: dc.constant(  # noqa: E731
        np.asarray(chunk.task_seed, dtype=float)[:, None])
    monkeypatch.setattr(analysis, "_losses", recording_losses)
    gen_gap(oracle_posterior_model(), sampler,
            toy_inner(steps=0, posterior=Deterministic()), trials=trials, theta0_fn=theta0)
    assert pairs == [(t, (t + 1) % trials) for t in range(min(trials, 2000))]
    assert all(weights_trial != point_trial for weights_trial, point_trial in pairs)


def test_trial_parts_split_each_chunk_where_held_runs_start_or_end():
    """Four trials to a chunk; the parts cover every trial once, in order,
    none crossing a chunk boundary or mixing held and unheld trials."""
    seeds = [100 + t for t in range(11)]
    held = {101, 102, 103, 104, 108}  # only ``in`` is asked of ``held``
    n_query = sibcore.CHUNK_POINTS // 4
    assert list(analysis._trial_parts(seeds, n_query, held)) == [
        (range(0, 1), False), (range(1, 4), True),
        (range(4, 5), True), (range(5, 8), False),
        (range(8, 9), True), (range(9, 11), False)]
    assert list(analysis._trial_parts(seeds, n_query, set())) == [
        (range(0, 4), False), (range(4, 8), False), (range(8, 11), False)]
    assert list(analysis._trial_parts([], n_query, held)) == []


def test_sigma_estimator_positive_and_stable():
    model = oracle_posterior_model(lam=0.5)
    sigma, sigma2 = (gen_gap(model, toy_task_sampler(TOY, seed=31), toy_inner(), trials=500,
                             seed=0, theta0_fn=TOY_THETA0).sigma for _ in range(2))
    assert sigma > 0
    assert sigma == sigma2


def test_vary_n_sweep_runs_and_reports(tmp_path):
    model = oracle_posterior_model(lam=0.5)
    inner = toy_inner()
    rows = vary_n_sweep(model, TOY, inner, n_values=[1, 4, 8], trials=60, seed=0,
                        theta0_fn=TOY_THETA0)
    assert [r.n for r in rows] == [1, 4, 8]
    assert all(np.isfinite([r.gap, r.bound, r.metric]).all() for r in rows)
    write_report_csv(tmp_path / "sweep.csv", [(f"gap_n{r.n}", r.gap, r.stderr) for r in rows])
    text = (tmp_path / "sweep.csv").read_text().splitlines()
    assert text[0] == "quantity,value,stderr"
    assert len(text) == 4


def test_vary_n_sweep_generates_each_dataset_once(monkeypatch):
    seeds = []

    def counting(cfg, task_seeds, n=None):
        seeds.extend(task_seeds)
        return generate(cfg, task_seeds, n=n)

    generate = analysis.gen_spinning_lines
    monkeypatch.setattr(analysis, "gen_spinning_lines", counting)
    trials = 30
    vary_n_sweep(oracle_posterior_model(lam=0.5), TOY, toy_inner(), n_values=[4, 8],
                 trials=trials, seed=0, theta0_fn=TOY_THETA0)
    # per size: the gap's datasets and their fresh draws; σ and the metric
    # read the gap's datasets while they are alive
    assert len(seeds) == len(set(seeds)) == 2 * 2 * trials


def test_vary_n_sweep_requires_values():
    model = oracle_posterior_model()
    with pytest.raises(ValueError):
        vary_n_sweep(model, TOY, toy_inner(), n_values=[], theta0_fn=TOY_THETA0)


def test_spearman_rank_correlation():
    assert spearman_rank_correlation([1, 2, 3, 4], [2, 4, 6, 8]) == pytest.approx(1.0)
    assert spearman_rank_correlation([1, 2, 3, 4], [8, 6, 4, 2]) == pytest.approx(-1.0)
    assert abs(spearman_rank_correlation([1, 2, 3, 4], [1, 3, 2, 4])) < 1.0
