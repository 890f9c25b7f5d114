"""The batched outer step against a per-episode loop.

The reference below is the per-episode formulation: one graph per episode,
one subgraph per Monte-Carlo draw, draws summed in a Python loop. The
batched path stacks the episodes and the draws on leading axes instead; the
two must agree to rounding (1e-12) on per-episode losses, adapted weights
and the gradient of every trainable parameter.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from sgmeta import diffcore as dc
import sgmeta.analysis as analysis
import sgmeta.sibcore as sibcore
import sgmeta.trainer as trainer
from sgmeta.analysis import (
    AdaptedWeights,
    estimate_sigma,
    fewshot_task_sampler,
    gen_gap,
    mi_for_sampler,
    toy_task_sampler,
)
from sgmeta.distributions import (
    DiagGaussian,
    dirac_prior_term,
    kl_diag_gaussian,
    kl_grad_wrt_mean,
    sample_reparam,
)
from sgmeta.models import apply_features, cosine_parts, synth_grad
from sgmeta.sibcore import (
    DETERMINISTIC,
    GAUSSIAN_FIXED_VAR,
    STREAM_INNER,
    STREAM_OBJECTIVE,
    _ssl_projection,
    cosine_vjp,
    cross_entropy,
    forward_chunks,
    orthogonal_transform_labeler,
    prior_dist,
)
from sgmeta.tasks import FewShotConfig, LazySequence, ToyConfig, derive_task_seed, episode_rng
from sgmeta.trainer import (
    build_model,
    default_config,
    episode_for,
    episode_objective,
    evaluate,
    make_theta0,
)

TOL = 1e-12


# -- per-episode reference ----------------------------------------------------------


def ref_draw(theta, cfg, eps):
    if eps is None:
        return theta
    q = DiagGaussian(theta.reshape(theta.size), dc.constant(np.full(theta.size, cfg.q_log_var)))
    return sample_reparam(q, eps).reshape(theta.shape)


def ref_direction(theta, x, model, cfg, eps_list):
    scale = model.params.get("classifier_scale")
    total = None
    for eps in eps_list:
        w = ref_draw(theta, cfg, eps)
        if model.mode == "toy":
            n = x.size
            g = synth_grad(model, (w * x).reshape(n, 1)).reshape(n)
            contrib = ((g * x).sum() if cfg.sum_convention else (g * x).mean()).reshape(1)
        else:
            parts = cosine_parts(x, w, scale)
            g = synth_grad(model, parts[0])
            seed = g if cfg.sum_convention else dc.scale(g, 1.0 / x.shape[0])
            contrib = cosine_vjp(x, w, scale, seed, parts)
        total = contrib if total is None else total + contrib
    return dc.scale(total, 1.0 / len(eps_list))


def ref_unroll(theta0, ep, model, cfg):
    if model.mode == "toy":
        x = dc.constant(ep.query_inputs[:, 0])
    else:
        x = dc.detach(apply_features(model, ep.query_inputs))
    rng = episode_rng(ep.task_seed, stream=STREAM_INNER)
    theta = theta0
    for _ in range(cfg.steps):
        if cfg.posterior_regime == GAUSSIAN_FIXED_VAR and not cfg.inner_eval_at_mean:
            eps_list = [rng.normal(size=theta.size) for _ in range(cfg.mc_samples)]
        else:
            eps_list = [None]
        direction = ref_direction(theta, x, model, cfg, eps_list)
        if cfg.kl_in_inner:
            kl_dir = kl_grad_wrt_mean(theta.reshape(theta.size), prior_dist(model))
            direction = direction + kl_dir.reshape(theta.shape)
        theta = theta - dc.scale(direction, cfg.eta_inner)
    return theta


def ref_prior_term(theta, model, cfg):
    flat = theta.reshape(theta.size)
    if cfg.posterior_regime == GAUSSIAN_FIXED_VAR:
        q = DiagGaussian(flat, dc.constant(np.full(theta.size, cfg.q_log_var)))
        return kl_diag_gaussian(q, prior_dist(model))
    return dirac_prior_term(flat, prior_dist(model))


def ref_data_term(ep, theta, model, cfg, eps_list):
    total = None
    for eps in eps_list:
        w = ref_draw(theta, cfg, eps)
        if model.mode == "toy":
            sq = dc.square(w * dc.constant(ep.query_inputs[:, 0]) - dc.constant(ep.query_labels))
            contrib = sq.sum() if cfg.sum_convention else sq.mean()
        else:
            feats = apply_features(model, ep.query_inputs)
            logits, *_ = cosine_parts(feats, w, model.params["classifier_scale"])
            contrib = cross_entropy(logits, ep.query_labels)
        total = contrib if total is None else total + contrib
    return dc.scale(total, 1.0 / len(eps_list))


def ref_ssl_init(model, ep, cfg):
    feats = dc.detach(apply_features(model, ep.query_inputs)).data
    aug, ssl_labels = orthogonal_transform_labeler(feats)
    theta = model.params["lambda_global"]
    scale = model.params["classifier_scale"]
    aug_t = dc.constant(aug)
    parts = cosine_parts(aug_t, theta, scale)
    proj = dc.constant(_ssl_projection(model.k))
    probs = dc.softmax(dc.matmul(parts[0], proj))
    one_hot = np.zeros((len(ssl_labels), 4))
    one_hot[np.arange(len(ssl_labels)), ssl_labels] = 1.0
    ce_grad = dc.scale(probs - dc.constant(one_hot), 1.0 / len(ssl_labels))
    seed = dc.matmul(ce_grad, dc.transpose(proj))
    return theta - dc.scale(cosine_vjp(aug_t, theta, scale, seed, parts), cfg.inner.eta_inner)


def ref_theta0(model, ep, cfg):
    if cfg.init_kind == "global":
        return model.params["lambda_global"]
    if cfg.init_kind == "proto":
        feats = apply_features(model, ep.support_inputs).data
        means = np.stack([feats[ep.support_labels == c].mean(axis=0) for c in range(model.k)])
        return dc.constant(means) * model.params["lambda_scale"]
    return ref_ssl_init(model, ep, cfg)


def ref_episode_objective(model, ep, cfg):
    klw = cfg.kl_weight
    theta_k = ref_unroll(ref_theta0(model, ep, cfg), ep, model, cfg.inner)
    if cfg.inner.posterior_regime == DETERMINISTIC:
        eps_list = [None]
    else:
        rng = episode_rng(ep.task_seed, stream=STREAM_OBJECTIVE)
        draws = cfg.inner.objective_mc_samples or cfg.inner.mc_samples
        eps_list = [rng.normal(size=theta_k.size) for _ in range(draws)]
    loss = ref_data_term(ep, theta_k, model, cfg.inner, eps_list)
    if klw != 0.0:
        loss = loss + dc.scale(ref_prior_term(theta_k, model, cfg.inner), klw)
    if klw != 1.0:
        frozen = dc.constant(theta_k.data)
        loss = loss + dc.scale(ref_prior_term(frozen, model, cfg.inner), 1.0 - klw)
    return loss, theta_k


# -- cases ------------------------------------------------------------------------------


def toy_case():
    cfg = default_config("toy")  # Gaussian regime, 8 objective draws
    cfg.toy = ToyConfig(n=6, n_train_tasks=8, n_test_tasks=8)
    cfg.inner.q_log_var = 2 * math.log(cfg.toy.sigma_w)
    return cfg


def fewshot_case(**inner):
    cfg = default_config("fewshot")
    cfg.fewshot = FewShotConfig(k=3, n_shot=2, n_query_per_class=4, d_x=6,
                                class_pool={"train": 8, "val": 4, "test": 4})
    for key, value in inner.items():
        setattr(cfg.inner, key, value)
    return cfg


def ssl_case():
    cfg = fewshot_case()
    cfg.theta_init = "ssl"
    return cfg


CASES = {
    "toy-gaussian-8-draws": toy_case,
    "fewshot-proto-deterministic": fewshot_case,
    "fewshot-ssl": ssl_case,
    "fewshot-gaussian-2-draws": lambda: fewshot_case(
        posterior_regime=GAUSSIAN_FIXED_VAR, mc_samples=2, q_log_var=2 * math.log(0.05)),
}


def perturbed_model(cfg, seed=0):
    model = build_model(cfg)
    rng = np.random.default_rng(seed)
    for name in ("xi_w3", "xi_b3", "psi_mean", "psi_log_var"):
        p = model.params[name]
        p.data = p.data + 0.3 * rng.normal(size=p.shape)
    return model


def _grad(t):
    return np.zeros_like(t.data) if t.grad is None else t.grad


def assert_close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=TOL,
                               atol=TOL * max(np.abs(expected).max(), 1e-300))


@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_step_matches_per_episode_loop(case):
    cfg = CASES[case]()
    model = perturbed_model(cfg)
    batch = [episode_for(cfg, "train", i) for i in range(4)]
    trainables = [t for _, t in sorted(model.trainable().items())]

    dc.zero_grad(trainables)
    losses, theta_k = episode_objective(model, batch, cfg)
    dc.backward(dc.scale(losses.sum(), 1.0 / len(batch)))
    grads = [_grad(t).copy() for t in trainables]

    dc.zero_grad(trainables)
    total = None
    ref_losses, ref_thetas = [], []
    for ep in batch:
        loss_ep, theta_ep = ref_episode_objective(model, ep, cfg)
        ref_losses.append(loss_ep.item())
        ref_thetas.append(theta_ep.data)
        total = loss_ep if total is None else total + loss_ep
    dc.backward(dc.scale(total, 1.0 / len(batch)))

    assert losses.shape == (len(batch),)
    assert_close(losses.data, np.array(ref_losses))
    assert_close(theta_k.data, np.stack(ref_thetas))
    ref_grads = [_grad(t) for t in trainables]
    assert sum(np.count_nonzero(g) for g in ref_grads) > 0
    for g, ref in zip(grads, ref_grads):
        assert_close(g, ref)


@pytest.mark.parametrize("case", ["toy-gaussian-8-draws", "fewshot-proto-deterministic",
                                  "fewshot-ssl"])
def test_backward_builds_no_cotangent_for_constants(monkeypatch, case):
    """Every cotangent the backward pass computes lands in a tensor that requires grad."""
    accum = dc._accum
    reached = []

    def checked_accum(t, g):
        assert t.requires_grad, f"cotangent of shape {np.shape(g)} built for a constant"
        reached.append(t)
        accum(t, g)

    cfg = CASES[case]()
    model = perturbed_model(cfg)
    batch = [episode_for(cfg, "train", i) for i in range(2)]
    losses, _ = episode_objective(model, batch, cfg)
    monkeypatch.setattr(dc, "_accum", checked_accum)
    dc.backward(losses.sum())
    assert any(t is model.params["xi_w1"] for t in reached)


# -- forward-only chunks -------------------------------------------------------------


def chunk_episodes(monkeypatch, episodes, n_query):
    """Make forward-only chunks hold ``episodes`` episodes of ``n_query`` points."""
    monkeypatch.setattr(sibcore, "CHUNK_POINTS", episodes * n_query)


@pytest.mark.parametrize("n_query, sizes", [
    (75, [32, 32, 32, 4]),  # few-shot episodes of the reference config
    (32, [75, 25]),  # toy tasks of the reference config
    (5000, [1] * 100),  # an episode larger than a chunk goes alone
])
def test_forward_chunks_size_from_the_first_item_and_read_each_once(n_query, sizes):
    made = []

    def make(i):
        made.append(i)
        return SimpleNamespace(n_query=n_query)

    chunks = list(forward_chunks(LazySequence(sum(sizes), make)))
    assert [len(chunk) for _, chunk in chunks] == sizes
    assert [start for start, _ in chunks] == list(np.cumsum([0] + sizes[:-1]))
    assert made == list(range(sum(sizes)))


def test_evaluation_chunks_do_not_change_per_episode_values(monkeypatch):
    cfg = fewshot_case()
    model = perturbed_model(cfg, seed=1)
    episodes = [episode_for(cfg, "val", i) for i in range(7)]
    n_query = episodes[0].n_query
    chunks = []

    def recording_unroll(theta0, chunk, *args, **kwargs):
        chunks.append(len(chunk))
        return unroll(theta0, chunk, *args, **kwargs)

    unroll = trainer.sib_unroll
    monkeypatch.setattr(trainer, "sib_unroll", recording_unroll)
    chunk_episodes(monkeypatch, 1, n_query)
    one = evaluate(model, cfg, "val", episodes)
    chunk_episodes(monkeypatch, 3, n_query)
    chunked = evaluate(model, cfg, "val", LazySequence(7, lambda i: episode_for(cfg, "val", i)))
    assert chunks == [1] * 7 + [3, 3, 1]
    assert set(chunked.per_episode) == set(one.per_episode)
    for name, values in one.per_episode.items():
        assert_close(chunked.per_episode[name], values)


def test_analysis_chunks_keep_the_per_trial_random_order(monkeypatch):
    cfg = toy_case()
    cfg.inner.inner_eval_at_mean = False  # inner draws too
    model = perturbed_model(cfg, seed=2)
    sampler = toy_task_sampler(cfg.toy, seed=4)

    def gap_and_mi(episodes_per_chunk):
        chunk_episodes(monkeypatch, episodes_per_chunk, cfg.toy.n)
        return (gen_gap(model, sampler, cfg.inner, trials=13, seed=1),
                mi_for_sampler(AdaptedWeights(model, sampler, cfg.inner), episodes=9))

    one, one_mi = gap_and_mi(1)
    for episodes_per_chunk in (4, 5):
        chunked, chunked_mi = gap_and_mi(episodes_per_chunk)
        for field in ("gap", "stderr", "sigma", "mi"):
            assert getattr(chunked, field) == pytest.approx(getattr(one, field), rel=TOL,
                                                            abs=1e-15)
        assert chunked_mi == pytest.approx(one_mi, rel=TOL)


def test_gap_and_sigma_match_per_trial_loop(monkeypatch):
    cfg = toy_case()
    cfg.inner.inner_eval_at_mean = False  # inner draws too
    inner = cfg.inner
    model = perturbed_model(cfg, seed=3)
    sampler = toy_task_sampler(cfg.toy, seed=6)
    trials, seed = 11, 2
    chunk_episodes(monkeypatch, 4, cfg.toy.n)
    est = gen_gap(model, sampler, inner, trials=trials, seed=seed)

    std = math.exp(inner.q_log_var / 2.0)

    def adapted_draw(ep, rng):
        theta = ref_unroll(model.params["lambda_global"], ep, model, inner).data
        return theta + std * rng.normal(size=theta.size)

    def loss(x, y, w):
        return np.mean((w[0] * x[:, 0] - y) ** 2)

    rng = episode_rng(derive_task_seed(seed, "test", 0x6A9), stream=7)
    diffs = []
    for t in range(trials):
        d, fresh = sampler(t)
        w = adapted_draw(d, rng)
        f = fresh()
        diffs.append(loss(f.query_inputs, f.query_labels, w)
                     - loss(d.query_inputs, d.query_labels, w))
    rng = episode_rng(derive_task_seed(seed + 1, "test", 0x51E), stream=9)
    losses = []
    for t in range(trials):
        d_w, d_z = sampler(2 * t)[0], sampler(2 * t + 1)[0]
        w = adapted_draw(d_w, rng)
        i = int(rng.integers(d_z.n_query))
        losses.append(loss(d_z.query_inputs[i:i + 1], d_z.query_labels[i:i + 1], w))
    assert est.gap == pytest.approx(np.mean(diffs), rel=TOL, abs=1e-15)
    assert est.sigma == pytest.approx((max(losses) - min(losses)) / 2.0, rel=TOL)


# -- one table of adapted weights per gap estimate ----------------------------------


def toy_inner_draws_analysis():
    cfg = toy_case()
    cfg.inner.inner_eval_at_mean = False  # inner draws too
    return cfg, toy_task_sampler(cfg.toy, seed=5), None, cfg.toy.n


def fewshot_analysis():
    cfg = fewshot_case()
    return (cfg, fewshot_task_sampler(cfg.fewshot, seed=5),
            lambda frozen, chunk: make_theta0(frozen, chunk, cfg),
            cfg.fewshot.k * cfg.fewshot.n_query_per_class)


ANALYSIS_CASES = {"toy-inner-draws": toy_inner_draws_analysis, "fewshot": fewshot_analysis}


@pytest.mark.parametrize("case", sorted(ANALYSIS_CASES))
def test_adapted_weights_do_not_depend_on_the_chunk_layout(monkeypatch, case):
    cfg, sampler, theta0_fn, n_query = ANALYSIS_CASES[case]()
    model = perturbed_model(cfg, seed=4)
    trials = list(range(17))
    chunk_episodes(monkeypatch, 1, n_query)
    reference = AdaptedWeights(model, sampler, cfg.inner, theta0_fn)(trials)
    for episodes_per_chunk in (2, 5, 17):
        chunk_episodes(monkeypatch, episodes_per_chunk, n_query)
        table = AdaptedWeights(model, sampler, cfg.inner, theta0_fn)
        table(trials[3::4])  # some trials first, in chunks of their own
        assert_close(table(trials), reference)
        assert_close(table(trials[::-1]), reference[::-1])


@pytest.mark.parametrize("case", sorted(ANALYSIS_CASES))
def test_sigma_and_mi_of_a_gap_estimate_match_standalone_calls(monkeypatch, case):
    cfg, sampler, theta0_fn, n_query = ANALYSIS_CASES[case]()
    model = perturbed_model(cfg, seed=5)
    trials, seed = 13, 3
    chunk_episodes(monkeypatch, 4, n_query)
    est = gen_gap(model, sampler, cfg.inner, trials=trials, seed=seed, theta0_fn=theta0_fn)
    sigma = estimate_sigma(AdaptedWeights(model, sampler, cfg.inner, theta0_fn),
                           draws=trials, seed=seed + 1)
    mi = mi_for_sampler(AdaptedWeights(model, sampler, cfg.inner, theta0_fn), episodes=trials)
    assert est.sigma == pytest.approx(sigma, rel=TOL)
    assert est.mi == pytest.approx(mi, rel=TOL)


@pytest.mark.parametrize("trials", [3, 13])
def test_gen_gap_adapts_each_trial_once(monkeypatch, trials):
    cfg, sampler, theta0_fn, n_query = fewshot_analysis()
    model = perturbed_model(cfg, seed=6)
    chunk_episodes(monkeypatch, 4, n_query)
    adapted = []

    def counting_unroll(theta0, episodes, *args, **kwargs):
        adapted.extend(ep.task_seed for ep in episodes)
        return sib_unroll(theta0, episodes, *args, **kwargs)

    sib_unroll = analysis.sib_unroll
    monkeypatch.setattr(analysis, "sib_unroll", counting_unroll)
    gen_gap(model, sampler, cfg.inner, trials=trials, seed=1, theta0_fn=theta0_fn)
    draws = min(trials, 2000)
    # the gap's trials, then the weights trials 2t of sigma it lacks; the
    # mutual-information term's trials are all among the gap's
    expected = trials + len([t for t in range(trials, 2 * draws) if t % 2 == 0])
    assert len(adapted) == expected
    assert len(set(adapted)) == expected
