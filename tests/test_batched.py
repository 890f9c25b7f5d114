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
from sgmeta.analysis import fewshot_task_sampler, gen_gap, toy_task_sampler
from sgmeta.distributions import DiagGaussian
from sgmeta.models import apply_features
from sgmeta.sibcore import (
    DETERMINISTIC,
    GAUSSIAN_FIXED_VAR,
    STREAM_INNER,
    STREAM_OBJECTIVE,
    _ssl_projection,
    forward_chunks,
    orthogonal_transform_labeler,
    prior_dist,
)
from sgmeta.tasks import EpisodePool, FewShotConfig, ToyConfig, derive_task_seed, episode_rng
from sgmeta.trainer import (
    build_model,
    default_config,
    episode_objective,
    episode_pool,
    episodes_for,
    evaluate,
    make_theta0,
)
from test_distributions import tape_draw_reference
from test_fused import (
    cross_entropy_chain,
    dirac_prior_term,
    kl_diag_gaussian,
    relu_mlp,
    square,
    tmean,
)

TOL = 1e-12
FIELDS = ("query_inputs", "query_labels", "support_inputs", "support_labels", "truth")


def each_episode(batch):
    """The episodes of a batch one by one, each field without the batch axis."""
    for b in range(len(batch)):
        fields = {name: None if getattr(batch, name) is None else getattr(batch, name)[b]
                  for name in FIELDS}
        yield SimpleNamespace(**fields, task_seed=batch.task_seed[b], n_query=batch.n_query)


def only_episode(batch):
    (ep,) = each_episode(batch)
    return ep


# -- per-episode reference ----------------------------------------------------------


def ref_draw(theta, cfg, eps):
    if eps is None:
        return theta
    return tape_draw_reference(theta.reshape(theta.size), cfg.q_log_var, eps).reshape(theta.shape)


def ref_direction(theta, x, model, cfg, eps_list):
    scale = model.params.get("classifier_scale")
    total = None
    for eps in eps_list:
        w = ref_draw(theta, cfg, eps)
        if model.mode == "toy":
            n = x.size
            g = relu_mlp((w * x).reshape(n, 1), model.sg_layers()).reshape(n)
            contrib = ((g * x).sum() if cfg.sum_convention else tmean(g * x)).reshape(1)
        else:
            g = relu_mlp(dc.cosine_logits(x, w, scale), model.sg_layers())
            seed = g if cfg.sum_convention else dc.scale(g, 1.0 / x.shape[0])
            contrib = dc.cosine_vjp(x, w, scale, seed)
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
            prior = prior_dist(model)
            kl_dir = dc.prior_pull(theta.reshape(theta.size), prior.mean, prior.log_var)
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
            sq = square(w * dc.constant(ep.query_inputs[:, 0]) - dc.constant(ep.query_labels))
            contrib = sq.sum() if cfg.sum_convention else tmean(sq)
        else:
            feats = apply_features(model, ep.query_inputs)
            logits = dc.cosine_logits(feats, w, model.params["classifier_scale"])
            contrib = cross_entropy_chain(logits, ep.query_labels)
        total = contrib if total is None else total + contrib
    return dc.scale(total, 1.0 / len(eps_list))


def ref_ssl_init(model, ep, cfg):
    feats = dc.detach(apply_features(model, ep.query_inputs)).data
    aug, ssl_labels = orthogonal_transform_labeler(feats)
    theta = model.params["lambda_global"]
    scale = model.params["classifier_scale"]
    aug_t = dc.constant(aug)
    proj = _ssl_projection(model.k)
    probs = dc.softmax(dc.matmul(dc.cosine_logits(aug_t, theta, scale), dc.constant(proj)))
    one_hot = np.zeros((len(ssl_labels), 4))
    one_hot[np.arange(len(ssl_labels)), ssl_labels] = 1.0
    ce_grad = dc.scale(probs - dc.constant(one_hot), 1.0 / len(ssl_labels))
    seed = dc.matmul(ce_grad, dc.constant(proj.T))
    return theta - dc.scale(dc.cosine_vjp(aug_t, theta, scale, seed), cfg.inner.eta_inner)


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
    batch = episodes_for(cfg, "train", range(4))
    trainables = [t for _, t in sorted(model.trainable().items())]

    dc.zero_grad(trainables)
    losses, theta_k = episode_objective(model, batch, cfg)
    dc.backward(dc.scale(losses.sum(), 1.0 / len(batch)))
    grads = [_grad(t).copy() for t in trainables]

    dc.zero_grad(trainables)
    total = None
    ref_losses, ref_thetas = [], []
    for ep in each_episode(batch):
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
    batch = episodes_for(cfg, "train", range(2))
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
def test_forward_chunks_size_from_the_query_size_and_make_each_once(n_query, sizes):
    made = []

    def make(indices):
        made.extend(indices)
        return list(indices)

    pool = EpisodePool(sum(sizes), n_query, make)
    chunks = forward_chunks(pool)
    start, first = next(chunks)
    assert start == 0 and made == first == list(range(sizes[0]))  # made as it is read
    chunks = [(start, first)] + list(chunks)
    assert [len(chunk) for _, chunk in chunks] == sizes
    assert [start for start, _ in chunks] == list(np.cumsum([0] + sizes[:-1]))
    assert made == list(range(sum(sizes)))


def test_evaluation_chunks_do_not_change_per_episode_values(monkeypatch):
    cfg = fewshot_case()
    model = perturbed_model(cfg, seed=1)
    episodes = episodes_for(cfg, "val", range(7))
    n_query = episodes.n_query
    chunks = []

    def recording_unroll(theta0, chunk, *args, **kwargs):
        chunks.append(len(chunk))
        return unroll(theta0, chunk, *args, **kwargs)

    unroll = trainer.sib_unroll
    monkeypatch.setattr(trainer, "sib_unroll", recording_unroll)
    chunk_episodes(monkeypatch, 1, n_query)
    one = evaluate(model, cfg, "val", episodes)
    chunk_episodes(monkeypatch, 3, n_query)
    chunked = evaluate(model, cfg, "val", episode_pool(cfg, "val", 7))
    assert chunks == [1] * 7 + [3, 3, 1]
    assert set(chunked.per_episode) == set(one.per_episode)
    for name, values in one.per_episode.items():
        assert_close(chunked.per_episode[name], values)


def test_analysis_chunks_keep_the_per_trial_random_order(monkeypatch):
    cfg = toy_case()
    cfg.inner.inner_eval_at_mean = False  # inner draws too
    model = perturbed_model(cfg, seed=2)
    sampler = toy_task_sampler(cfg.toy, seed=4)

    def gap(episodes_per_chunk):
        chunk_episodes(monkeypatch, episodes_per_chunk, cfg.toy.n)
        return gen_gap(model, sampler, cfg.inner, trials=13, seed=1)

    one = gap(1)
    for episodes_per_chunk in (4, 5):
        chunked = gap(episodes_per_chunk)
        for field in ("gap", "stderr", "sigma", "mi"):
            assert getattr(chunked, field) == pytest.approx(getattr(one, field), rel=TOL,
                                                            abs=1e-15)


def toy_inner_draws_analysis():
    cfg = toy_case()
    cfg.inner.inner_eval_at_mean = False  # inner draws too
    return cfg, toy_task_sampler(cfg.toy, seed=5), None, cfg.toy.n


def fewshot_analysis(**inner):
    cfg = fewshot_case(**inner)
    return (cfg, fewshot_task_sampler(cfg.fewshot, seed=5),
            lambda frozen, chunk: make_theta0(frozen, chunk, cfg),
            cfg.fewshot.k * cfg.fewshot.n_query_per_class)


ANALYSIS_CASES = {"toy-inner-draws": toy_inner_draws_analysis, "fewshot": fewshot_analysis}
GAP_CASES = {
    "toy-inner-draws": toy_inner_draws_analysis,
    "fewshot-proto-deterministic": fewshot_analysis,
    "fewshot-proto-gaussian": lambda: fewshot_analysis(
        posterior_regime=GAUSSIAN_FIXED_VAR, mc_samples=2, q_log_var=2 * math.log(0.05)),
}


@pytest.mark.parametrize("case", sorted(GAP_CASES))
def test_gap_and_sigma_match_per_trial_loop(monkeypatch, case):
    """The gap, σ and the mutual-information term of one estimate, against a
    loop that generates, adapts and draws for one trial at a time."""
    cfg, sampler, theta0_fn, n_query = GAP_CASES[case]()
    inner = cfg.inner
    model = perturbed_model(cfg, seed=3)
    trials, seed = 11, 2
    chunk_episodes(monkeypatch, 3, n_query)  # chunks start at odd trials too
    est = gen_gap(model, sampler, inner, trials=trials, seed=seed, theta0_fn=theta0_fn)

    def adapted(trial):
        batch = sampler.make(sampler.seeds([trial]))
        ep = only_episode(batch)
        theta0 = model.params["lambda_global"] if theta0_fn is None else ref_theta0(model, ep, cfg)
        return batch, ep, ref_unroll(theta0, ep, model, inner).data

    def drawn(theta, rng):
        if inner.posterior_regime == DETERMINISTIC:
            return theta
        std = math.exp(inner.q_log_var / 2.0)
        return theta + std * rng.normal(size=theta.size).reshape(theta.shape)

    def loss(x, y, w):
        if model.mode == "toy":
            return np.mean((w[0] * x[:, 0] - y) ** 2)
        scale = model.params["classifier_scale"]
        logits = dc.cosine_logits(apply_features(model, x), dc.constant(w), scale)
        return cross_entropy_chain(logits, y).item()

    rng = episode_rng(derive_task_seed(seed, "test", 0x6A9), stream=7)
    diffs, prior_terms = [], []
    for t in range(trials):
        batch, d, theta = adapted(t)
        f = only_episode(sampler.fresh(batch, [t]))
        w = drawn(theta, rng)
        diffs.append(loss(f.query_inputs, f.query_labels, w)
                     - loss(d.query_inputs, d.query_labels, w))
        prior_terms.append(ref_prior_term(dc.constant(theta), model, inner).item())
    rng = episode_rng(derive_task_seed(seed + 1, "test", 0x51E), stream=9)
    losses = []
    for t in range(trials):
        w = drawn(adapted(t)[2], rng)
        d_z = only_episode(sampler.make(sampler.seeds([(t + 1) % trials])))
        i = int(rng.integers(d_z.n_query))
        losses.append(loss(d_z.query_inputs[i:i + 1], d_z.query_labels[i:i + 1], w))
    assert est.gap == pytest.approx(np.mean(diffs), rel=TOL, abs=1e-15)
    assert est.sigma == pytest.approx((max(losses) - min(losses)) / 2.0, rel=TOL)
    assert est.mi == pytest.approx(np.mean(prior_terms), rel=TOL)


@pytest.mark.parametrize("case", sorted(ANALYSIS_CASES))
def test_adapted_weights_do_not_depend_on_the_chunk_layout(monkeypatch, case):
    cfg, sampler, theta0_fn, n_query = ANALYSIS_CASES[case]()
    model = perturbed_model(cfg, seed=4)

    def theta_k(episodes_per_chunk):
        chunk_episodes(monkeypatch, episodes_per_chunk, n_query)
        chunks = []
        gen_gap(model, sampler, cfg.inner, trials=17, seed=1, theta0_fn=theta0_fn,
                on_chunk=lambda trials, datasets, theta_k: chunks.append(theta_k))
        return np.concatenate(chunks)

    reference = theta_k(1)
    for episodes_per_chunk in (2, 5, 17):
        assert_close(theta_k(episodes_per_chunk), reference)


@pytest.mark.parametrize("trials", [3, 13])
def test_gen_gap_adapts_each_trial_once(monkeypatch, trials):
    cfg, sampler, theta0_fn, n_query = fewshot_analysis()
    model = perturbed_model(cfg, seed=6)
    chunk_episodes(monkeypatch, 4, n_query)
    adapted = []

    def counting_unroll(theta0, episodes, *args, **kwargs):
        adapted.extend(episodes.task_seed)
        return sib_unroll(theta0, episodes, *args, **kwargs)

    sib_unroll = analysis.sib_unroll
    monkeypatch.setattr(analysis, "sib_unroll", counting_unroll)
    gen_gap(model, sampler, cfg.inner, trials=trials, seed=1, theta0_fn=theta0_fn)
    # σ and the mutual-information term read only the gap's trials
    assert len(adapted) == len(set(adapted)) == trials


def reuse_case(mode, init="proto", **inner):
    cfg = toy_case() if mode == "toy" else fewshot_case(**inner)
    if mode == "toy":
        cfg.inner.inner_eval_at_mean = False  # inner draws too
        sampler, theta0_fn = toy_task_sampler(cfg.toy, seed=cfg.run_seed), None
    else:
        cfg.theta_init = init
        sampler = fewshot_task_sampler(cfg.fewshot, seed=cfg.run_seed)
        theta0_fn = lambda frozen, chunk: make_theta0(frozen, chunk, cfg)  # noqa: E731
    return cfg, sampler, theta0_fn


GAUSSIAN_INNER = {"posterior_regime": GAUSSIAN_FIXED_VAR, "mc_samples": 2,
                  "q_log_var": 2 * math.log(0.05)}
REUSE_CASES = {
    "toy-inner-draws": lambda: reuse_case("toy"),
    "fewshot-proto-deterministic": lambda: reuse_case("fewshot"),
    "fewshot-proto-gaussian": lambda: reuse_case("fewshot", **GAUSSIAN_INNER),
    "fewshot-global-deterministic": lambda: reuse_case("fewshot", "global"),
    "fewshot-global-gaussian": lambda: reuse_case("fewshot", "global", **GAUSSIAN_INNER),
    "fewshot-ssl-deterministic": lambda: reuse_case("fewshot", "ssl"),
}


@pytest.mark.filterwarnings("ignore:single-episode evaluation")  # a pool of one
@pytest.mark.parametrize("held_trials", [1, 4, 7])  # only trial 0, to a chunk's middle, all
@pytest.mark.parametrize("case", sorted(REUSE_CASES))
def test_gap_trials_held_from_an_evaluation_are_the_ones_it_would_make(monkeypatch, case,
                                                                       held_trials):
    """An evaluation of the test split keeps the gap trials among its
    episodes (``HeldTrials``); the gap reads them instead of generating and
    adapting them, with the same datasets, bitwise the same adapted weights
    and bitwise the same estimate, though its chunks split where they end.
    Trial 0 is always held, and σ's last draw reads its point."""
    cfg, sampler, theta0_fn = REUSE_CASES[case]()
    model = perturbed_model(cfg, seed=7)
    trials = 7
    stride = 2 if cfg.mode == "toy" else 3  # gap trial t's dataset is test episode stride·t
    pool = stride * (held_trials - 1) + 1
    chunk_episodes(monkeypatch, 3, sampler.n_query)  # the chunk of trials 3 .. 5 straddles 4

    def estimate(held):
        chunks = []
        est = gen_gap(model, sampler, cfg.inner, trials=trials, seed=1, theta0_fn=theta0_fn,
                      held=held, on_chunk=lambda idx, datasets, theta_k: chunks.append(
                          (idx, datasets.query_inputs, theta_k)))
        return est, chunks

    fresh, fresh_chunks = estimate(None)
    seeds = sampler.seeds(range(trials))
    held = analysis.HeldTrials(seeds)
    evaluate(model, cfg, "test", episode_pool(cfg, "test", pool), on_chunk=held.keep)
    assert sum(seed in held for seed in seeds) == held_trials
    reused, reused_chunks = estimate(held)
    assert not any(seed in held for seed in seeds)  # each released once read
    assert reused == fresh
    if held_trials == 4:
        assert [idx for idx, _, _ in reused_chunks] == [range(0, 3), range(3, 4), range(4, 6),
                                                        range(6, 7)]
    for i in (1, 2):
        assert np.array_equal(np.concatenate([c[i] for c in reused_chunks]),
                              np.concatenate([c[i] for c in fresh_chunks]))
