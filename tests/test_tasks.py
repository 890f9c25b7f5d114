"""Generators: determinism, closed-form relations, Monte-Carlo oracles."""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgmeta.tasks import (
    Episode,
    _stream,
    episode_rng,
    FewShotConfig,
    ToyConfig,
    class_prototypes,
    derive_task_seed,
    gen_fewshot_episode,
    gen_spinning_lines,
    resample_query_set,
    true_posterior,
    true_prior,
)
from test_fused import kl_diag_gaussian

REFERENCE_TOY = ToyConfig(n=32, mu=0.0, sigma=1.0, mu_w=1.0, sigma_w=0.1)
FIELDS = ("query_inputs", "query_labels", "support_inputs", "support_labels", "truth")


def seeds(run_seed, split, n):
    return [derive_task_seed(run_seed, split, i) for i in range(n)]


def test_toy_episode_size_matches_config():
    ep = gen_spinning_lines(REFERENCE_TOY, [derive_task_seed(0, "train", 0)])
    assert len(ep) == 1 and ep.n_query == 32
    assert ep.query_inputs.shape == (1, 32, 1) and ep.query_labels.shape == (1, 32)
    assert ep.support_inputs is None


def test_toy_targets_exact_by_construction():
    ep = gen_spinning_lines(REFERENCE_TOY, seeds(3, "train", 20))
    np.testing.assert_array_equal(ep.query_labels, ep.truth[:, None] * ep.query_inputs[..., 0])


def test_toy_slope_mean_monte_carlo():
    # Over many episodes the slope mean approaches mu + mu_w = 1.
    n_eps = 100_000
    ws = gen_spinning_lines(REFERENCE_TOY, seeds(777, "train", n_eps)).truth
    se = ws.std(ddof=1) / math.sqrt(n_eps)
    assert abs(ws.mean() - 1.0) < 3 * se


def test_true_prior_reference_configuration():
    prior = true_prior(REFERENCE_TOY)
    assert prior.mean.data[0] == pytest.approx(1.0)
    assert np.exp(prior.log_var.data[0]) == pytest.approx(1.0 / 32 + 0.01)  # 0.04125


def test_true_prior_limit_cases():
    tiny_sigma = true_prior(ToyConfig(n=4, mu=0.0, sigma=1e-9, mu_w=1.0, sigma_w=0.1))
    assert np.exp(tiny_sigma.log_var.data[0]) == pytest.approx(0.01)
    degenerate = true_prior(ToyConfig(n=1, mu=0.0, sigma=1.0, mu_w=1.0, sigma_w=1e-9))
    assert degenerate.mean.data[0] == pytest.approx(1.0)
    assert np.exp(degenerate.log_var.data[0]) == pytest.approx(1.0)


def test_true_posterior_zero_inputs():
    ep = Episode(query_inputs=np.zeros((1, 8, 1)), query_labels=np.zeros((1, 8)),
                 truth=np.ones(1), task_seed=(0,))
    post = true_posterior(ep, REFERENCE_TOY)
    assert post.mean.data[0, 0] == pytest.approx(1.0)
    assert np.exp(post.log_var.data[0, 0]) == pytest.approx(0.01)


def test_posterior_minus_prior_mean_is_input_mean_shift():
    ep = gen_spinning_lines(REFERENCE_TOY, [derive_task_seed(5, "test", 9)])
    post = true_posterior(ep, REFERENCE_TOY)
    prior = true_prior(REFERENCE_TOY)
    shift = post.mean.data[0, 0] - prior.mean.data[0]
    assert shift == pytest.approx(ep.query_inputs.mean() - REFERENCE_TOY.mu)


def test_mean_posterior_prior_kl_matches_symbolic_expectation():
    # E KL(N(m_d + mu_w, s_w^2) || N(mu + mu_w, Vp)) = 0.5 * ln(Vp / s_w^2)
    # since E (m_d - mu)^2 = sigma^2 / n and Vp = sigma^2/n + s_w^2.
    vp = REFERENCE_TOY.sigma**2 / REFERENCE_TOY.n + REFERENCE_TOY.sigma_w**2
    symbolic = 0.5 * math.log(vp / REFERENCE_TOY.sigma_w**2)
    n_eps = 100_000
    prior = true_prior(REFERENCE_TOY)
    eps = gen_spinning_lines(REFERENCE_TOY, seeds(2024, "train", n_eps))
    kls = kl_diag_gaussian(true_posterior(eps, REFERENCE_TOY), prior).data
    se = kls.std(ddof=1) / math.sqrt(n_eps)
    assert abs(kls.mean() - symbolic) < 3 * se


def test_fewshot_episode_sizes():
    cfg = FewShotConfig(k=5, n_shot=1, n_query_per_class=15)
    ep = gen_fewshot_episode(cfg, "train", [derive_task_seed(1, "train", 0)])
    assert ep.support_inputs.shape == (1, 5, 16)
    assert ep.query_inputs.shape == (1, 75, 16)
    assert ep.truth.shape == (1, 5, 16)
    assert ep.n_query == cfg.n_query == 75
    assert sorted(set(ep.query_labels[0])) == [0, 1, 2, 3, 4]
    counts = np.bincount(ep.support_labels[0], minlength=5)
    np.testing.assert_array_equal(counts, np.ones(5))


def test_fewshot_zero_spread_is_trivially_separable():
    cfg = FewShotConfig(k=5, n_shot=1, cluster_spread=0.0)
    ep = gen_fewshot_episode(cfg, "test", seeds(4, "test", 3))
    protos = ep.truth
    np.testing.assert_allclose(ep.query_inputs, np.repeat(protos, 15, axis=1), atol=0)
    # nearest-prototype classification is perfect
    dists = ((ep.query_inputs[:, :, None, :] - protos[:, None]) ** 2).sum(-1)
    assert (dists.argmin(axis=-1) == ep.query_labels).all()


@pytest.mark.parametrize("mode", ["toy", "fewshot"])
def test_same_seed_bitwise_identical(mode):
    seed = [derive_task_seed(9, "val", 13)]
    if mode == "toy":
        a, b = (gen_spinning_lines(ToyConfig(), seed) for _ in range(2))
    else:
        a, b = (gen_fewshot_episode(FewShotConfig(), "val", seed) for _ in range(2))
    np.testing.assert_array_equal(a.query_inputs, b.query_inputs)
    np.testing.assert_array_equal(a.support_inputs, b.support_inputs)
    np.testing.assert_array_equal(a.query_labels, b.query_labels)


def test_class_pools_disjoint_across_splits():
    cfg = FewShotConfig()
    pools = {s: class_prototypes(cfg, s) for s in ("train", "val", "test")}
    for a in ("train", "val", "test"):
        for b in ("train", "val", "test"):
            if a < b:
                cross = pools[a] @ pools[b].T
                assert np.abs(cross).max() < 1.0 - 1e-9  # no shared prototype


def test_fewshot_k_exceeding_pool_errors():
    with pytest.raises(ValueError):
        FewShotConfig(k=30, class_pool={"train": 64, "val": 16, "test": 20})


def test_derive_task_seed_pinned_values():
    # Pure integer arithmetic; stable across platforms and releases.
    assert derive_task_seed(0, "train", 0) == 5095610196844313600
    assert derive_task_seed(0, "train", 1) == 6728581669027343264
    assert derive_task_seed(12345, "test", 7) == 17365844411511782114


def test_derive_task_seed_no_collisions_over_a_million():
    seeds = {derive_task_seed(42, "train", i) for i in range(1_000_000)}
    assert len(seeds) == 1_000_000


@settings(max_examples=50, deadline=None)
@given(run_seed=st.integers(0, 2**63 - 1), idx=st.integers(0, 2**40))
def test_derive_task_seed_distinct_across_indices_and_splits(run_seed, idx):
    a = derive_task_seed(run_seed, "train", idx)
    b = derive_task_seed(run_seed, "train", idx + 1)
    c = derive_task_seed(run_seed, "val", idx)
    assert a != b
    assert a != c


def test_resample_query_set_keeps_task_identity():
    cfg = FewShotConfig()
    ep = gen_fewshot_episode(cfg, "test", seeds(6, "test", 2))
    fresh = resample_query_set(ep, cfg, seeds(6, "val", 2))
    np.testing.assert_array_equal(fresh.query_labels, ep.query_labels)
    assert not np.array_equal(fresh.query_inputs, ep.query_inputs)
    np.testing.assert_array_equal(fresh.truth, ep.truth)
    assert fresh.task_seed == tuple(seeds(6, "val", 2))
    with pytest.raises(ValueError, match="3 fresh seeds for 2 episodes"):
        resample_query_set(ep, cfg, seeds(6, "val", 3))


# -- batched generation against per-episode references --------------------------------


def ref_fewshot_episode(cfg, split, task_seed):
    """The per-class formulation: one normal draw per class."""
    protos = class_prototypes(cfg, split)
    nq = cfg.n_query_per_class
    rng = episode_rng(task_seed)
    chosen = rng.choice(protos.shape[0], size=cfg.k, replace=False)
    sup_x, sup_y, qry_x, qry_y = [], [], [], []
    for new_label, cls in enumerate(chosen):
        pts = protos[cls] + rng.normal(0.0, cfg.cluster_spread, size=(cfg.n_shot + nq, cfg.d_x))
        sup_x.append(pts[: cfg.n_shot])
        sup_y.append(np.full(cfg.n_shot, new_label, dtype=np.int64))
        qry_x.append(pts[cfg.n_shot :])
        qry_y.append(np.full(nq, new_label, dtype=np.int64))
    support = (np.concatenate(sup_x), np.concatenate(sup_y)) if cfg.n_shot > 0 else (None, None)
    return np.concatenate(qry_x), np.concatenate(qry_y), support, protos[chosen]


def ref_resample(protos, nq, cfg, fresh_seed):
    rng = episode_rng(fresh_seed)
    qry_x, qry_y = [], []
    for label, center in enumerate(protos):
        qry_x.append(center + rng.normal(0.0, cfg.cluster_spread, size=(nq, cfg.d_x)))
        qry_y.append(np.full(nq, label, dtype=np.int64))
    return np.concatenate(qry_x), np.concatenate(qry_y)


def ref_spinning_lines(cfg, task_seed, n):
    """One toy episode from its own generator: inputs, targets and slope."""
    rng = episode_rng(task_seed)
    x = rng.normal(cfg.mu, cfg.sigma, size=n)
    w = x.mean() + rng.normal(cfg.mu_w, cfg.sigma_w)
    return x.reshape(n, 1), w * x, w


def assert_bitwise(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def owns_its_buffer(arr):
    """No larger buffer (such as the batch's whole draw) is kept alive."""
    return arr.base is None or arr.base.nbytes == arr.nbytes


def batch_seeds(size, salt):
    return [derive_task_seed(salt, "val", 3 * i) for i in range(size)]


@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("n_shot", [0, 1, 5])
@pytest.mark.parametrize("spread", [0.0, 0.3])
def test_fewshot_generation_matches_the_per_class_loop(k, n_shot, spread):
    cfg = FewShotConfig(k=k, n_shot=n_shot, n_query_per_class=4, d_x=6, cluster_spread=spread)
    for batch in (1, 3, 33):
        task_seeds = batch_seeds(batch, salt=k + n_shot)
        fresh_seeds = [seed + 1 for seed in task_seeds]
        ep = gen_fewshot_episode(cfg, "val", task_seeds)
        fresh = resample_query_set(ep, cfg, fresh_seeds)
        assert ep.task_seed == tuple(task_seeds) and fresh.task_seed == tuple(fresh_seeds)
        assert all(type(seed) is int for seed in ep.task_seed + fresh.task_seed)
        for b, seed in enumerate(task_seeds):
            qx, qy, (sx, sy), protos = ref_fewshot_episode(cfg, "val", seed)
            assert_bitwise(ep.query_inputs[b], qx)
            assert_bitwise(ep.query_labels[b], qy)
            assert_bitwise(ep.truth[b], protos)
            if n_shot == 0:
                assert ep.support_inputs is None and ep.support_labels is None
            else:
                assert_bitwise(ep.support_inputs[b], sx)
                assert_bitwise(ep.support_labels[b], sy)
            rx, ry = ref_resample(protos, 4, cfg, seed + 1)
            assert_bitwise(fresh.query_inputs[b], rx)
            assert_bitwise(fresh.query_labels[b], ry)
        for arr in (ep.query_inputs, ep.support_inputs, ep.truth, fresh.query_inputs):
            assert arr is None or owns_its_buffer(arr)
        # every episode reads one label row, which nothing can write to
        for labels in (ep.query_labels, ep.support_labels, fresh.query_labels):
            assert labels is None or not labels.flags.writeable


@pytest.mark.parametrize("batch", [1, 3, 33])
@pytest.mark.parametrize("n", [None, 1, 7])
def test_toy_generation_matches_the_per_episode_draws(batch, n):
    cfg = ToyConfig(n=12, mu=0.7, sigma=1.3, mu_w=-0.4, sigma_w=0.2)
    task_seeds = batch_seeds(batch, salt=batch)
    ep = gen_spinning_lines(cfg, task_seeds, n=n)
    assert ep.task_seed == tuple(task_seeds)
    assert all(type(seed) is int for seed in ep.task_seed)
    for b, seed in enumerate(task_seeds):
        x, y, w = ref_spinning_lines(cfg, seed, cfg.n if n is None else n)
        assert_bitwise(ep.query_inputs[b], x)
        assert_bitwise(ep.query_labels[b], y)
        assert_bitwise(ep.truth[b], np.float64(w))
    for arr in (ep.query_inputs, ep.query_labels, ep.truth):
        assert owns_its_buffer(arr)


@pytest.mark.parametrize("mode", ["toy", "fewshot"])
def test_an_episode_is_the_same_in_any_batch(mode):
    task_seeds = batch_seeds(9, salt=11)
    order = [4, 0, 8, 2, 6, 1, 7, 3, 5]
    if mode == "toy":
        cfg = ToyConfig(mu=0.3)

        def generate(s):
            return gen_spinning_lines(cfg, s)
    else:
        cfg = FewShotConfig(k=3, n_shot=2, n_query_per_class=5, d_x=4)

        def generate(s):
            return resample_query_set(gen_fewshot_episode(cfg, "val", s), cfg,
                                      [seed ^ 1 for seed in s])
    whole = generate(task_seeds)
    shuffled = generate([task_seeds[i] for i in order])
    for j, i in enumerate(order):
        alone = generate([task_seeds[i]])
        for name in FIELDS:
            rows = getattr(whole, name)
            if rows is not None:
                assert_bitwise(getattr(shuffled, name)[j], rows[i])
                assert_bitwise(getattr(alone, name)[0], rows[i])


def test_a_batch_takes_its_rows_with_their_seeds():
    cfg = FewShotConfig(k=3, n_shot=1, n_query_per_class=2, d_x=4)
    ep = gen_fewshot_episode(cfg, "val", batch_seeds(6, salt=2))
    for rows in (slice(1, 4), [5, 0, 5], np.array([2, 3])):
        part = ep.take(rows)
        picked = range(6)[rows] if isinstance(rows, slice) else list(rows)
        assert part.task_seed == tuple(ep.task_seed[i] for i in picked)
        assert all(type(seed) is int for seed in part.task_seed)
        assert len(part) == len(picked)
        for name in FIELDS:
            assert_bitwise(getattr(part, name), np.stack([getattr(ep, name)[i] for i in picked]))


def test_class_pool_is_built_once_and_read_only():
    cfg = FewShotConfig()
    pool = class_prototypes(cfg, "train")
    assert class_prototypes(FewShotConfig(), "train") is pool
    with pytest.raises(ValueError):
        pool[0, 0] = 1.0
    other = FewShotConfig(pool_seed=1)
    assert not np.array_equal(class_prototypes(other, "train"), pool)
    # a batch's prototypes are its own copy
    ep = gen_fewshot_episode(cfg, "train", [derive_task_seed(0, "train", 0)])
    ep.truth[0, 0, 0] = 5.0
    assert pool.max() <= 1.0


# -- one shared generator, reset per stream ------------------------------------------


def draw_some(rng):
    """Draws of every kind the generators make, leaving the bit generator
    mid-buffer and holding a spare 32-bit half."""
    return (rng.normal(size=7), rng.integers(11, size=3), rng.choice(9, size=4, replace=False),
            rng.permutation(6), rng.normal(0.5, 2.0, size=(2, 3)), rng.integers(11, size=3))


@pytest.mark.parametrize("task_seed", [0, 2**63, 2**64 - 1])
@pytest.mark.parametrize("stream", [0, 1, 2])
def test_reset_stream_is_the_fresh_generators_stream(task_seed, stream):
    want = draw_some(episode_rng(task_seed, stream))
    got = draw_some(_stream(task_seed, stream))
    for a, b in zip(got, want):
        assert_bitwise(a, b)


def test_reset_stream_forgets_the_stream_drawn_from_in_between():
    want = draw_some(episode_rng(5, 1))
    _stream(5, 1).normal(size=3)
    draw_some(_stream(6, 2))  # another stream, left with a spare 32-bit half
    got = draw_some(_stream(5, 1))
    for a, b in zip(got, want):
        assert_bitwise(a, b)
    # a fresh generator of one stream is not moved by resets of the shared one
    rng = episode_rng(5, 1)
    first = rng.normal(size=3)
    _stream(5, 1).normal(size=3)
    assert_bitwise(np.concatenate([first, rng.normal(size=4)]), want[0])


def test_every_reset_is_of_one_generator_for_the_whole_process():
    """No generator is built per stream, per call or per thread: a thread
    that draws alone resets the same generator and draws the same stream."""
    rng = _stream(1, 0)
    assert _stream(2, 1) is rng
    got = {}

    def draw():
        got["rng"] = _stream(5, 1)
        got["drawn"] = draw_some(got["rng"])

    worker = threading.Thread(target=draw, daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert got["rng"] is rng
    for a, b in zip(got["drawn"], draw_some(episode_rng(5, 1))):
        assert_bitwise(a, b)
