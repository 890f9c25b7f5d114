"""Inner loop: hand-checked steps, VJP oracles, unrolled-gradient checks."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from sgmeta import diffcore as dc
from sgmeta.diffcore import Tensor, backward, check_gradients, constant, param, zero_grad
from sgmeta.distributions import (
    DETERMINISTIC,
    GAUSSIAN_FIXED_VAR,
    DiagGaussian,
    Deterministic,
    GaussianFixedVar,
)
from sgmeta.models import (
    apply_features,
    build_fewshot_model,
    build_toy_model,
    frozen_copy,
    init_theta0_proto,
    mean_over_draws,
)
import sgmeta.sibcore as sibcore
from sgmeta.cli import main
from sgmeta.sibcore import (
    CHUNK_POINTS,
    STREAM_INNER,
    STREAM_OBJECTIVE,
    InnerLoopConfig,
    InnerLoopError,
    _noise,
    _ssl_projection,
    data_term,
    maml_inner,
    orthogonal_transform_labeler,
    prior_term,
    sib_unroll,
    ssl_init,
    task_objective,
)
from sgmeta.tasks import (
    Episode,
    FewShotConfig,
    ToyConfig,
    derive_task_seed,
    episode_rng,
    gen_fewshot_episode,
    gen_spinning_lines,
)
from test_fused import kl_diag_gaussian, mlp_composite


def toy_cfg(log_var=2 * math.log(0.1), inner_draws=1, objective_draws=1, **kw):
    base = dict(steps=3, eta_inner=1e-3, kl_in_inner=False,
                posterior=GaussianFixedVar(log_var=log_var, inner_draws=inner_draws,
                                           objective_draws=objective_draws))
    base.update(kw)
    return InnerLoopConfig(**base)


def det_cfg(**kw):
    base = dict(steps=3, eta_inner=1e-3, kl_in_inner=False, posterior=Deterministic())
    base.update(kw)
    return InnerLoopConfig(**base)


def global_theta0(model):
    """The global initialization as a batch of one episode."""
    lam = model.params["lambda_global"]
    return lam.reshape((1,) + lam.shape)


def proto_theta0(model, episodes):
    feats = dc.detach(apply_features(model, episodes.support_inputs))
    return init_theta0_proto(model, feats, episodes.support_labels)


def one_step(theta: float, x, model, cfg) -> np.ndarray:
    """Theta after one synthetic step on query inputs ``x`` (no labels read),
    for a batch of one toy episode: shape (1, 1)."""
    x = np.asarray(x, dtype=float)
    ep = Episode(x.reshape(1, -1, 1), np.zeros((1, x.size)), task_seed=(0,))
    theta_k, _ = sib_unroll(constant([[theta]]), ep, model, dataclasses.replace(cfg, steps=1))
    return theta_k.data


def stub_xi_model_toy(value: float = 1.0):
    """Toy model whose synthetic net outputs a constant."""
    model = build_toy_model(seed=0)
    for name in ("xi_w1", "xi_b1", "xi_w2", "xi_b2", "xi_w3"):
        model.params[name].data[:] = 0.0
    model.params["xi_b3"].data[:] = value
    return model


def test_zero_net_and_no_kl_is_identity():
    model = build_toy_model(seed=4)  # final xi layer is zero-initialized
    out = one_step(0.7, [1.0, -2.0, 0.5], model, det_cfg())
    np.testing.assert_array_equal(out, [[0.7]])


def test_hand_checked_toy_step():
    # x=(1,2), theta=0.5, eta=1e-3, constant unit synthetic gradient:
    # theta' = 0.5 - 1e-3 * (1/2) * (1*1 + 1*2) = 0.4985
    model = stub_xi_model_toy(1.0)
    out = one_step(0.5, [1.0, 2.0], model, det_cfg(eta_inner=1e-3))
    assert out[0, 0] == pytest.approx(0.4985, abs=1e-15)


def test_hand_checked_toy_step_sum_convention():
    # Legacy form without the 1/n factor: theta' = 0.5 - 1e-3 * 3 = 0.497
    model = stub_xi_model_toy(1.0)
    out = one_step(0.5, [1.0, 2.0], model, det_cfg(eta_inner=1e-3, sum_convention=True))
    assert out[0, 0] == pytest.approx(0.497, abs=1e-15)


def test_unroll_k0_returns_initialization():
    model = build_toy_model(seed=0)
    ep = gen_spinning_lines(ToyConfig(), [derive_task_seed(0, "train", 0)])
    theta0 = constant([[1.3]])
    theta_k, thetas = sib_unroll(theta0, ep, model, toy_cfg(steps=0))
    assert theta_k is theta0
    assert thetas == [theta0]


def test_unroll_equals_manual_composition():
    model = stub_xi_model_toy(0.8)
    ep = gen_spinning_lines(ToyConfig(), [derive_task_seed(1, "train", 3)])
    cfg = det_cfg(steps=3)
    theta_k, _ = sib_unroll(constant([[0.2]]), ep, model, cfg)
    theta = constant([[0.2]])
    for _ in range(3):
        theta, _ = sib_unroll(theta, ep, model, det_cfg(steps=1))
    np.testing.assert_array_equal(theta_k.data, theta.data)


def test_trajectory_records_k_plus_one_states():
    model = stub_xi_model_toy(0.3)
    ep = gen_spinning_lines(ToyConfig(), [derive_task_seed(2, "train", 1)])
    theta_k, thetas = sib_unroll(constant([[0.0]]), ep, model, det_cfg(steps=3))
    assert len(thetas) == 4
    assert thetas[-1] is theta_k
    # a constant synthetic gradient moves theta by the same amount each step
    steps = np.diff([t.data[0, 0] for t in thetas])
    assert steps[0] != 0
    np.testing.assert_allclose(steps, steps[0], rtol=1e-12)


def test_theta_k_ignores_query_labels_bitwise():
    cfg_task = FewShotConfig()
    model = build_fewshot_model(k=5, d_x=16, seed=3)
    rng = np.random.default_rng(0)
    model.params["xi_w3"].data[:] = rng.normal(size=model.params["xi_w3"].shape) * 0.1
    inner = det_cfg(steps=3, kl_in_inner=True)
    episodes = gen_fewshot_episode(cfg_task, "train",
                                   [derive_task_seed(7, "train", i) for i in range(10)])
    theta0 = proto_theta0(model, episodes)
    ref, _ = sib_unroll(theta0, episodes, model, inner)
    shuffled = Episode(
        query_inputs=episodes.query_inputs,
        query_labels=np.stack([rng.permutation(row) for row in episodes.query_labels]),
        support_inputs=episodes.support_inputs,
        support_labels=episodes.support_labels,
        truth=episodes.truth,
        task_seed=episodes.task_seed,
    )
    out, _ = sib_unroll(theta0, shuffled, model, inner)
    assert np.array_equal(ref.data, out.data)


def test_cosine_vjp_matches_naive_per_example_loop():
    rng = np.random.default_rng(5)
    n, k, d = 7, 3, 4
    feats = rng.normal(size=(n, d))
    theta = rng.normal(size=(k, d))
    seed = rng.normal(size=(n, k))
    scale = 10.0
    out = dc.cosine_vjp(constant(feats), constant(theta), constant(scale), constant(seed))

    tau = 1e-12
    expected = np.zeros((k, d))
    for i in range(n):
        u = feats[i]
        a = np.linalg.norm(u)
        for c in range(k):
            v = theta[c]
            b = np.linalg.norm(v)
            denom = a * b + tau
            jac = scale * (u / denom - (u @ v) * a * v / (b * denom**2))
            expected[c] += seed[i, c] * jac
    np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-12)


def test_cosine_vjp_matches_fd_of_seeded_logit_sum():
    # direction == d/dtheta of sum(seed * logits) with the seed held fixed
    rng = np.random.default_rng(6)
    n, k, d = 5, 3, 4
    feats = rng.normal(size=(n, d))
    seed = rng.normal(size=(n, k))
    theta = param(rng.normal(size=(k, d)))
    scale = constant(7.0)

    def f():
        return (constant(seed) * dc.cosine_logits(constant(feats), theta, scale)).sum()

    zero_grad([theta])
    backward(f())
    direction = dc.cosine_vjp(constant(feats), Tensor(theta.data), scale, constant(seed))
    np.testing.assert_allclose(direction.data, theta.grad, rtol=1e-12, atol=1e-12)


def test_toy_direction_matches_naive_loop():
    model = build_toy_model(seed=2)
    rng = np.random.default_rng(1)
    for name in ("xi_w3", "xi_b3"):
        model.params[name].data[:] = rng.normal(size=model.params[name].shape)
    x = rng.normal(size=6)
    theta = 0.4
    out = one_step(theta, x, model, det_cfg(eta_inner=1.0))
    # naive: per-example synthetic outputs times x_i, averaged
    g = np.array([
        mlp_composite(constant([[theta * xi]]), model.sg_layers()).data[0, 0] for xi in x
    ])
    expected = theta - np.mean(g * x)
    assert out[0, 0] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("steps", [1, 2, 3])
def test_outer_gradients_through_toy_unroll_match_fd(steps):
    model = build_toy_model(seed=8)
    rng = np.random.default_rng(3)
    # generic parameter values keep relu pre-activations away from the kink,
    # where central differences are not meaningful
    for name in ("xi_w3", "xi_b3", "xi_b1", "xi_b2"):
        model.params[name].data[:] = rng.normal(size=model.params[name].shape) * 0.5
    model.params["lambda_global"].data[:] = 0.8
    ep = gen_spinning_lines(ToyConfig(n=6), [derive_task_seed(4, "train", 2)])
    cfg = toy_cfg(steps=steps, eta_inner=0.05, kl_in_inner=True)
    names = ["lambda_global", "xi_w1", "xi_b1", "xi_w2", "xi_b2", "xi_w3", "xi_b3",
             "psi_mean", "psi_log_var"]
    params = [model.params[n] for n in names]

    def loss():
        theta_k, _ = sib_unroll(global_theta0(model), ep, model, cfg)
        return task_objective(ep, theta_k, model, cfg).sum()

    errors = check_gradients(loss, params, h=1e-5, tol=1e-5)
    assert max(errors) < 1e-5


def test_outer_gradients_through_fewshot_unroll_match_fd():
    model = build_fewshot_model(k=3, d_x=4, seed=5)
    model.params["f_weight"].data = np.eye(4)  # identity feature map
    rng = np.random.default_rng(9)
    model.params["xi_w3"].data[:] = rng.normal(size=model.params["xi_w3"].shape) * 0.3
    cfg_task = FewShotConfig(k=3, n_shot=1, n_query_per_class=2, d_x=4,
                             class_pool={"train": 8, "val": 4, "test": 4}, cluster_spread=0.4)
    ep = gen_fewshot_episode(cfg_task, "train", [derive_task_seed(5, "train", 1)])
    cfg = det_cfg(steps=2, eta_inner=0.05, kl_in_inner=True)
    names = ["lambda_scale", "classifier_scale", "xi_w1", "xi_b3", "psi_mean", "psi_log_var"]
    params = [model.params[n] for n in names]

    def loss():
        theta_k, _ = sib_unroll(proto_theta0(model, ep), ep, model, cfg)
        return task_objective(ep, theta_k, model, cfg).sum()

    errors = check_gradients(loss, params, h=1e-5, tol=1e-5)
    assert max(errors) < 1e-5


def test_a_constant_unroll_holds_one_steps_state():
    """A frozen unroll keeps no reverse-pass state: over one chunk of
    ``CHUNK_POINTS`` query points, its peak traced memory at K = 3 is within
    10% of its peak at K = 1 (one step's activations are about 1.2 MB: the
    peak is 1.3 MB at K = 0 and 2.5 MB at K = 1)."""
    task = FewShotConfig()
    model = build_fewshot_model(k=5, d_x=16, seed=3)
    model.params["xi_w3"].data[:] = np.random.default_rng(0).normal(
        size=model.params["xi_w3"].shape) * 0.1
    frozen = frozen_copy(model)
    seeds = [derive_task_seed(0, "test", i) for i in range(CHUNK_POINTS // task.n_query)]
    episodes = gen_fewshot_episode(task, "test", seeds)
    theta0 = proto_theta0(frozen, episodes)

    def peak(steps):
        tracemalloc.start()
        try:
            sib_unroll(theta0, episodes, frozen, det_cfg(steps=steps, kl_in_inner=True))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(3) <= 1.1 * peak(1)


def test_a_forward_only_sg_pass_keeps_one_block_of_hidden_activations(monkeypatch):
    """The direction rule keeps the synthetic-gradient network's hidden
    activations only when its VJP has a cotangent to accumulate. Without
    them the network runs in row blocks and drops each block's activations,
    so its peak traced memory beyond its output is the same, within 10%,
    over 4800 rows as over 1200: about 790 kB, two 600 x 40 blocks and the
    biases tiled to a block's rows."""
    task = FewShotConfig()
    model = build_fewshot_model(k=5, d_x=16, seed=3)
    frozen = frozen_copy(model)
    episodes = gen_fewshot_episode(task, "test", [derive_task_seed(0, "test", i)
                                                  for i in range(2)])
    relu_mlp, keeps = dc._relu_mlp, []

    def recording(rows, layers, keep):
        keeps.append(keep)
        return relu_mlp(rows, layers, keep)

    monkeypatch.setattr(dc, "_relu_mlp", recording)
    sib_unroll(proto_theta0(frozen, episodes), episodes, frozen, det_cfg())
    assert keeps == [False] * 3
    sib_unroll(proto_theta0(model, episodes), episodes, model, det_cfg())
    assert keeps[3:] == [True] * 3

    def beyond_output(n):
        rows = np.random.default_rng(1).normal(size=(n, task.k))
        tracemalloc.start()
        try:
            out = relu_mlp(rows, frozen.sg_layers(), False)[-1]
            return tracemalloc.get_traced_memory()[1] - out.nbytes
        finally:
            tracemalloc.stop()

    assert beyond_output(4800) <= 1.1 * beyond_output(1200)


def test_feature_detach_blocks_synthetic_path():
    model = build_fewshot_model(k=2, d_x=3, d_f=3, seed=6, train_f=True)
    rng = np.random.default_rng(11)
    model.params["xi_w3"].data[:] = rng.normal(size=model.params["xi_w3"].shape) * 0.5
    cfg_task = FewShotConfig(k=2, n_shot=1, n_query_per_class=2, d_x=3,
                             class_pool={"train": 4, "val": 2, "test": 2})
    ep = gen_fewshot_episode(cfg_task, "train", [derive_task_seed(8, "train", 0)])
    f_w = model.params["f_weight"]

    cfg = det_cfg(steps=2, eta_inner=0.1)
    zero_grad(list(model.params.values()))
    theta_k, _ = sib_unroll(global_theta0(model), ep, model, cfg)
    backward(theta_k.sum())
    assert f_w.grad is None
    # the feature map still learns, through the data term
    zero_grad(list(model.params.values()))
    theta_k, _ = sib_unroll(global_theta0(model), ep, model, cfg)
    backward(task_objective(ep, theta_k, model, cfg).sum())
    assert np.abs(f_w.grad).max() > 0


def test_maml_inner_identity_cases():
    model = build_toy_model(seed=0)
    ep = Episode(
        query_inputs=np.ones((1, 2, 1)), query_labels=np.ones((1, 2)),
        support_inputs=np.array([[[1.0], [2.0]]]), support_labels=np.array([[2.0, 4.0]]),
        task_seed=(0,),
    )
    theta0 = constant([[0.5]])
    out = maml_inner(theta0, ep, model, det_cfg(steps=0))
    np.testing.assert_array_equal(out.data, theta0.data)


def test_maml_inner_one_step_matches_analytic_gradient():
    # support {(1, 2), (2, 4)}: loss(theta) = mean((theta x - y)^2)
    # grad = 2 * mean(x (theta x - y)) at theta=0.5: 2*mean([1*(-1.5), 2*(-3)]) = -7.5
    model = build_toy_model(seed=0)
    ep = Episode(
        query_inputs=np.ones((1, 2, 1)), query_labels=np.ones((1, 2)),
        support_inputs=np.array([[[1.0], [2.0]]]), support_labels=np.array([[2.0, 4.0]]),
        task_seed=(0,),
    )
    out = maml_inner(constant([[0.5]]), ep, model, det_cfg(steps=1, eta_inner=0.1))
    assert out.data[0, 0] == pytest.approx(0.5 + 0.1 * 7.5, abs=1e-12)


def test_maml_inner_draws_by_the_unroll_rule():
    """At ``inner_draws`` 0 (toy's default) inner steps draw no weights, in
    the inductive baseline as in ``sib_unroll``."""
    model = build_toy_model(seed=0)
    ep = Episode(
        query_inputs=np.ones((1, 2, 1)), query_labels=np.ones((1, 2)), task_seed=(7,),
        support_inputs=np.array([[[1.0], [2.0]]]), support_labels=np.array([[2.0, 4.0]]),
    )
    knobs = dict(steps=2, eta_inner=0.1)
    no_draw = maml_inner(constant([[0.5]]), ep, model, det_cfg(**knobs)).data
    at_mean = maml_inner(constant([[0.5]]), ep, model, toy_cfg(inner_draws=0, **knobs))
    np.testing.assert_array_equal(at_mean.data, no_draw)
    drawn = maml_inner(constant([[0.5]]), ep, model, toy_cfg(inner_draws=3, **knobs))
    assert not np.array_equal(drawn.data, no_draw)


def test_maml_inner_requires_support():
    model = build_toy_model(seed=0)
    ep = gen_spinning_lines(ToyConfig(), [derive_task_seed(0, "train", 0)])
    with pytest.raises(ValueError):
        maml_inner(constant([[0.0]]), ep, model, det_cfg(steps=1))


def tape_maml_inner(theta0, episodes, model, cfg):
    """The inductive baseline as the tape differentiates it: at each step a
    leaf at the current iterate, the support loss at its draws averaged over
    them, and backward. The reference for ``maml_inner``'s closed form."""
    inputs, labels = episodes.support_inputs, episodes.support_labels
    theta = theta0.data.copy()
    for eps in sibcore._step_noise(episodes, cfg, model.head.theta_shape):
        leaf = param(theta.copy())
        w = cfg.posterior.draw(leaf, eps)
        backward(mean_over_draws(model.head.query_loss(inputs, labels, w), eps).sum())
        theta = theta - cfg.eta_inner * leaf.grad
    return theta


def inductive_case(init):
    """A model, a batch of episodes with a support set and theta_0 of the
    ``init`` kind ("proto", "global" or "toy"); every parameter requires grad,
    the feature map's too."""
    if init == "toy":
        model = build_toy_model(seed=1)
        ep = gen_spinning_lines(ToyConfig(n=6), [derive_task_seed(3, "train", i) for i in range(4)])
        ep = dataclasses.replace(ep, support_inputs=ep.query_inputs,
                                 support_labels=ep.query_labels)
        return model, ep, model.params["lambda_global"] + constant(np.full((4, 1), 0.3))
    model = build_fewshot_model(k=3, d_x=5, seed=4, train_f=True)
    cfg_task = FewShotConfig(k=3, n_shot=2, n_query_per_class=2, d_x=5,
                             class_pool={"train": 6, "val": 3, "test": 3})
    ep = gen_fewshot_episode(cfg_task, "train", [derive_task_seed(2, "train", i) for i in range(5)])
    if init == "proto":
        return model, ep, proto_theta0(model, ep)
    lam = model.params["lambda_global"]
    return model, ep, lam + constant(np.zeros((len(ep),) + lam.shape))


@pytest.mark.parametrize("regime", [DETERMINISTIC, GAUSSIAN_FIXED_VAR])
@pytest.mark.parametrize("init", ["proto", "global", "toy"])
def test_maml_inner_matches_the_tape_reference(init, regime):
    """The closed-form support-loss gradient steps are the tape's to rounding."""
    model, ep, theta0 = inductive_case(init)
    knobs = dict(steps=4, eta_inner=0.5)
    cfg = toy_cfg(inner_draws=3, **knobs) if regime == GAUSSIAN_FIXED_VAR else det_cfg(**knobs)
    out = maml_inner(theta0, ep, model, cfg).data
    ref = tape_maml_inner(theta0, ep, model, cfg)
    assert np.linalg.norm(ref - theta0.data) > 1e-2 * np.linalg.norm(theta0.data)
    assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("init", ["proto", "toy"])
def test_maml_inner_builds_no_tape(init, monkeypatch):
    """Every node the baseline makes is a constant, although the model's
    parameters and theta_0 require grad."""
    model, ep, theta0 = inductive_case(init)
    assert theta0.requires_grad and all(t.requires_grad for t in model.params.values())
    made = []
    make = dc._make

    def recording_make(data, parents, backward_fn):
        made.append(make(data, parents, backward_fn))
        return made[-1]

    monkeypatch.setattr(dc, "_make", recording_make)
    maml_inner(theta0, ep, model, toy_cfg(steps=3, eta_inner=0.5, inner_draws=2))
    assert made and not any(t.requires_grad for t in made)


def overflow_case(rule):
    """A run of ``rule`` whose step 0 is finite and whose step 1 overflows:
    a constant synthetic direction of 1.5 at a step size of 1e308, or the
    support gradient, -7.5 and then about 3.75e201, at 1e200."""
    ep = Episode(
        query_inputs=np.array([[[1.0], [2.0]]]), query_labels=np.zeros((1, 2)),
        support_inputs=np.array([[[1.0], [2.0]]]), support_labels=np.array([[2.0, 4.0]]),
        task_seed=(0,),
    )
    if rule == "sib_unroll":
        model = stub_xi_model_toy(1.0)
        return lambda steps: sib_unroll(constant([[0.0]]), ep, model,
                                        det_cfg(steps=steps, eta_inner=1e308))[0]
    model = build_toy_model(seed=0)
    return lambda steps: maml_inner(constant([[0.5]]), ep, model,
                                    det_cfg(steps=steps, eta_inner=1e200))


@pytest.mark.parametrize("rule", ["sib_unroll", "maml_inner"])
def test_a_step_to_non_finite_weights_names_that_step(rule):
    run = overflow_case(rule)
    assert np.all(np.isfinite(run(1).data))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InnerLoopError, match="non-finite inner update") as raised:
            run(3)
    assert raised.value.step == 1


def test_cross_entropy_perfect_logits_vanish():
    labels = [0, 1, 2]
    logits = constant(1e4 * np.eye(3))
    assert dc.softmax_cross_entropy(logits, labels).item() == pytest.approx(0.0, abs=1e-12)
    # posterior == prior (zero mean, unit variance) gives exactly zero KL
    prior_zero = prior_term(constant(np.zeros(1)), build_toy_model(seed=0),
                            toy_cfg(log_var=0.0))
    assert prior_zero.item() == pytest.approx(0.0, abs=1e-15)


def test_cross_entropy_rejects_bad_labels():
    with pytest.raises(ValueError):
        dc.softmax_cross_entropy(constant(np.zeros((2, 3))), [0, 3])


def test_toy_zero_residual_objective_is_pure_kl():
    model = build_toy_model(seed=0)
    model.params["psi_mean"].data[:] = 0.3
    model.params["psi_log_var"].data[:] = math.log(0.5)
    cfg = toy_cfg()
    ep = gen_spinning_lines(ToyConfig(), [derive_task_seed(6, "test", 4)])
    theta = constant([[ep.truth[0]]])
    data = data_term(ep, theta, model, cfg, eps=np.zeros((1, 1, 1)))
    assert data.data[0] == pytest.approx(0.0, abs=1e-25)
    kl = prior_term(theta, model, cfg)
    expected = kl_diag_gaussian(
        DiagGaussian(np.array([ep.truth[0]]), np.array([2 * math.log(0.1)])),
        DiagGaussian(np.array([0.3]), np.array([math.log(0.5)])),
    )
    assert kl.data[0] == pytest.approx(expected.item(), abs=1e-15)


def test_task_objective_matches_brute_force_recomputation():
    model = build_toy_model(seed=13)
    rng = np.random.default_rng(21)
    for name in ("xi_w3", "xi_b3", "psi_mean", "psi_log_var"):
        model.params[name].data[:] = rng.normal(size=model.params[name].shape) * 0.2
    cfg = toy_cfg(inner_draws=3, objective_draws=3)
    ep = gen_spinning_lines(ToyConfig(n=10), [derive_task_seed(10, "train", 7)])
    theta = 0.9
    out = task_objective(ep, constant([[theta]]), model, cfg).data[0]

    # brute force with the identical noise stream, no graph machinery
    from sgmeta.tasks import episode_rng
    from sgmeta.sibcore import STREAM_OBJECTIVE

    rng2 = episode_rng(ep.task_seed[0], stream=STREAM_OBJECTIVE)
    sw = math.exp(cfg.posterior.log_var / 2)
    x, y = ep.query_inputs[0, :, 0], ep.query_labels[0]
    data = 0.0
    for _ in range(3):
        eps = rng2.normal(size=1)[0]
        w = theta + sw * eps
        data += np.mean((w * x - y) ** 2)
    data /= 3
    mp, lvp = model.params["psi_mean"].data[0], model.params["psi_log_var"].data[0]
    vp = math.exp(lvp)
    kl = 0.5 * (lvp - cfg.posterior.log_var + (sw**2 + (theta - mp) ** 2) / vp - 1.0)
    assert out == pytest.approx(data + kl, abs=1e-12)


def test_ssl_init_steps_from_lambda():
    # one step from lambda: the displacement is linear in the step size
    model = build_fewshot_model(k=4, d_x=6, seed=1)
    cfg_task = FewShotConfig(k=4, n_shot=1, n_query_per_class=3, d_x=6,
                             class_pool={"train": 8, "val": 4, "test": 4})
    ep = gen_fewshot_episode(cfg_task, "train", [derive_task_seed(9, "train", 0)])
    lam = np.random.default_rng(2).normal(size=(4, 6))
    model.params["lambda_global"].data[:] = lam
    small = ssl_init(model, ep, det_cfg(eta_inner=1e-3)).data[0] - lam
    large = ssl_init(model, ep, det_cfg(eta_inner=3e-3)).data[0] - lam
    assert np.abs(small).max() > 0
    np.testing.assert_allclose(large, 3.0 * small, rtol=1e-9, atol=1e-15)


def test_ssl_init_is_data_dependent():
    model = build_fewshot_model(k=4, d_x=6, seed=1)
    model.params["lambda_global"].data[:] = np.random.default_rng(3).normal(size=(4, 6))
    cfg_task = FewShotConfig(k=4, n_shot=1, n_query_per_class=3, d_x=6,
                             class_pool={"train": 8, "val": 4, "test": 4})
    both_eps = gen_fewshot_episode(cfg_task, "train",
                                   [derive_task_seed(9, "train", i) for i in (1, 2)])
    cfg = det_cfg(eta_inner=0.1)
    both = ssl_init(model, both_eps, cfg)
    assert not np.array_equal(both.data[0], both.data[1])


def test_ssl_init_descends_for_small_rate():
    model = build_fewshot_model(k=4, d_x=6, seed=1)
    model.params["lambda_global"].data[:] = np.random.default_rng(5).normal(size=(4, 6))
    cfg_task = FewShotConfig(k=4, n_shot=1, n_query_per_class=5, d_x=6,
                             class_pool={"train": 8, "val": 4, "test": 4})
    ep = gen_fewshot_episode(cfg_task, "train", [derive_task_seed(12, "train", 4)])
    at_lambda = ssl_loss(model, ep, model.params["lambda_global"].data)
    theta0 = ssl_init(model, ep, det_cfg(eta_inner=1e-3))
    at_theta0 = ssl_loss(model, ep, theta0.data[0])
    assert at_theta0 <= at_lambda


def ssl_loss(model, ep, theta_data):
    """Self-supervised cross entropy at fixed task weights."""
    aug, ssl_labels = orthogonal_transform_labeler(apply_features(model, ep.query_inputs[0]).data)
    logits = dc.cosine_logits(constant(aug), constant(theta_data), model.params["classifier_scale"])
    ssl_logits = dc.matmul(logits, constant(_ssl_projection(model.k)))
    return dc.softmax_cross_entropy(ssl_logits, ssl_labels).item()


def test_ssl_labeler_is_orthogonal():
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(3, 8))
    aug, labels = orthogonal_transform_labeler(feats)
    assert aug.shape == (12, 8)
    np.testing.assert_array_equal(labels, np.repeat([0, 1, 2, 3], 3))
    # every transform preserves norms
    base = np.linalg.norm(feats, axis=1)
    for j in range(4):
        np.testing.assert_allclose(np.linalg.norm(aug[3 * j : 3 * (j + 1)], axis=1), base)
    # a batch of rows is labeled at once: bitwise each episode's, one label row for all
    batch = np.stack([feats, rng.normal(size=(3, 8))])
    batch_aug, batch_labels = orthogonal_transform_labeler(batch)
    for rows, rows_aug in zip(batch, batch_aug):
        np.testing.assert_array_equal(rows_aug, orthogonal_transform_labeler(rows)[0])
    np.testing.assert_array_equal(batch_labels, labels)


def test_lambda_receives_gradient_on_generic_episode():
    model = build_toy_model(seed=3)
    rng = np.random.default_rng(14)
    for name in ("xi_w3", "xi_b3"):
        model.params[name].data[:] = rng.normal(size=model.params[name].shape) * 0.4
    ep = gen_spinning_lines(ToyConfig(n=8), [derive_task_seed(3, "train", 0)])
    cfg = toy_cfg(steps=2, eta_inner=0.05)
    zero_grad(list(model.params.values()))
    theta_k, _ = sib_unroll(global_theta0(model), ep, model, cfg)
    backward(task_objective(ep, theta_k, model, cfg).sum())
    assert np.abs(model.params["lambda_global"].grad).max() > 0


# -- Monte-Carlo noise: one stream per episode ---------------------------------------


def per_draw_noise(episodes, stream, count, shape):
    """``_noise`` as a loop over draws, one fresh generator per episode."""
    size = int(np.prod(shape))
    rngs = [episode_rng(task_seed, stream=stream) for task_seed in episodes.task_seed]
    eps = np.array([[rng.normal(size=size) for rng in rngs] for _ in range(count)])
    return eps.reshape((count, len(episodes)) + tuple(shape))


@pytest.mark.parametrize("stream", [STREAM_INNER, STREAM_OBJECTIVE])
@pytest.mark.parametrize("count,shape", [(1, (1,)), (6, (1,)), (3, (5, 16))])
def test_noise_is_contiguous_and_bitwise_the_per_draw_loop(stream, count, shape):
    episodes = gen_spinning_lines(ToyConfig(n=4),
                                  [derive_task_seed(1, "train", i) for i in range(5)])
    got = _noise(episodes, stream, count, shape)
    want = per_draw_noise(episodes, stream, count, shape)
    assert got.flags.c_contiguous
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_toy_training_with_inner_draws_is_bytewise_the_per_draw_noises(tmp_path, monkeypatch):
    config = tmp_path / "toy.json"
    config.write_text(json.dumps({
        "mode": "toy", "epochs": 2, "batch_tasks": 4,
        "toy": {"n": 16, "n_train_tasks": 16, "n_test_tasks": 40},
        "inner": {"posterior": {"inner_draws": 2}},
    }))

    def metrics(name):
        out = tmp_path / name
        assert main(["train-toy", "--config", str(config), "--out", str(out)]) == 0
        return (out / "metrics.csv").read_bytes()

    shared = metrics("shared")
    monkeypatch.setattr(sibcore, "_noise", per_draw_noise)
    assert shared == metrics("per-draw")
