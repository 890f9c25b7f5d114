"""The fused ops of diffcore against the composites they replace, written
out here as the reference: forward values bitwise equal, gradients to 1e-13
relative against elementary ops (bitwise for the network helpers), and
central differences to 1e-6 on 2-D, stacked (B, ., .) and Monte-Carlo
(M, B, k, d) weights against (B, n, d) features. The two synthetic-gradient
direction rules are bitwise the chains of fused nodes they replace, in
values and gradients. The one-node unroll (``diffcore.descent``) is bitwise
the per-step graph it replaces, the prior's pull of elementary ops
included: in every iterate, in every gradient, and in the bytes a training
run writes.

The per-task objective's three term nodes (``prior_divergence``,
``linear_squared_error``, ``softmax_cross_entropy``) are checked against the
elementary-op objective they replace, stop-gradient split included: each
op bitwise its chain in values and gradients, and the objective bitwise
wherever it keeps the chain's order."""

import json
from pathlib import Path

import numpy as np
import pytest

from sgmeta import diffcore as dc
from sgmeta.cli import main
from sgmeta.diffcore import GraphError, Tensor, check_gradients, constant, matmul, param
from sgmeta.distributions import (
    DETERMINISTIC,
    GAUSSIAN_FIXED_VAR,
    DiagGaussian,
    Deterministic,
    GaussianFixedVar,
)
from sgmeta.models import (
    CosineHead,
    ToyHead,
    apply_features,
    build_fewshot_model,
    build_toy_model,
    mean_over_draws,
)
import sgmeta.sibcore as sibcore
from sgmeta import analysis, trainer
from sgmeta.sibcore import (
    InnerLoopConfig,
    objective_noise,
    prior_dist,
    prior_term,
    task_objective,
)
from sgmeta.tasks import (
    FewShotConfig,
    ToyConfig,
    derive_task_seed,
    gen_fewshot_episode,
    gen_spinning_lines,
)
from sgmeta.trainer import (build_model, config_from_dict, episode_objective, episodes_for,
                            make_theta0)

GRAD_RTOL = 1e-13


# -- the composites --------------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    def back(g):
        dc._accum(a, g * (a.data > 0.0))

    return dc._make(np.maximum(a.data, 0.0), (a,), back)


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)

    def back(g):
        dc._accum(a, g * 0.5 / out)

    return dc._make(out, (a,), back)


def div(a: Tensor, b: Tensor) -> Tensor:
    out = a.data / b.data

    def back(g):
        if a.requires_grad:
            dc._accum(a, dc._unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            dc._accum(b, dc._unbroadcast(-g * out / b.data, b.shape))

    return dc._make(out, (a, b), back)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""

    def back(g):
        dc._accum(a, np.swapaxes(g, -1, -2))

    return dc._make(np.swapaxes(a.data, -1, -2).copy(), (a,), back)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)

    def back(g):
        dc._accum(a, g * out)

    return dc._make(out, (a,), back)


def square(a: Tensor) -> Tensor:
    def back(g):
        dc._accum(a, g * 2.0 * a.data)

    return dc._make(a.data * a.data, (a,), back)


def row_norm(a: Tensor) -> Tensor:
    return sqrt(dc.tsum(square(a), axis=-1, keepdims=True))


def relu_mlp(x: Tensor, layers) -> Tensor:
    """The network helpers of the direction ops as a node of their own, on
    the rows of (..., d) inputs."""
    acts = dc._relu_mlp(x.data.reshape(-1, x.shape[-1]), layers, True)

    def back(g):
        g_x = dc._relu_mlp_back(g.reshape(acts[-1].shape), acts, layers, x.requires_grad)
        if g_x is not None:
            dc._accum(x, g_x.reshape(x.shape))

    params = tuple(t for layer in layers for t in layer)
    return dc._make(acts[-1].reshape(x.shape[:-1] + acts[-1].shape[-1:]), (x,) + params, back)


def mlp_composite(x: Tensor, layers) -> Tensor:
    rows = x.reshape(-1, x.shape[-1])
    for i, (w, b) in enumerate(layers):
        rows = matmul(rows, w) + b
        if i < len(layers) - 1:
            rows = relu(rows)
    return rows.reshape(x.shape[:-1] + (rows.shape[-1],))


def cosine_parts(features: Tensor, theta: Tensor, scale: Tensor):
    a = row_norm(features)
    b = row_norm(theta)
    dots = matmul(features, transpose(theta))
    inv_denom = div(constant(1.0), matmul(a, transpose(b)) + dc.COSINE_EPS)
    return scale * (dots * inv_denom), dots, inv_denom, a, b


def cosine_vjp_composite(features: Tensor, theta: Tensor, scale: Tensor, seed: Tensor) -> Tensor:
    _, dots, inv_denom, a, b = cosine_parts(features, theta, scale)
    term1 = scale * matmul(transpose(seed * inv_denom), features)
    m = dc.tsum(seed * dots * inv_denom * inv_denom * a, axis=-2)
    ratio = div(m, b.reshape(b.shape[:-1]))
    return term1 - scale * (ratio.reshape(ratio.shape + (1,)) * theta)


def prior_pull_composite(x: Tensor, mean: Tensor, log_var: Tensor) -> Tensor:
    return (x - mean) * exp(dc.scale(log_var, -1.0))


def log(a: Tensor) -> Tensor:
    def back(g):
        dc._accum(a, g / a.data)

    return dc._make(np.log(a.data), (a,), back)


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    count = a.size if axis is None else a.shape[axis]

    def back(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        dc._accum(a, np.broadcast_to(g, a.shape) / count)

    return dc._make(a.data.mean(axis=axis, keepdims=keepdims), (a,), back)


def take_per_row(a: Tensor, col_indices) -> Tensor:
    """a[..., i, col_indices[..., i]]: one entry of the last axis per row."""
    idx = np.broadcast_to(np.asarray(col_indices, dtype=np.int64), a.shape[:-1])[..., None]

    def back(g):
        acc = np.zeros_like(a.data)
        np.put_along_axis(acc, idx, g[..., None], axis=-1)
        dc._accum(a, acc)

    return dc._make(np.take_along_axis(a.data, idx, axis=-1)[..., 0], (a,), back)


# the per-task objective of elementary ops


def cross_entropy_chain(logits: Tensor, labels) -> Tensor:
    """Mean cross entropy over the rows of (..., n, k) logits."""
    shifted = logits - constant(logits.data.max(axis=-1, keepdims=True))
    lse = log(dc.tsum(exp(shifted), axis=-1))
    return tmean(lse - take_per_row(shifted, labels), axis=-1)


def kl_diag_gaussian(q: DiagGaussian, p: DiagGaussian) -> Tensor:
    """KL(q || p) over the last axis,
    0.5 * sum(log(vp / vq) + (vq + (mq - mp)^2) / vp - 1)."""
    log_ratio = p.log_var - q.log_var
    inv_vp = exp(dc.scale(p.log_var, -1.0))
    diff = q.mean - p.mean
    quad = (exp(q.log_var) + square(diff)) * inv_vp
    return dc.scale((log_ratio + quad - 1.0).sum(axis=-1), 0.5)


def dirac_prior_term(theta_flat: Tensor, p: DiagGaussian) -> Tensor:
    """The point-mass posterior's prior term."""
    quad = square(theta_flat - p.mean) * exp(dc.scale(p.log_var, -1.0))
    return dc.scale((quad + p.log_var).sum(axis=-1), 0.5)


def prior_term_chain(theta: Tensor, model, cfg) -> Tensor:
    flat = model.head.flat(theta)
    if not cfg.posterior.random:
        return dirac_prior_term(flat, prior_dist(model))
    q = DiagGaussian(flat, constant(np.full(flat.shape, cfg.posterior.log_var)))
    return kl_diag_gaussian(q, prior_dist(model))


def query_loss_chain(model, inputs, labels, w: Tensor, sum_convention: bool) -> Tensor:
    if model.mode == "toy":
        sq = square(w * constant(inputs[..., 0]) - constant(labels))
        return sq.sum(axis=-1) if sum_convention else tmean(sq, axis=-1)
    feats = apply_features(model, inputs)
    return cross_entropy_chain(dc.cosine_logits(feats, w, model.params["classifier_scale"]),
                               labels)


def data_term_chain(episodes, theta: Tensor, model, cfg, eps) -> Tensor:
    posterior = cfg.posterior
    eps = eps if posterior.objective_draws else None
    loss = query_loss_chain(model, episodes.query_inputs, episodes.query_labels,
                            posterior.draw(theta, eps), cfg.sum_convention)
    return mean_over_draws(loss, eps)


def task_objective_chain(episodes, theta: Tensor, model, cfg, kl_weight: float) -> Tensor:
    """The objective with the prior term split at a stop-gradient: a second
    prior term on a constant copy of theta."""
    loss = data_term_chain(episodes, theta, model, cfg, objective_noise(theta, episodes, cfg))
    if kl_weight != 0.0:
        loss = loss + dc.scale(prior_term_chain(theta, model, cfg), kl_weight)
    if kl_weight != 1.0:
        loss = loss + dc.scale(prior_term_chain(constant(theta.data), model, cfg),
                               1.0 - kl_weight)
    return loss


# the synthetic-gradient directions as chains of fused nodes


def cosine_sg_chain(features: Tensor, theta: Tensor, scale: Tensor, layers,
                    seed_scale: float) -> Tensor:
    g = relu_mlp(dc.cosine_logits(features, theta, scale), layers)
    seed = g if seed_scale == 1.0 else dc.scale(g, seed_scale)
    return dc.cosine_vjp(features, theta, scale, seed)


def linear_sg_chain(theta: Tensor, x: Tensor, layers, mean: bool) -> Tensor:
    y_hat = theta * x
    gx = relu_mlp(y_hat.reshape(-1, 1), layers).reshape(y_hat.shape) * x
    return tmean(gx, axis=-1, keepdims=True) if mean else gx.sum(axis=-1, keepdims=True)


def direction_chain(model, w, inputs, _, sum_convention):
    """The head's synthetic-gradient direction at weights w, built from the
    chain, on its inner inputs."""
    if model.mode == "toy":
        return linear_sg_chain(w, inputs, model.sg_layers(), not sum_convention)
    seed_scale = 1.0 if sum_convention else 1.0 / inputs.shape[-2]
    return cosine_sg_chain(inputs, w, model.params["classifier_scale"], model.sg_layers(),
                           seed_scale)


def direction_node(rule, theta):
    """A direction rule's values and VJP at weights theta as a node of its
    own, as the direction ops were."""
    values, vjp = rule[0](theta)
    return dc._make(values, (theta,) + tuple(rule[1]), vjp)


# the unroll as the per-step graph it replaces


def sib_unroll_chain(theta0, episodes, model, cfg):
    """``sib_unroll`` with each inner step a graph of its own: the direction
    chain at each weight draw (the posterior section's ``draw``), its mean over the draws,
    the prior's pull of elementary ops, an add, a scale by eta and a sub."""
    inputs = model.head.inner_inputs(episodes.query_inputs)
    posterior = cfg.posterior
    thetas = [theta0]
    for eps in sibcore._step_noise(episodes, cfg, model.head.theta_shape):
        theta = thetas[-1]
        step = mean_over_draws(direction_chain(model, posterior.draw(theta, eps), *inputs,
                                               cfg.sum_convention), eps)
        if cfg.kl_in_inner:
            prior = prior_dist(model)
            kl_dir = prior_pull_composite(model.head.flat(theta), prior.mean, prior.log_var)
            step = step + kl_dir.reshape(theta.shape)
        thetas.append(theta - dc.scale(step, cfg.eta_inner))
    return thetas[-1], thetas


# -- comparison ------------------------------------------------------------------


def leaf_grads(out, leaves):
    """``backward(out)``, then each leaf's gradient: zeros for a leaf the
    output does not reach."""
    dc.backward(out)
    return [np.zeros_like(t.data) if t.grad is None else t.grad for t in leaves]


def _run(build, leaves, weights):
    """Output values and the gradients of sum(output * weights)."""
    dc.zero_grad(leaves)
    out = build()
    return out.data, leaf_grads((out * constant(weights)).sum(), leaves)


def assert_matches(fused, composite, leaves, bitwise_grads=False):
    shape = fused().shape
    weights = np.random.default_rng(99).normal(size=shape)
    out_f, grads_f = _run(fused, leaves, weights)
    out_c, grads_c = _run(composite, leaves, weights)
    np.testing.assert_array_equal(out_f, out_c)
    for g_f, g_c in zip(grads_f, grads_c):
        assert g_f.shape == g_c.shape
        if bitwise_grads:
            np.testing.assert_array_equal(g_f, g_c)
        else:
            np.testing.assert_allclose(g_f, g_c, rtol=0, atol=GRAD_RTOL * np.abs(g_c).max())


# (features, weights) shapes: 2-D, stacked, and Monte-Carlo draws of stacked
# weights against the per-episode features
COSINE_SHAPES = {
    "2d": ((7, 4), (3, 4)),
    "stacked": ((2, 7, 4), (2, 3, 4)),
    "draws": ((2, 7, 4), (3, 2, 3, 4)),
}
MLP_INPUTS = {"2d": (6, 3), "stacked": (2, 6, 3), "draws": (4, 2, 6, 3)}
# (inputs, slopes) shapes of the linear head, likewise
LINEAR_SHAPES = {"2d": ((5,), (1,)), "stacked": ((2, 5), (2, 1)), "draws": ((2, 5), (3, 2, 1))}


def _mlp_layers(rng, widths):
    return [(param(rng.normal(size=(d_in, d_out))), param(rng.normal(size=d_out) * 0.5))
            for d_in, d_out in zip(widths, widths[1:])]


@pytest.mark.parametrize("case", list(MLP_INPUTS))
def test_relu_mlp_is_bitwise_its_composite(case):
    rng = np.random.default_rng(1)
    x = param(rng.normal(size=MLP_INPUTS[case]))
    layers = _mlp_layers(rng, (3, 24, 24, 3))
    leaves = [x] + [t for layer in layers for t in layer]
    assert_matches(lambda: relu_mlp(x, layers), lambda: mlp_composite(x, layers), leaves,
                   bitwise_grads=True)


@pytest.mark.parametrize("rows", [0, 999, 1000, 1600, 2000, 2100])
def test_relu_mlp_blocks_give_each_row_its_one_block_output(rows):
    """Without ``keep`` the network runs in blocks of 1000 rows here (24
    wide), with tiled biases from two blocks on; each output row is bitwise
    the one all the rows give as one block."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=(rows, 3))
    layers = _mlp_layers(rng, (3, 24, 24, 3))
    whole = dc._relu_mlp(x, layers, True)
    blocked = dc._relu_mlp(x, layers, False)
    assert len(whole) == 4 and len(blocked) == 2 and blocked[0] is x
    np.testing.assert_array_equal(blocked[1], whole[-1])


def test_relu_mlp_gradient_skips_constant_inputs():
    """With a constant input, only the layer parameters get gradients."""
    rng = np.random.default_rng(2)
    x = constant(rng.normal(size=(2, 5, 3)))
    layers = _mlp_layers(rng, (3, 6, 3))
    leaves = [t for layer in layers for t in layer]
    assert_matches(lambda: relu_mlp(x, layers), lambda: mlp_composite(x, layers), leaves,
                   bitwise_grads=True)
    check_gradients(lambda: square(relu_mlp(x, layers)).sum(), leaves, tol=1e-6)


@pytest.mark.parametrize("case", list(COSINE_SHAPES))
def test_cosine_logits_matches_composite(case):
    rng = np.random.default_rng(3)
    f_shape, t_shape = COSINE_SHAPES[case]
    features, theta = param(rng.normal(size=f_shape)), param(rng.normal(size=t_shape))
    scale = param(7.5)
    assert_matches(lambda: dc.cosine_logits(features, theta, scale),
                   lambda: cosine_parts(features, theta, scale)[0], [features, theta, scale])


@pytest.mark.parametrize("case", list(COSINE_SHAPES))
def test_cosine_vjp_matches_composite(case):
    rng = np.random.default_rng(4)
    f_shape, t_shape = COSINE_SHAPES[case]
    features = constant(rng.normal(size=f_shape))
    theta, scale = param(rng.normal(size=t_shape)), param(7.5)
    seed_shape = np.broadcast_shapes(f_shape[:-2], t_shape[:-2]) + (f_shape[-2], t_shape[-2])
    seed = param(rng.normal(size=seed_shape))
    assert_matches(lambda: dc.cosine_vjp(features, theta, scale, seed),
                   lambda: cosine_vjp_composite(features, theta, scale, seed),
                   [theta, scale, seed])


def _cosine_rule(features, scale, layers, seed_scale):
    return dc._cosine_sg_direction(features, scale, layers, seed_scale,
                                   dc.row_norms(features.data))


@pytest.mark.parametrize("case", list(COSINE_SHAPES))
def test_fused_ops_match_finite_differences(case):
    """``cosine_logits``, and the direction rules as nodes of their own (the
    unroll's cases are ``sgmeta gradcheck``'s)."""
    rng = np.random.default_rng(6)
    f_shape, t_shape = COSINE_SHAPES[case]
    features, theta = param(rng.normal(size=f_shape)), param(rng.normal(size=t_shape))
    scale = param(2.5)
    layers = _mlp_layers(rng, (t_shape[-2], 8, t_shape[-2]))
    rule = _cosine_rule(constant(features.data), scale, layers, 0.5)

    check_gradients(lambda: square(direction_node(rule, theta)).sum(), [theta, *rule[1]],
                    h=1e-6, tol=1e-6)
    check_gradients(lambda: square(dc.cosine_logits(features, theta, scale)).sum(),
                    [features, theta, scale], h=1e-6, tol=1e-6)
    x_shape, slope_shape = LINEAR_SHAPES[case]
    x, slope = constant(rng.normal(size=x_shape)), param(rng.normal(size=slope_shape))
    toy_rule = dc._linear_sg_direction(x, _mlp_layers(rng, (1, 8, 1)), True)
    check_gradients(lambda: square(direction_node(toy_rule, slope)).sum(), [slope, *toy_rule[1]],
                    h=1e-6, tol=1e-6)


def test_cosine_vjp_rejects_features_that_require_grad():
    rng = np.random.default_rng(7)
    features = param(rng.normal(size=(5, 3)))
    theta, seed = param(rng.normal(size=(2, 3))), param(rng.normal(size=(5, 2)))
    with pytest.raises(GraphError, match="features must be constant"):
        dc.cosine_vjp(features, theta, param(1.0), seed)


# -- the synthetic-gradient directions --------------------------------------------


def _leaves(*tensors, layers):
    return [t for t in tensors if t.requires_grad] + [t for layer in layers for t in layer]


@pytest.mark.parametrize("seed_scale", [1.0, 1.0 / 7], ids=["sum", "mean"])
@pytest.mark.parametrize("case", list(COSINE_SHAPES))
def test_cosine_sg_direction_is_bitwise_its_chain(case, seed_scale):
    rng = np.random.default_rng(8)
    f_shape, t_shape = COSINE_SHAPES[case]
    features = constant(rng.normal(size=f_shape))
    theta, scale = param(rng.normal(size=t_shape)), param(7.5)
    layers = _mlp_layers(rng, (3, 24, 24, 3))
    rule = _cosine_rule(features, scale, layers, seed_scale)
    # theta is also a summand of the output, as of the next inner step, so
    # the order its three cotangents add up in shows
    assert_matches(
        lambda: direction_node(rule, theta) + theta,
        lambda: cosine_sg_chain(features, theta, scale, layers, seed_scale) + theta,
        _leaves(theta, scale, layers=layers), bitwise_grads=True)


@pytest.mark.parametrize("mean", [True, False], ids=["mean", "sum"])
@pytest.mark.parametrize("case", list(LINEAR_SHAPES))
def test_linear_sg_direction_is_bitwise_its_chain(case, mean):
    rng = np.random.default_rng(9)
    x_shape, slope_shape = LINEAR_SHAPES[case]
    x, slope = constant(rng.normal(size=x_shape)), param(rng.normal(size=slope_shape))
    layers = _mlp_layers(rng, (1, 8, 8, 1))
    assert_matches(lambda: direction_node(dc._linear_sg_direction(x, layers, mean), slope) + slope,
                   lambda: linear_sg_chain(slope, x, layers, mean) + slope,
                   _leaves(slope, layers=layers), bitwise_grads=True)


def test_direction_ops_give_a_constant_theta_no_cotangent():
    """With constant weights, only the scale and the layers get cotangents,
    bitwise the chain's."""
    rng = np.random.default_rng(10)
    features, theta = constant(rng.normal(size=(2, 7, 4))), constant(rng.normal(size=(3, 2, 3, 4)))
    scale = param(2.0)
    layers = _mlp_layers(rng, (3, 6, 3))
    assert_matches(lambda: direction_node(_cosine_rule(features, scale, layers, 0.25), theta),
                   lambda: cosine_sg_chain(features, theta, scale, layers, 0.25),
                   _leaves(scale, layers=layers), bitwise_grads=True)
    slope, x = constant(rng.normal(size=(3, 2, 1))), constant(rng.normal(size=(2, 5)))
    toy_layers = _mlp_layers(rng, (1, 6, 1))
    assert_matches(lambda: direction_node(dc._linear_sg_direction(x, toy_layers, True), slope),
                   lambda: linear_sg_chain(slope, x, toy_layers, True),
                   _leaves(layers=toy_layers), bitwise_grads=True)
    assert theta.grad is None and slope.grad is None


def test_direction_ops_reject_inputs_that_require_grad():
    rng = np.random.default_rng(11)
    layers = _mlp_layers(rng, (2, 4, 2))
    features = param(rng.normal(size=(5, 3)))
    with pytest.raises(GraphError, match="cosine_sg_direction: features must be constant"):
        dc._cosine_sg_direction(features, param(1.0), layers, 1.0, dc.row_norms(features.data))
    with pytest.raises(GraphError, match="linear_sg_direction: inputs must be constant"):
        dc._linear_sg_direction(param(rng.normal(size=4)), _mlp_layers(rng, (1, 4, 1)), True)


# -- the one-node unroll ----------------------------------------------------------------

_TASK = {"k": 3, "n_shot": 2, "n_query_per_class": 3, "d_x": 5,
         "class_pool": {"train": 8, "val": 4, "test": 4}}
_GAUSSIAN_DRAWS = {"posterior": {"regime": GAUSSIAN_FIXED_VAR, "inner_draws": 2,
                                  "objective_draws": 2}}
# run configs: both conventions, inner draws and the pull, each theta_0 rule
UNROLLS = {
    "toy-mean": {"mode": "toy", "inner": {"eta_inner": 0.1, "sum_convention": False}},
    "toy-sum": {"mode": "toy", "inner": {"eta_inner": 0.01, "sum_convention": True}},
    "toy-draws": {"mode": "toy", "inner": {"eta_inner": 0.1, "sum_convention": False,
                                           "posterior": {"inner_draws": 2}}},
    "fewshot-deterministic-pull": {"mode": "fewshot", "fewshot": _TASK, "inner": {
        "eta_inner": 0.3, "kl_in_inner": True, "posterior": {"regime": DETERMINISTIC}}},
    "fewshot-gaussian-draws": {"mode": "fewshot", "fewshot": _TASK, "inner": {
        "eta_inner": 0.3, "kl_in_inner": True, **_GAUSSIAN_DRAWS}},
    "fewshot-global": {"mode": "fewshot", "fewshot": _TASK, "theta_init": "global",
                       "inner": {"eta_inner": 0.3, "sum_convention": True}},
    "fewshot-ssl": {"mode": "fewshot", "fewshot": _TASK, "theta_init": "ssl", "train_f": True,
                    "inner": {"eta_inner": 0.3, "kl_in_inner": True, **_GAUSSIAN_DRAWS}},
    "fewshot-constant-theta0": {"mode": "fewshot", "fewshot": _TASK, "inner": {
        "eta_inner": 0.3, "kl_in_inner": True, **_GAUSSIAN_DRAWS}},
}


def unroll_case(name, steps):
    """The run config ``name`` at ``steps`` inner steps, its model with every
    trainable parameter drawn away from its initialization (the
    synthetic-gradient net's zero last layer included), and a batch of 3
    episodes."""
    data = UNROLLS[name]
    cfg = config_from_dict({**data, "inner": {**data["inner"], "steps": steps}})
    model = build_model(cfg)
    rng = np.random.default_rng(16)
    for t in model.trainable().values():
        t.data = t.data + rng.normal(size=t.shape) * 0.3
    return cfg, model, episodes_for(cfg, "train", range(3))


@pytest.mark.parametrize("steps", [0, 1, 3])
@pytest.mark.parametrize("name", list(UNROLLS))
def test_unroll_node_is_bitwise_the_step_chain(name, steps):
    """theta_K, every iterate and every parameter's gradient of the training
    objective through the unroll, and theta_0's, bitwise the per-step
    graph's."""
    cfg, model, episodes = unroll_case(name, steps)
    leaves = list(model.trainable().values())

    def run(unroll):
        dc.zero_grad(leaves)
        theta0 = make_theta0(model, episodes, cfg)
        if name.endswith("constant-theta0"):
            theta0 = constant(theta0.data)
        elif steps:
            assert theta0.requires_grad
        theta_k, thetas = unroll(theta0, episodes, model, cfg.inner)
        losses = task_objective(episodes, theta_k, model, cfg.inner, cfg.outer_kl_weight)
        grads = leaf_grads((losses * constant([0.5, -1.0, 2.0])).sum() + theta0.sum(), leaves)
        return [t.data for t in thetas], grads, theta0.grad

    thetas, grads, theta0_grad = run(sibcore.sib_unroll)
    ref_thetas, ref_grads, ref_theta0_grad = run(sib_unroll_chain)
    assert len(thetas) == steps + 1
    for t, ref in zip(thetas, ref_thetas):
        np.testing.assert_array_equal(t, ref)
    for g, ref in zip(grads, ref_grads):
        np.testing.assert_array_equal(g, ref)
    if ref_theta0_grad is not None:
        np.testing.assert_array_equal(theta0_grad, ref_theta0_grad)
    assert (theta0_grad is None) == name.endswith("constant-theta0")
    if steps:
        assert not np.array_equal(thetas[-1], thetas[0])
        assert np.abs(model.params["xi_w1"].grad).max() > 0


# Tiny training runs: few-shot proto in the deterministic and the Gaussian
# regime, toy with inner draws. Fast outer and inner rates make the
# synthetic-gradient net matter within a few steps, so a change in the last
# bit of a direction or its cotangents reaches the outputs.
_FEWSHOT = {"mode": "fewshot", "total_steps": 6, "batch_tasks": 2, "eval_every": 3,
            "val_pool_size": 3, "eval_episodes": 4, "learning_rate": 0.05,
            "fewshot": {"k": 3, "n_shot": 1, "n_query_per_class": 4, "d_x": 6,
                        "class_pool": {"train": 8, "val": 4, "test": 4}}}
BYTE_RUNS = {
    "fewshot-deterministic": ("train-fewshot", {**_FEWSHOT, "inner": {"eta_inner": 0.5}}),
    "fewshot-gaussian": ("train-fewshot", {**_FEWSHOT, "inner": {
        "eta_inner": 0.5, **_GAUSSIAN_DRAWS}}),
    "toy-inner-draws": ("train-toy", {
        "mode": "toy", "epochs": 3, "batch_tasks": 4, "learning_rate": 0.05,
        "toy": {"n": 12, "n_train_tasks": 8, "n_test_tasks": 6},
        "inner": {"posterior": {"inner_draws": 2}, "eta_inner": 0.1}}),
}


@pytest.mark.parametrize("run", list(BYTE_RUNS))
def test_training_is_bytewise_the_chain_of_fused_nodes(tmp_path, monkeypatch, run):
    """The golden runs compare to 1e-12, which a change of rounding passes:
    these runs' metrics and checkpoints are byte-identical with every inner
    step a graph of its own, the directions built from the chains."""
    command, config = BYTE_RUNS[run]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))

    def outputs(name):
        out = tmp_path / name
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        return {f: (out / f).read_bytes() for f in ("metrics.csv", "checkpoint.json")}

    fused = outputs("fused")
    for module in (trainer, analysis):
        monkeypatch.setattr(module, "sib_unroll", sib_unroll_chain)
    assert outputs("chain") == fused


# -- the per-task objective ---------------------------------------------------------


def objective_case(head, regime, sum_convention, draws, batch):
    """A model with a generic prior, a batch of episodes, an inner config, and
    adapted weights that are a leaf of their own; returns those and every
    leaf that takes a gradient."""
    rng = np.random.default_rng(12)
    seeds = [derive_task_seed(3, "train", i) for i in range(batch)]
    if head == "toy":
        model = build_toy_model(seed=2)
        episodes = gen_spinning_lines(ToyConfig(n=6), seeds)
    else:
        model = build_fewshot_model(k=3, d_x=4, seed=2, train_f=True)
        task = FewShotConfig(k=3, n_shot=1, n_query_per_class=2, d_x=4,
                             class_pool={"train": 8, "val": 4, "test": 4})
        episodes = gen_fewshot_episode(task, "train", seeds)
    for name in ("psi_mean", "psi_log_var"):
        model.params[name].data = rng.normal(size=model.params[name].shape) * 0.5
    theta = param(rng.normal(size=(batch,) + model.head.theta_shape))
    posterior = GaussianFixedVar(log_var=-3.0, objective_draws=draws) \
        if regime == GAUSSIAN_FIXED_VAR else Deterministic()
    cfg = InnerLoopConfig(sum_convention=sum_convention, posterior=posterior)
    leaves = [theta] + [t for _, t in sorted(model.params.items()) if t.requires_grad]
    return model, episodes, cfg, theta, leaves


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("draws", [1, 8])
@pytest.mark.parametrize("sum_convention", [False, True], ids=["mean", "sum"])
@pytest.mark.parametrize("kl_weight", [0.0, 0.05, 1.0])
@pytest.mark.parametrize("regime", [GAUSSIAN_FIXED_VAR, DETERMINISTIC])
@pytest.mark.parametrize("head", ["toy", "cosine"])
def test_task_objective_is_its_elementary_chain(head, regime, kl_weight, sum_convention, draws,
                                                batch):
    """The value and every gradient, the adapted weights' included, bitwise
    where the fused objective keeps the chain's order: a weight of 0 or 1,
    where the chain adds one prior term. Otherwise it adds two, so the
    fused objective is within 1e-12 relative."""
    model, episodes, cfg, theta, leaves = objective_case(head, regime, sum_convention, draws,
                                                         batch)
    weights = np.random.default_rng(99).normal(size=batch)
    out_f, grads_f = _run(lambda: task_objective(episodes, theta, model, cfg, kl_weight), leaves,
                          weights)
    out_c, grads_c = _run(lambda: task_objective_chain(episodes, theta, model, cfg, kl_weight),
                          leaves, weights)
    tol = 0.0 if kl_weight in (0.0, 1.0) else 1e-12
    np.testing.assert_allclose(out_f, out_c, rtol=tol, atol=0)
    for g_f, g_c in zip(grads_f, grads_c):
        np.testing.assert_allclose(g_f, g_c, rtol=0, atol=tol * np.abs(g_c).max())


@pytest.mark.parametrize("regime", [GAUSSIAN_FIXED_VAR, DETERMINISTIC])
@pytest.mark.parametrize("head", ["toy", "cosine"])
def test_prior_term_splits_only_the_adapted_weights_cotangent(head, regime):
    """Central differences cannot see the stop-gradient split: the adapted
    weights' cotangent is the pull weight times its weight-1 value, and the
    prior's cotangents and the term's value do not depend on the weight."""
    model, _, cfg, theta, _ = objective_case(head, regime, False, 1, 3)
    prior = [model.params["psi_mean"], model.params["psi_log_var"]]

    def run(weight):
        dc.zero_grad([theta] + prior)
        out = prior_term(theta, model, cfg, weight)
        return out.data, leaf_grads(out.sum(), [theta] + prior)

    value, (g_theta, *g_prior) = run(1.0)
    assert np.abs(g_theta).min() > 0
    for weight in (0.0, 0.05, 0.5):
        value_w, (g_theta_w, *g_prior_w) = run(weight)
        np.testing.assert_array_equal(value_w, value)
        np.testing.assert_array_equal(g_theta_w, weight * g_theta)
        for g_w, g in zip(g_prior_w, g_prior):
            np.testing.assert_array_equal(g_w, g)


@pytest.mark.parametrize("q_log_var", [None, -4.0, 2 * np.log(0.1)], ids=["point", "g4", "g01"])
@pytest.mark.parametrize("x_shape", [(12,), (4, 12), (3, 4, 12)])
def test_prior_divergence_is_its_chain(x_shape, q_log_var):
    """Values and gradients bitwise the KL on a constant log-variance array
    (or the point-mass term) of elementary ops."""
    rng = np.random.default_rng(13)
    x, mean, log_var = (param(rng.normal(size=s)) for s in (x_shape, (12,), (12,)))
    target = DiagGaussian(mean, log_var)
    if q_log_var is None:
        chain = lambda: dirac_prior_term(x, target)  # noqa: E731
    else:
        chain = lambda: kl_diag_gaussian(  # noqa: E731
            DiagGaussian(x, constant(np.full(x_shape, q_log_var))), target)
    assert_matches(lambda: dc.prior_divergence(x, mean, log_var, q_log_var), chain,
                   [x, mean, log_var], bitwise_grads=True)


@pytest.mark.parametrize("mean", [True, False], ids=["mean", "sum"])
@pytest.mark.parametrize("draws", [0, 1, 8])
@pytest.mark.parametrize("case", list(LINEAR_SHAPES))
def test_linear_squared_error_is_its_chain(case, draws, mean):
    """The Monte-Carlo squared error of the linear head against draws of
    slopes, squares, a mean or sum over points and a mean over draws."""
    rng = np.random.default_rng(14)
    x_shape, slope_shape = LINEAR_SHAPES[case]
    x, y = rng.normal(size=x_shape), rng.normal(size=x_shape)
    slope = param(rng.normal(size=slope_shape))
    offsets = rng.normal(size=(draws,) + slope_shape) * 0.1 if draws else None

    def chain():
        w = slope if offsets is None else slope + constant(offsets)
        sq = square(w * constant(x) - constant(y))
        per = tmean(sq, axis=-1) if mean else sq.sum(axis=-1)
        return per if offsets is None else dc.scale(dc.tsum(per, axis=0), 1.0 / draws)

    assert_matches(lambda: dc.linear_squared_error(slope, offsets, x, y, mean), chain, [slope],
                   bitwise_grads=True)


@pytest.mark.parametrize("case", list(COSINE_SHAPES))
def test_softmax_cross_entropy_is_its_chain(case):
    rng = np.random.default_rng(15)
    f_shape, t_shape = COSINE_SHAPES[case]
    logits = param(rng.normal(size=t_shape[:-2] + f_shape[-2:-1] + t_shape[-2:-1]) * 3.0)
    labels = rng.integers(0, t_shape[-2], size=f_shape[:-1])
    assert_matches(lambda: dc.softmax_cross_entropy(logits, labels),
                   lambda: cross_entropy_chain(logits, labels), [logits], bitwise_grads=True)


def test_softmax_cross_entropy_rejects_out_of_range_labels():
    for labels in ([0, 3], [-1, 0]):
        with pytest.raises(ValueError, match="label out of range for 3 classes"):
            dc.softmax_cross_entropy(constant(np.zeros((2, 3))), labels)


# a training step's graph, leaves included: 9 leaves, θ_K's 2 ops (θ_0's and
# the one-node unroll) and 5 in the objective on toy (24 with a graph per
# inner step, 54 before the objective's terms were fused); 10 leaves, 2 and
# 7 on few-shot (39 and 53 before). Bounds: the counts.
STEP_NODES = {"toy": 16, "fewshot": 19}
STEP_NODE_BOUNDS = {"toy": 16, "fewshot": 19}


@pytest.mark.parametrize("mode", list(STEP_NODES))
def test_training_step_node_count(mode):
    """Graph nodes of one seed-0 training step of ``configs/<mode>.json``'s
    batch of 8 episodes."""
    path = Path(__file__).resolve().parents[1] / "configs" / f"{mode}.json"
    cfg = config_from_dict(json.loads(path.read_text()))
    assert cfg.batch_tasks == 8
    model = build_model(cfg)
    batch = episodes_for(cfg, "train", range(cfg.batch_tasks))
    losses, _ = episode_objective(model, batch, cfg)
    nodes = len(dc._topo_order(dc.scale(losses.sum(), 1.0 / len(batch))))
    assert nodes <= STEP_NODE_BOUNDS[mode]
    assert nodes == STEP_NODES[mode]
