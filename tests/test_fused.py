"""The fused ops of diffcore against the composites of elementary ops they
replace, written out here as the reference: forward values bitwise equal,
gradients to 1e-13 relative (bitwise for relu_mlp and prior_pull), and
central differences to 1e-6 on 2-D, stacked (B, ., .) and Monte-Carlo
(M, B, k, d) weights against (B, n, d) features."""

import numpy as np
import pytest

from sgmeta import diffcore as dc
from sgmeta.diffcore import GraphError, Tensor, check_gradients, constant, grad, matmul, param

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


def row_norm(a: Tensor) -> Tensor:
    return sqrt(dc.tsum(dc.square(a), axis=-1, keepdims=True))


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
    return (x - mean) * dc.exp(-log_var)


# -- comparison ------------------------------------------------------------------


def _run(build, leaves, weights):
    """Output values and the gradients of sum(output * weights)."""
    dc.zero_grad(leaves)
    out = build()
    grads = grad((out * constant(weights)).sum(), leaves, allow_unused=True)
    return out.data, [g.copy() for g in grads]


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


def _mlp_layers(rng, widths):
    return [(param(rng.normal(size=(d_in, d_out))), param(rng.normal(size=d_out) * 0.5))
            for d_in, d_out in zip(widths, widths[1:])]


@pytest.mark.parametrize("case", list(MLP_INPUTS))
def test_relu_mlp_is_bitwise_its_composite(case):
    rng = np.random.default_rng(1)
    x = param(rng.normal(size=MLP_INPUTS[case]))
    layers = _mlp_layers(rng, (3, 24, 24, 3))
    leaves = [x] + [t for layer in layers for t in layer]
    assert_matches(lambda: dc.relu_mlp(x, layers), lambda: mlp_composite(x, layers), leaves,
                   bitwise_grads=True)


def test_relu_mlp_gradient_skips_constant_inputs():
    """With a constant input, only the layer parameters get gradients."""
    rng = np.random.default_rng(2)
    x = constant(rng.normal(size=(2, 5, 3)))
    layers = _mlp_layers(rng, (3, 6, 3))
    leaves = [t for layer in layers for t in layer]
    assert_matches(lambda: dc.relu_mlp(x, layers), lambda: mlp_composite(x, layers), leaves,
                   bitwise_grads=True)
    check_gradients(lambda: dc.square(dc.relu_mlp(x, layers)).sum(), leaves, tol=1e-6)


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


@pytest.mark.parametrize("x_shape", [(12,), (4, 12)])
def test_prior_pull_is_bitwise_its_composite(x_shape):
    rng = np.random.default_rng(5)
    x, mean, log_var = (param(rng.normal(size=s)) for s in (x_shape, (12,), (12,)))
    assert_matches(lambda: dc.prior_pull(x, mean, log_var),
                   lambda: prior_pull_composite(x, mean, log_var), [x, mean, log_var],
                   bitwise_grads=True)


@pytest.mark.parametrize("case", list(COSINE_SHAPES))
def test_fused_ops_match_finite_differences(case):
    rng = np.random.default_rng(6)
    f_shape, t_shape = COSINE_SHAPES[case]
    features, theta = param(rng.normal(size=f_shape)), param(rng.normal(size=t_shape))
    const_features = constant(features.data)
    scale = param(2.5)
    layers = _mlp_layers(rng, (t_shape[-2], 8, t_shape[-2]))
    mlp_params = [t for layer in layers for t in layer]

    def inner_direction():
        seed = dc.relu_mlp(dc.cosine_logits(const_features, theta, scale), layers)
        return dc.square(dc.cosine_vjp(const_features, theta, scale, seed)).sum()

    def objective():
        return dc.square(dc.cosine_logits(features, theta, scale)).sum()

    check_gradients(inner_direction, [theta, scale] + mlp_params, h=1e-6, tol=1e-6)
    check_gradients(objective, [features, theta, scale], h=1e-6, tol=1e-6)
    x, mean, log_var = (param(rng.normal(size=s)) for s in ((3, 5), (5,), (5,)))
    check_gradients(lambda: dc.square(dc.prior_pull(x, mean, log_var)).sum(),
                    [x, mean, log_var], h=1e-6, tol=1e-6)


def test_cosine_vjp_rejects_features_that_require_grad():
    rng = np.random.default_rng(7)
    features = param(rng.normal(size=(5, 3)))
    theta, seed = param(rng.normal(size=(2, 3))), param(rng.normal(size=(5, 2)))
    with pytest.raises(GraphError, match="features must be constant"):
        dc.cosine_vjp(features, theta, param(1.0), seed)
