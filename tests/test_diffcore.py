"""Tests for the reverse-mode engine, anchored on a finite-difference oracle."""

import inspect
import json
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgmeta import diffcore as dc
from sgmeta.cli import OP_CASES, check_op_case, main
from sgmeta.diffcore import (
    GraphError,
    ShapeError,
    Tensor,
    backward,
    check_gradients,
    constant,
    detach,
    fd_gradient,
    matmul,
    param,
    softmax,
    zero_grad,
)
from sgmeta.trainer import build_model, default_config, episode_objective, episodes_for
from test_fused import exp, relu_mlp, tmean


def tanh(t):
    """tanh composed of engine ops: the difference of the two entries of
    softmax([t, -t]), sigmoid(2t) - sigmoid(-2t)."""
    pair = matmul(t.reshape(t.shape + (1,)), constant([[1.0, -1.0]]))
    return matmul(softmax(pair), constant([[1.0], [-1.0]])).reshape(t.shape)


def test_matmul_identity():
    a = constant([[1.0, 2.0], [3.0, 4.0]])
    eye = constant(np.eye(2))
    np.testing.assert_array_equal(matmul(a, eye).data, a.data)


def test_softmax_symmetry():
    out = softmax(constant([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, np.full(3, 1.0 / 3.0), rtol=0, atol=1e-15)


def test_mean_of_square_hand_value():
    # mean(square([1,2,3])) = (1 + 4 + 9) / 3
    x = constant([1.0, 2.0, 3.0])
    out = dc.scale((x * x).sum(), 1.0 / 3.0)
    assert out.item() == pytest.approx(14.0 / 3.0, abs=1e-15)


def test_square_derivative():
    x = param(3.0)
    backward(x * x)
    assert x.grad == pytest.approx(6.0)


def test_product_derivatives():
    x, y = param(2.0), param(5.0)
    backward(x * y)
    assert x.grad == pytest.approx(5.0)
    assert y.grad == pytest.approx(2.0)


def test_two_layer_tanh_mlp_matches_finite_differences():
    rng = np.random.default_rng(0)
    w1 = param(rng.normal(size=(4, 8)) * 0.5)
    b1 = param(rng.normal(size=8) * 0.1)
    w2 = param(rng.normal(size=(8, 2)) * 0.5)
    b2 = param(rng.normal(size=2) * 0.1)
    x = constant(rng.normal(size=(5, 4)))
    target = constant(rng.normal(size=(5, 2)))

    def loss():
        h = tanh(matmul(x, w1) + b1)
        out = matmul(h, w2) + b2
        r = out - target
        return tmean(r * r)

    errors = check_gradients(loss, [w1, b1, w2, b2], h=1e-5, tol=1e-6)
    assert max(errors) < 1e-6


@pytest.mark.parametrize("name,build", OP_CASES)
def test_op_suite_matches_finite_differences(name, build):
    check_op_case(name, build)


def test_broadcast_add_bias_gradient():
    rng = np.random.default_rng(3)
    w = param(rng.normal(size=(5, 3)))
    bias = param(rng.normal(size=3))

    def loss():
        return (w + bias).sum()

    backward(loss())
    np.testing.assert_array_equal(w.grad, np.ones((5, 3)))
    np.testing.assert_array_equal(bias.grad, np.full(3, 5.0))


def test_detach_cuts_one_branch_of_product():
    x = param(2.0)
    y = detach(x) * x
    backward(y)
    assert x.grad == pytest.approx(2.0)


def test_detach_preserves_values():
    t = param([1.5, -2.0, 0.0])
    np.testing.assert_array_equal(detach(t).data, t.data)


def test_backward_rejects_non_scalar():
    x = param([1.0, 2.0])
    with pytest.raises(GraphError):
        backward(x * 2.0)


def walk_keeping_the_graph(out):
    """``backward``'s walk without consuming the graph it walks."""
    order = dc._topo_order(out)
    out.grad = np.ones_like(out.data)
    for node in reversed(order):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


def test_backward_consumes_a_training_steps_graph(monkeypatch):
    """After ``backward`` on one few-shot training step, every node it
    visited has dropped its closure and parents, so the synthetic-gradient
    activations ``descent`` saved for its reverse pass are freed; a second
    ``backward`` raises; and the leaves' gradients are bitwise those of a
    walk that keeps the graph."""
    cfg = default_config("fewshot")
    model = build_model(cfg)
    model.params["xi_w3"].data[:] = np.random.default_rng(0).normal(
        size=model.params["xi_w3"].shape) * 0.1
    batch = episodes_for(cfg, "train", range(cfg.batch_tasks))
    leaves = [t for _, t in sorted(model.trainable().items())]
    run_mlp, kept = dc._relu_mlp, []

    def recording(rows, layers, keep):
        acts = run_mlp(rows, layers, keep)
        if keep:
            kept.append(weakref.ref(acts[1]))
        return acts

    monkeypatch.setattr(dc, "_relu_mlp", recording)

    def step_loss():
        zero_grad(leaves)
        kept.clear()
        losses, _ = episode_objective(model, batch, cfg)
        return dc.scale(losses.sum(), 1.0 / len(batch))

    loss = step_loss()
    walk_keeping_the_graph(loss)
    expected = [t.grad for t in leaves]
    assert kept and all(ref() is not None for ref in kept)

    loss = step_loss()
    inner = [node for node in dc._topo_order(loss) if node._backward_fn is not None]
    backward(loss)
    assert all(node._parents == () and node._backward_fn is dc._consumed for node in inner)
    assert all(ref() is None for ref in kept)
    assert any(g is not None for g in expected)
    for t, g in zip(leaves, expected):
        assert (t.grad is None) == (g is None) and (g is None or np.array_equal(t.grad, g))
    with pytest.raises(GraphError, match="already differentiated"):
        backward(loss)


def test_a_graph_built_on_a_differentiated_node_raises():
    """A consumed node stays consumed: a new output built on it cannot be
    differentiated through it, rather than giving its inputs zero gradients."""
    x = param([1.0, 2.0])
    y = x * x
    backward(y.sum())
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])
    with pytest.raises(GraphError, match="already differentiated"):
        backward((y * 3.0).sum())


def differentiable_ops() -> dict:
    """The public differentiable ops of diffcore, by the name a case uses."""
    not_ops = {"constant", "param", "detach", "row_norms", "backward", "zero_grad",
               "fd_gradient", "check_gradients"}
    spelled = {"tsum": "sum"}
    return {spelled.get(name, name): name for name, f in vars(dc).items()
            if inspect.isfunction(f) and f.__module__ == dc.__name__
            and not name.startswith("_") and name not in not_ops}


def test_op_suites_name_every_differentiable_op():
    """``sgmeta gradcheck``'s finite-difference suite has a case named after
    each public differentiable op of diffcore, and every case is named after
    one, so a deleted op leaves no case behind."""
    ops = differentiable_ops()
    assert {"descent", "cosine_logits", "cosine_vjp", "prior_divergence",
            "linear_squared_error", "softmax_cross_entropy", "sum"} <= set(ops)

    def named(op, case):  # "matmul", "matmul3d" and "matmul3d_2d" name their op
        return re.fullmatch(re.escape(op) + r"([\d_].*)?", case)

    assert sorted(op for op in ops if not any(named(op, c) for c, _ in OP_CASES)) == []
    assert [c for c, _ in OP_CASES if not any(named(op, c) for op in ops)] == []


GUARD_TOY = {"mode": "toy", "epochs": 1, "batch_tasks": 4,
             "toy": {"n": 8, "n_train_tasks": 4, "n_test_tasks": 4},
             "inner": {"posterior": {"inner_draws": 2}}}
GUARD_FEWSHOT = {"mode": "fewshot", "total_steps": 1, "batch_tasks": 2, "val_pool_size": 2,
                 "fewshot": {"k": 3, "n_shot": 1, "n_query_per_class": 2, "d_x": 4,
                             "class_pool": {"train": 6, "val": 4, "test": 4}}}
GUARD_RUNS = {
    "toy-inner-draws": ("train-toy", GUARD_TOY),
    "fewshot-proto": ("train-fewshot", GUARD_FEWSHOT),
    "fewshot-ssl": ("train-fewshot", {**GUARD_FEWSHOT, "theta_init": "ssl"}),
    "fewshot-gaussian": ("train-fewshot", {**GUARD_FEWSHOT, "inner": {"posterior": {
        "regime": "gaussian_fixed_var", "inner_draws": 2, "objective_draws": 2}}}),
}


def test_training_commands_call_every_differentiable_op(tmp_path, monkeypatch):
    """The engine keeps only the ops the model uses: tiny training runs, toy
    with inner draws and few-shot with each initialization and regime, call
    every public differentiable op of diffcore."""
    called = set()

    def counted(name, op):
        def call(*args, **kwargs):
            called.add(name)
            return op(*args, **kwargs)

        return call

    ops = differentiable_ops()
    for name, attr in ops.items():
        monkeypatch.setattr(dc, attr, counted(name, getattr(dc, attr)))
    for run, (command, config) in GUARD_RUNS.items():
        path = tmp_path / f"{run}.json"
        path.write_text(json.dumps(config))
        assert main([command, "--config", str(path), "--out", str(tmp_path / run)]) == 0
    assert sorted(set(ops) - called) == []


def test_linear_bias_gradient_sums_over_rows():
    """A one-layer synthetic-gradient net is the affine map x @ w + b, without
    a relu."""
    rng = np.random.default_rng(5)
    x = param(rng.normal(size=(5, 4)))
    w = param(rng.normal(size=(4, 3)))
    bias = param(rng.normal(size=3))
    weights = constant(rng.normal(size=(5, 3)))

    def loss():
        return (relu_mlp(x, [(w, bias)]) * weights).sum()

    check_gradients(loss, [x, w, bias], tol=1e-6)
    np.testing.assert_array_equal(bias.grad, weights.data.sum(axis=0))


def test_linear_is_bitwise_matmul_plus_bias():
    rng = np.random.default_rng(6)
    params = [param(rng.normal(size=s)) for s in ((7, 4), (4, 3), (3,))]
    weights = constant(rng.normal(size=(7, 3)))
    x, w, bias = params
    fused = relu_mlp(x, [(w, bias)])
    backward((fused * fused * weights).sum())
    fused_grads = [p.grad for p in params]
    zero_grad(params)
    composite = matmul(x, w) + bias
    backward((composite * composite * weights).sum())
    composite_grads = [p.grad for p in params]
    np.testing.assert_array_equal(fused.data, composite.data)
    for g_fused, g_composite in zip(fused_grads, composite_grads):
        np.testing.assert_array_equal(g_fused, g_composite)


@pytest.mark.parametrize(
    "op,args",
    [
        (dc.add, (Tensor(np.ones(3)), Tensor(np.ones(4)))),
        (dc.matmul, (Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))),
        (dc.softmax_cross_entropy, (Tensor(np.ones(3)), [0, 1, 2])),
        (dc.matmul, (Tensor(np.ones((2, 2, 3))), Tensor(np.ones((3, 3, 1))))),
        (dc.sub, (Tensor(np.ones((2, 3))), Tensor(np.ones(2)))),
        (dc.mul, (Tensor(np.ones((4, 1, 3))), Tensor(np.ones((2, 5))))),
        (dc.matmul, (Tensor(np.ones(3)), Tensor(np.ones((3, 2))))),
        (dc.cosine_logits, (Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))), Tensor(1.0))),
        (dc.cosine_logits, (Tensor(np.ones((2, 2, 3))), Tensor(np.ones((3, 4, 3))), Tensor(1.0))),
        (dc.cosine_vjp, (Tensor(np.ones((5, 3))), Tensor(np.ones((4, 3))), Tensor(1.0),
                         Tensor(np.ones((5, 3))))),
        # the objective's terms: labels of other rows; a prior of another
        # width, or a log-variance that does not broadcast; slopes whose last
        # axis is not 1, offsets of other slopes, and targets of other points
        (dc.softmax_cross_entropy, (Tensor(np.ones((2, 4, 3))), np.zeros((3, 4), dtype=int))),
        (dc.prior_divergence, (Tensor(np.ones((2, 3))), Tensor(np.ones(4)), Tensor(np.ones(4)),
                               -1.0, 1.0)),
        (dc.prior_divergence, (Tensor(np.ones((2, 3))), Tensor(np.ones(3)), Tensor(np.ones(2)),
                               -1.0, 0.5)),
        (dc.linear_squared_error, (Tensor(np.ones((2, 3))), None, np.ones((2, 5)),
                                   np.ones((2, 5)), True)),
        (dc.linear_squared_error, (Tensor(np.ones((2, 1))), np.ones((4, 3, 1)), np.ones((2, 5)),
                                   np.ones((2, 5)), True)),
        (dc.linear_squared_error, (Tensor(np.ones((2, 1))), None, np.ones((2, 5)),
                                   np.ones((2, 4)), False)),
    ],
)
def test_shape_mismatch_raises_structured_error(op, args):
    with pytest.raises(ShapeError) as exc:
        op(*args)
    assert exc.value.op == op.__name__
    # a network's layers count as operands of their own; flags and python
    # scales are no operands
    operands = [t for a in args if not isinstance(a, (bool, float)) for t in (
        [t for layer in a for t in layer]
        if isinstance(a, list) and op is not dc.softmax_cross_entropy
        else [a])]
    shapes = tuple(np.shape(a.data if isinstance(a, Tensor) else a) for a in operands)
    assert exc.value.shapes == shapes


def _ones(*shapes):
    return [Tensor(np.ones(shape)) for shape in shapes]


COSINE_NET = [tuple(_ones((4, 4), (4,)))]
# the direction rules, when built (a last layer 4 -> 3 for 4 classes; norms
# of other rows; a bias of another width) and at weights (another width than
# the features; slopes whose last axis is not 1, or that do not broadcast)
RULE_ERRORS = {
    "cosine-net": (lambda: dc._cosine_sg_direction(
        Tensor(np.ones((5, 3))), Tensor(1.0), [tuple(_ones((4, 6), (6,))),
                                               tuple(_ones((6, 3), (3,)))], 0.2, np.ones((5, 1))),
        ((5, 3), (), (4, 6), (6,), (6, 3), (3,), (5, 1))),
    "cosine-norms": (lambda: dc._cosine_sg_direction(
        Tensor(np.ones((5, 3))), Tensor(1.0), COSINE_NET, 0.2, np.ones((4, 1))),
        ((5, 3), (), (4, 4), (4,), (4, 1))),
    "linear-bias": (lambda: dc._linear_sg_direction(
        Tensor(np.ones((2, 5))), [tuple(_ones((1, 4), (3,)))], False), ((2, 5), (1, 4), (3,))),
    "cosine-width": (lambda: dc._cosine_sg_direction(
        Tensor(np.ones((5, 3))), Tensor(1.0), COSINE_NET, 0.2, np.ones((5, 1)))[0](
        Tensor(np.ones((4, 2)))), ((5, 3), (4, 2))),
    "linear-axis": (lambda: dc._linear_sg_direction(
        Tensor(np.ones((2, 5))), [tuple(_ones((1, 1), (1,)))], True)[0](Tensor(np.ones((2, 3)))),
        ((2, 3), (2, 5))),
    "linear-broadcast": (lambda: dc._linear_sg_direction(
        Tensor(np.ones((2, 5))), [tuple(_ones((1, 1), (1,)))], False)[0](Tensor(np.ones((3, 1)))),
        ((3, 1), (2, 5))),
}


@pytest.mark.parametrize("case", list(RULE_ERRORS))
def test_direction_rules_raise_structured_errors(case):
    build, shapes = RULE_ERRORS[case]
    with pytest.raises(ShapeError) as exc:
        build()
    assert exc.value.op == case.split("-")[0] + "_sg_direction"
    assert exc.value.shapes == shapes


def test_descent_rejects_draws_and_priors_of_other_weights():
    """Offsets must be draws of theta0's shape, and the prior one mean and
    log-variance per entry of a row."""
    theta0 = Tensor(np.ones((2, 3, 4)))
    rule = (lambda w: (np.zeros_like(w.data), None), [])
    for offsets, pull, shapes in (
            ([np.ones((2, 3, 4))], None, ((2, 3, 4), (2, 3, 4))),
            ([None], (Tensor(np.ones(12)), Tensor(np.ones(4))), ((2, 3, 4), (12,), (4,))),
            ([None], (Tensor(np.ones(4)), Tensor(np.ones(4))), ((2, 3, 4), (4,), (4,)))):
        with pytest.raises(ShapeError) as exc:
            dc.descent(theta0, rule, 0.1, offsets, pull)
        assert exc.value.op == "descent" and exc.value.shapes == shapes


def test_relu_edge_values():
    """The hidden relu of the synthetic-gradient net: negatives and zeros give
    +0.0, inf passes, NaN propagates, and the backward mask is off on NaN."""
    x = param(np.array([-0.0, 0.0, -1.0, -np.inf, 2.5, np.inf, np.nan]).reshape(7, 1))
    one, zero = constant(np.eye(1)), constant([-0.0])
    out = relu_mlp(x, [(one, zero), (one, zero)])
    np.testing.assert_array_equal(out.data[:4, 0], 0.0)
    assert not np.any(np.signbit(out.data[:4]))
    np.testing.assert_array_equal(out.data[4:6, 0], [2.5, np.inf])
    assert np.isnan(out.data[6, 0])  # propagated, not zeroed
    backward((out * constant(np.arange(1.0, 8.0).reshape(7, 1))).sum())
    np.testing.assert_array_equal(x.grad[:, 0], [0.0, 0.0, 0.0, 0.0, 5.0, 6.0, 0.0])


def test_backward_is_bitwise_deterministic():
    rng = np.random.default_rng(11)
    data = {k: rng.normal(size=(3, 3)) for k in "abc"}

    def run():
        a, b, c = (param(data[k].copy()) for k in "abc")
        h = tanh(matmul(a, b)) + c
        backward(tmean(h * h) + softmax(h).sum())
        return [a.grad, b.grad, c.grad]

    first = run()
    second = run()
    for g1, g2 in zip(first, second):
        assert np.array_equal(g1, g2)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    depth=st.integers(1, 4),
)
def test_detach_blocks_gradients_in_random_graphs(seed, depth):
    """Any composition downstream of detach contributes zero gradient."""
    rng = np.random.default_rng(seed)
    x = param(rng.normal(size=4))
    ops = [tanh, lambda t: t * t, lambda t: exp(dc.scale(t, 0.3)), lambda t: t + 1.0]
    blocked = detach(x)
    live = x
    for i in range(depth):
        blocked = ops[int(rng.integers(len(ops)))](blocked)
        live = ops[int(rng.integers(len(ops)))](live)
    loss = (blocked * detach(live)).sum() + dc.scale(live.sum(), 1e-3)
    zero_grad([x])
    backward(loss)
    g_with = x.grad

    # Reference: gradient of the live path alone.
    zero_grad([x])
    live2 = x
    rng2 = np.random.default_rng(seed)
    _ = param(rng2.normal(size=4))
    for i in range(depth):
        rng2.integers(len(ops))
        live2 = ops[int(rng2.integers(len(ops)))](live2)
    backward(dc.scale(live2.sum(), 1e-3))
    g_ref = x.grad
    np.testing.assert_allclose(g_with, g_ref, rtol=0, atol=0)


def test_fd_gradient_shapes():
    x = param(np.ones((2, 2)))

    def f():
        return (x * x).sum()

    (g,) = fd_gradient(f, [x])
    assert g.shape == (2, 2)
    np.testing.assert_allclose(g, 2.0 * np.ones((2, 2)), atol=1e-8)
