"""Reverse-mode automatic differentiation over dense float64 arrays.

The engine is deliberately small: a Tensor wraps a numpy float64 array and,
when it results from an operation on tensors that require gradients, keeps
references to its parents together with a closure that propagates the
incoming cotangent. ``backward`` materializes the DAG in topological order
and visits every node exactly once, so gradient accumulation is
deterministic (bitwise-reproducible for identical graphs).

Graphs are rebuilt on every forward pass and consumed by the ``backward``
that walks them; tensors that require gradients are never mutated in
place. ``detach`` cuts a tensor out of the graph while sharing its values.
"""

from __future__ import annotations

import numpy as np

class ShapeError(ValueError):
    """Operand shapes do not conform for the requested op."""

    def __init__(self, op: str, *shapes):
        self.op = op
        self.shapes = tuple(tuple(s) for s in shapes)
        super().__init__(f"{op}: incompatible shapes {' vs '.join(map(str, self.shapes))}")


class GraphError(RuntimeError):
    """Backward was asked something the graph cannot answer."""


class Tensor:
    """Dense float64 array participating in a differentiable graph."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, values, requires_grad: bool = False):
        self.data = np.asarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward_fn = None

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor({self.data!r}, requires_grad={self.requires_grad})"

    # -- operator sugar ------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other))

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(values) -> Tensor:
    return Tensor(values, requires_grad=False)


def param(values) -> Tensor:
    return Tensor(values, requires_grad=True)


def _make(data: np.ndarray, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add cotangent ``g`` into ``t.grad``; callers pass only tensors that
    require grad. The first write stores a copy, so no ``.grad`` aliases
    another node's buffer or a read-only broadcast view."""
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast cotangent back to the operand's shape."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# -- elementwise arithmetic ---------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out_data = a.data + b.data
    except ValueError:
        raise ShapeError("add", a.shape, b.shape) from None

    def back(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.shape))

    return _make(out_data, (a, b), back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        out_data = a.data - b.data
    except ValueError:
        raise ShapeError("sub", a.shape, b.shape) from None

    def back(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.shape))

    return _make(out_data, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out_data = a.data * b.data
    except ValueError:
        raise ShapeError("mul", a.shape, b.shape) from None

    def back(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.shape))

    return _make(out_data, (a, b), back)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python float (not a graph node)."""
    c = float(c)

    def back(g):
        _accum(a, c * g)

    return _make(c * a.data, (a,), back)


# -- matrix ops ----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast (stacks)."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul", a.shape, b.shape)
    try:
        out_data = a.data @ b.data
    except ValueError:
        raise ShapeError("matmul", a.shape, b.shape) from None

    def back(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _make(out_data, (a, b), back)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.size and -1 not in shape:
        raise ShapeError("reshape", a.shape, shape)

    def back(g):
        _accum(a, g.reshape(a.shape))

    return _make(a.data.reshape(shape), (a,), back)


# -- nonlinearities -------------------------------------------------------


def _last_axis_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1, keepdims=True)``, one column at a time: the last
    axis is a few classes, and a strided reduction over it costs far more
    than k - 1 maximum passes over the leading axes. Max is exact, so the
    values are the reduction's."""
    out = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(out, x[..., j], out=out)
    return out[..., None]


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    shifted = a.data - _last_axis_max(a.data)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        inner = (g * out_data).sum(axis=-1, keepdims=True)
        _accum(a, out_data * (g - inner))

    return _make(out_data, (a,), back)


# -- fused ops of the model ----------------------------------------------------
#
# Each is one node with a hand-written backward; the synthetic-gradient
# direction rules are array-level values and VJPs that ``descent`` steps
# along inside its one node. The forward keeps the arithmetic order of the
# composite of elementary ops it replaces, so its values are bitwise the
# composite's.

COSINE_EPS = 1e-12


def row_norms(values: np.ndarray) -> np.ndarray:
    """Euclidean norms (..., n, 1) of the rows of (..., n, d) values."""
    return np.sqrt((values * values).sum(axis=-1, keepdims=True))


def _cosine_terms(op: str, shapes, f: np.ndarray, t: np.ndarray, a=None):
    """Row norms a (..., n, 1) and b (..., k, 1), dots (..., n, k) and
    1 / (a b^T + COSINE_EPS) of features ``f`` against weights ``t``;
    ``a`` may be given, as ``row_norms(f)``. ShapeError naming ``op`` and
    its operands' ``shapes`` when the two do not conform."""
    if f.ndim < 2 or t.ndim < 2 or f.shape[-1] != t.shape[-1]:
        raise ShapeError(op, *shapes)
    a = row_norms(f) if a is None else a
    b = row_norms(t)
    try:
        dots = f @ np.swapaxes(t, -1, -2).copy()
    except ValueError:
        raise ShapeError(op, *shapes) from None
    inv_denom = 1.0 / (a @ np.swapaxes(b, -1, -2).copy() + COSINE_EPS)
    return a, b, dots, inv_denom


def _cosine_logits_back(g, features: Tensor, theta: Tensor, scale: Tensor, a, b, cos,
                        inv_denom) -> None:
    """Accumulate the cotangents of ``cosine_logits``' operands from the
    logits' cotangent ``g``; ``cos`` is dots * inv_denom."""
    if scale.requires_grad:
        _accum(scale, _unbroadcast(g * cos, scale.shape))
    if not (theta.requires_grad or features.requires_grad):
        return
    f, t = features.data, theta.data
    g_cos = g * scale.data
    g_dots = g_cos * inv_denom
    g_denom = -(g_cos * cos) * inv_denom
    if theta.requires_grad:
        g_b = np.swapaxes(g_denom, -1, -2) @ a
        g_t = np.swapaxes(g_dots, -1, -2) @ f + g_b / b * t
        _accum(theta, _unbroadcast(g_t, theta.shape))
    if features.requires_grad:
        g_a = g_denom @ b
        _accum(features, _unbroadcast(g_dots @ t + g_a / a * f, features.shape))


def cosine_logits(features: Tensor, theta: Tensor, scale: Tensor) -> Tensor:
    """Cosine-classifier logits scale * <f_i, t_j> / (|f_i| |t_j| + COSINE_EPS)
    of (..., n, d) features against (..., k, d) weights; leading axes
    broadcast. Differentiable in all three operands."""
    shapes = (features.shape, theta.shape, scale.shape)
    a, b, dots, inv_denom = _cosine_terms("cosine_logits", shapes, features.data, theta.data)
    cos = dots * inv_denom

    def back(g):
        _cosine_logits_back(g, features, theta, scale, a, b, cos, inv_denom)

    return _make(scale.data * cos, (features, theta, scale), back)


def _cosine_vjp_terms(op: str, shapes, sd, f, t, a, b, dots, inv_denom):
    """term1 = (sd * inv_denom)^T f (..., k, d), term2 = ratio * t, and
    m (..., k) and ratio = m / b of seeds ``sd`` (..., n, k): the VJP is
    s * term1 - s * term2."""
    try:
        sr = sd * inv_denom
    except ValueError:
        raise ShapeError(op, *shapes) from None
    term1 = np.swapaxes(sr, -1, -2).copy() @ f  # (..., k, d)
    m = (sd * dots * inv_denom * inv_denom * a).sum(axis=-2)  # (..., k)
    ratio = m / b[..., 0]
    return term1, ratio[..., None] * t, m, ratio


def _cosine_vjp_back(g, f, theta: Tensor, scale: Tensor, sd, want_seed: bool, a, b, dots,
                     inv_denom, term1, term2, m, ratio):
    """Accumulate the cotangents of theta and the scale of the VJP of seeds
    ``sd`` from its cotangent ``g``; return the seeds' cotangent when
    ``want_seed``."""
    t, s = theta.data, scale.data
    if scale.requires_grad:
        _accum(scale, _unbroadcast(g * (term1 - term2), scale.shape))
    if not (theta.requires_grad or want_seed):
        return None
    p = f @ np.swapaxes(g, -1, -2)  # (..., n, k): <f_i, g_j>
    g_ratio = -s * (g * t).sum(axis=-1)  # (..., k)
    g_m = (g_ratio / b[..., 0])[..., None, :]  # (..., 1, k)
    sq = inv_denom * inv_denom
    g_seed = s * inv_denom * p + g_m * dots * sq * a if want_seed else None
    if theta.requires_grad:
        w = sd * a * sq  # d m / d dots
        g_b = (-s * (w * p).sum(axis=-2)
               - 2.0 * g_m[..., 0, :] * (w * dots * inv_denom * a).sum(axis=-2)
               - g_ratio * m / (b[..., 0] * b[..., 0]))
        g_t = (np.swapaxes(g_m * w, -1, -2) @ f + (g_b / b[..., 0])[..., None] * t
               - s * ratio[..., None] * g)
        _accum(theta, _unbroadcast(g_t, theta.shape))
    return g_seed


def cosine_vjp(features: Tensor, theta: Tensor, scale: Tensor, seed: Tensor) -> Tensor:
    """sum_i seed_{i,:}^T d logits_i / d theta of ``cosine_logits``, in closed
    form: (..., k, d) from (..., n, k) seeds. Differentiable in theta, the
    scale and the seed; the features must be constant."""
    if features.requires_grad:
        raise GraphError("cosine_vjp: features must be constant")
    shapes = (features.shape, theta.shape, scale.shape, seed.shape)
    f, sd = features.data, seed.data
    terms = _cosine_terms("cosine_vjp", shapes, f, theta.data)
    vjp = _cosine_vjp_terms("cosine_vjp", shapes, sd, f, theta.data, *terms)

    def back(g):
        g_seed = _cosine_vjp_back(g, f, theta, scale, sd, seed.requires_grad, *terms, *vjp)
        if g_seed is not None:
            _accum(seed, _unbroadcast(g_seed, seed.shape))

    s = scale.data
    return _make(s * vjp[0] - s * vjp[1], (theta, scale, seed), back)


# Values in one row block of the synthetic-gradient network's widest layer:
# 600 rows of 40 (192 KB) on few-shot, 3000 of 8 on toy. A block's hidden
# activations stay in cache between layers, and a forward-only pass over a
# 4800-point chunk allocates one block of them, not the chunk's.
MLP_BLOCK_VALUES = 24000


def _check_mlp(op: str, shapes, width: int, layers, out_width: int) -> None:
    """ShapeError naming ``op`` and its operands' ``shapes`` unless ``layers``
    chain (d, d') weights and (d',) biases from ``width`` to ``out_width``."""
    for w, b in layers:
        if w.ndim != 2 or w.shape[0] != width or b.shape != w.shape[1:]:
            raise ShapeError(op, *shapes)
        width = w.shape[1]
    if not layers or width != out_width:
        raise ShapeError(op, *shapes)


def _relu_mlp(rows: np.ndarray, layers, keep: bool) -> list:
    """Activations of the synthetic-gradient network on (r, d) rows: the rows,
    then each layer's h @ w + b with (d, d') weights and a (d',) bias, every
    layer but the last followed by max(., 0): -0.0 maps to +0.0 and NaN
    propagates. The bias add and relu are written into the matmul's output.
    With ``keep`` every activation is returned. Without it only the rows and
    the output are: the rows go through in blocks of ``MLP_BLOCK_VALUES`` //
    (the widest layer's width), and a block's hidden activations are dropped
    once the next layer has read them. Over two blocks or more, each bias is
    added from one copy tiled to a block's rows: the same sums, without
    numpy's broadcast loop over narrow rows (about 6 µs against 17 µs on 600
    rows of 40). The copy costs about one broadcast add, so it pays from two
    blocks on. No row's values depend on its block."""
    last = len(layers) - 1
    size = max(1, len(rows) if keep else MLP_BLOCK_VALUES // max(w.shape[1] for w, _ in layers))
    tiled = len(rows) >= 2 * size
    biases = [np.tile(b.data, (size, 1)) if tiled else b.data for _, b in layers]
    acts = [rows] if keep else [rows, np.empty((len(rows), layers[last][0].shape[1]))]
    for start in range(0, max(len(rows), 1), size):  # no rows still make one empty block
        h = rows[start:start + size]
        for i, ((w, _), bias) in enumerate(zip(layers, biases)):
            h = np.matmul(h, w.data, out=None if keep or i < last else acts[1][start:start + size])
            h += bias[:len(h)] if tiled else bias
            if i < last:
                np.maximum(h, 0.0, out=h)
            if keep:
                acts.append(h)
    return acts


def _relu_mlp_back(g: np.ndarray, acts: list, layers, want_input: bool):
    """Accumulate the layers' cotangents from the output rows' cotangent
    ``g``, last layer first, weight before bias; return the input rows'
    cotangent when ``want_input``. The relu mask is read off the
    post-activations and applied in place: below the last layer, ``g`` is the
    fresh product ``g @ w.T`` of the layer above."""
    for i in reversed(range(len(layers))):
        w, b = layers[i]
        if i < len(layers) - 1:
            np.multiply(g, acts[i + 1] > 0.0, out=g)
        if w.requires_grad:
            _accum(w, acts[i].T @ g)
        if b.requires_grad:
            _accum(b, g.sum(axis=0))
        if i == 0 and not want_input:
            return None
        g = g @ w.data.T
    return g


def _cosine_sg_direction(features: Tensor, scale: Tensor, layers, seed_scale: float,
                         feature_norms: np.ndarray):
    """The synthetic-gradient direction rule of the cosine head on constant
    (..., n, d) ``features``, and the tensors it reads: the scale and the
    layers. At (..., k, d) weights held by a tensor theta, the rule returns
    the values of ``cosine_vjp(features, theta, scale, seed_scale * net(
    cosine_logits(features, theta, scale)))``, where net is the ReLU network
    of ``layers`` (``_relu_mlp``) on the rows of the logits, and their VJP,
    ``vjp(g)``, which accumulates the cotangents of theta, the scale and the
    layers that require grad in the order of the composite's backward: the
    VJP's first, then the logits'. ``feature_norms`` are
    ``row_norms(features.data)``. Leading axes broadcast. The network's
    hidden activations are kept only when theta, the scale or a layer
    requires grad; otherwise the VJP has nothing to accumulate."""
    params = tuple(p for layer in layers for p in layer)
    shapes = ((features.shape, scale.shape) + tuple(p.shape for p in params)
              + (np.shape(feature_norms),))
    if features.requires_grad:
        raise GraphError("cosine_sg_direction: features must be constant")
    k = layers[0][0].shape[0] if layers and layers[0][0].ndim else 0
    _check_mlp("cosine_sg_direction", shapes, k, layers, k)
    if np.shape(feature_norms) != features.shape[:-1] + (1,):
        raise ShapeError("cosine_sg_direction", *shapes)
    f, s = features.data, scale.data

    def rule(theta: Tensor):
        t = theta.data
        if t.ndim < 2 or t.shape[-2] != k:
            raise ShapeError("cosine_sg_direction", features.shape, theta.shape)
        a, b, dots, inv_denom = _cosine_terms("cosine_sg_direction",
                                              (features.shape, theta.shape), f, t, feature_norms)
        cos = dots * inv_denom
        logits = s * cos
        keep = theta.requires_grad or any(p.requires_grad for p in (scale,) + params)
        acts = _relu_mlp(logits.reshape(-1, k), layers, keep)
        sd = seed_scale * acts[-1].reshape(logits.shape)
        terms = _cosine_vjp_terms("cosine_sg_direction", (features.shape, theta.shape), sd, f,
                                  t, a, b, dots, inv_denom)

        def vjp(g):
            if not keep:
                return
            g_seed = _cosine_vjp_back(g, f, theta, scale, sd, True, a, b, dots, inv_denom,
                                      *terms)
            g_logits = _relu_mlp_back((seed_scale * g_seed).reshape(acts[-1].shape), acts,
                                      layers, theta.requires_grad or scale.requires_grad)
            if g_logits is not None:
                _cosine_logits_back(g_logits.reshape(logits.shape), features, theta, scale, a, b,
                                    cos, inv_denom)

        return s * terms[0] - s * terms[1], vjp

    return rule, (scale,) + params


def _linear_sg_direction(x: Tensor, layers, mean: bool):
    """The synthetic-gradient direction rule of the linear head on constant
    inputs x (..., n), and the tensors it reads: the layers. At slopes
    (..., 1) held by a tensor theta, the rule returns the mean over the last
    axis (the sum unless ``mean``) of net(theta * x) * x, that axis kept,
    where net is the ReLU network of ``layers`` (``_relu_mlp``) on each
    prediction, and its VJP, ``vjp(g)``, which accumulates the cotangents of
    theta and the layers that require grad. Leading axes broadcast. The
    network's hidden activations are kept only when theta or a layer
    requires grad; otherwise the VJP has nothing to accumulate."""
    params = tuple(p for layer in layers for p in layer)
    shapes = (x.shape,) + tuple(p.shape for p in params)
    if x.requires_grad:
        raise GraphError("linear_sg_direction: inputs must be constant")
    if x.ndim < 1:
        raise ShapeError("linear_sg_direction", *shapes)
    _check_mlp("linear_sg_direction", shapes, 1, layers, 1)
    n = x.shape[-1]

    def rule(theta: Tensor):
        if theta.ndim < 1 or theta.shape[-1] != 1:
            raise ShapeError("linear_sg_direction", theta.shape, x.shape)
        try:
            y = theta.data * x.data
        except ValueError:
            raise ShapeError("linear_sg_direction", theta.shape, x.shape) from None
        keep = theta.requires_grad or any(p.requires_grad for p in params)
        acts = _relu_mlp(y.reshape(-1, 1), layers, keep)
        gx = acts[-1].reshape(y.shape) * x.data
        values = gx.sum(axis=-1, keepdims=True)

        def vjp(g):
            if not keep:
                return
            if mean:
                g = g / n
            g_y = _relu_mlp_back((g * x.data).reshape(acts[-1].shape), acts, layers,
                                 theta.requires_grad)
            if g_y is not None:
                _accum(theta, _unbroadcast(g_y.reshape(y.shape) * x.data, theta.shape))

        return (values / n if mean else values), vjp

    return rule, params


def descent(theta0: Tensor, direction, eta: float, offsets, pull=None, on_step=None) -> list:
    """K = ``len(offsets)`` steps theta_{k+1} = theta_k - eta * (d_k + p_k)
    from ``theta0`` (B, ...), one row of weights per episode, as one node;
    returns theta_0 .. theta_K: ``theta0``, constants, and the node.

    ``direction`` is (rule, the tensors it reads), as ``_cosine_sg_direction``
    returns it: ``rule(w)``, at the weights of a tensor ``w``, returns the
    direction's values and a VJP that accumulates the cotangents of w and of
    those tensors. d_k is the rule at theta_k, or its mean over the draws
    theta_k + offsets[k], (M, *theta0.shape). ``pull``, a prior's (mean,
    log_var), adds p_k = (row - mean) * exp(-log_var) per flattened row, the
    gradient of a Gaussian's KL to the prior. ``on_step(k, values)`` sees
    each new iterate theta_{k+1} and may raise.

    Reverse-pass state is kept only when some operand requires grad, so a
    constant unroll holds one step's activations at a time. The backward
    walks the steps in reverse and accumulates each cotangent in the order
    and association of the per-step graph it replaces (the draws' ``add``,
    the direction, ``tsum`` and ``scale`` over the draws, the pull, ``add``,
    ``scale`` by eta, ``sub``), so its gradients are bitwise that graph's."""
    if not offsets:
        return [theta0]
    eta = float(eta)
    rule, params = direction
    mean, log_var = (None, None) if pull is None else pull
    if pull is not None and not mean.shape == log_var.shape == (int(np.prod(theta0.shape[1:])),):
        raise ShapeError("descent", theta0.shape, mean.shape, log_var.shape)
    parents = (theta0,) + tuple(params) + (() if pull is None else (mean, log_var))
    grad = any(p.requires_grad for p in parents)
    inv_var = None if pull is None else np.exp(-log_var.data)
    thetas, tape = [theta0], []
    for k, off in enumerate(offsets):
        theta = thetas[-1]
        t = theta.data
        if off is not None and np.shape(off)[1:] != t.shape:
            raise ShapeError("descent", theta0.shape, np.shape(off))
        w = theta if off is None else Tensor(t + off, requires_grad=theta.requires_grad)
        values, vjp = rule(w)
        step = values if off is None else (1.0 / len(off)) * values.sum(axis=0)
        diff = None
        if pull is not None:
            diff = t.reshape(len(t), -1) - mean.data
            step = step + (diff * inv_var).reshape(t.shape)
        t = t - eta * step
        if on_step is not None:
            on_step(k, t)
        if grad:
            tape.append((theta, w, vjp, diff))
        del vjp  # a constant unroll drops each step's activations before the next
        thetas.append(Tensor(t, requires_grad=grad))

    def back(g):
        for theta, w, vjp, diff in reversed(tape):
            if theta.requires_grad:
                _accum(theta, g)
            g = eta * -g
            if diff is not None:
                g_flat = g.reshape(diff.shape)
                if theta.requires_grad or mean.requires_grad:
                    g_diff = g_flat * inv_var
                    if theta.requires_grad:
                        _accum(theta, g_diff.reshape(theta.shape))
                    if mean.requires_grad:
                        _accum(mean, _unbroadcast(-g_diff, mean.shape))
                if log_var.requires_grad:
                    _accum(log_var, -(_unbroadcast(g_flat * diff, inv_var.shape) * inv_var))
            if w is theta:
                vjp(g)
            else:
                vjp(np.broadcast_to((1.0 / len(w.data)) * g, w.shape).copy())
                if theta.requires_grad:
                    _accum(theta, _unbroadcast(w.grad, theta.shape))
            g = theta.grad

    out = _make(thetas[-1].data, parents, back)
    return [theta0] + [Tensor(t.data) for t in thetas[1:-1]] + [out]


# the per-task objective's terms


def prior_divergence(x: Tensor, mean: Tensor, log_var: Tensor, posterior_log_var=None,
                     pull_weight: float = 1.0) -> Tensor:
    """The divergence over the last axis of a posterior at ``x`` from the
    Gaussian N(mean, v), v = exp(log_var). For a ``posterior_log_var`` (u =
    its exp), a float or a constant array that broadcasts against x, it is
    the KL of N(x, u),
    0.5 * sum(log_var - posterior_log_var + (u + (x - mean)^2) / v - 1);
    for a point mass (``None``) the KL's limit with the divergent constant
    dropped, 0.5 * sum((x - mean)^2 / v + log_var). Operands broadcast.

    ``pull_weight`` splits the term at a stop-gradient: that share of it sees
    x and the rest a constant copy, so x's cotangent is ``pull_weight`` times
    the true one while the mean and log-variance get their full cotangents."""
    shapes = (x.shape, mean.shape, log_var.shape)
    if x.ndim == 0 or mean.ndim == 0 or x.shape[-1] != mean.shape[-1]:
        raise ShapeError("prior_divergence", *shapes)
    try:
        diff = x.data - mean.data
        inv_var = np.exp(-log_var.data)
        spread = diff * diff
        if posterior_log_var is None:
            terms = spread * inv_var + log_var.data
        else:
            spread = np.exp(posterior_log_var) + spread
            terms = (log_var.data - posterior_log_var) + spread * inv_var - 1.0
    except ValueError:
        raise ShapeError("prior_divergence", *shapes) from None
    pull_weight = float(pull_weight)

    def back(g):
        g_terms = np.broadcast_to((0.5 * g)[..., None], terms.shape)
        if x.requires_grad or mean.requires_grad:
            g_diff = g_terms * inv_var * 2.0 * diff
            if x.requires_grad and pull_weight != 0.0:
                _accum(x, _unbroadcast(pull_weight * g_diff, x.shape))
            if mean.requires_grad:
                _accum(mean, _unbroadcast(-g_diff, mean.shape))
        if log_var.requires_grad:
            g_spread = _unbroadcast(g_terms * spread, inv_var.shape) * inv_var
            _accum(log_var, _unbroadcast(g_terms, log_var.shape) - g_spread)

    return _make(0.5 * terms.sum(axis=-1), (x, mean, log_var), back)


def linear_squared_error(theta: Tensor, offsets, x: np.ndarray, y: np.ndarray,
                         mean: bool) -> Tensor:
    """The linear head's squared error as one node: the mean over the last
    axis (the sum unless ``mean``) of (w * x - y)^2, where w are slopes
    (..., 1) and x, y constant inputs and targets (..., n). With constant
    ``offsets`` (M, *theta.shape), w = theta + offsets and the result is the
    mean over the M draws; with ``None``, w = theta. Leading axes broadcast;
    differentiable in theta."""
    shapes = (theta.shape, np.shape(offsets), np.shape(x), np.shape(y))
    if theta.ndim < 1 or theta.shape[-1] != 1 or (
            offsets is not None and np.shape(offsets)[1:] != theta.shape):
        raise ShapeError("linear_squared_error", *shapes)
    w = theta.data if offsets is None else theta.data + offsets
    try:
        r = w * x - y
    except ValueError:
        raise ShapeError("linear_squared_error", *shapes) from None
    sq = r * r
    per = sq.mean(axis=-1) if mean else sq.sum(axis=-1)
    draw_weight = None if offsets is None else 1.0 / len(offsets)

    def back(g):
        if offsets is not None:
            g = draw_weight * g
        g_sq = g[..., None]
        if mean:
            g_sq = g_sq / sq.shape[-1]
        # summed over the points into each drawn slope, then over the draws
        g_w = _unbroadcast(g_sq * 2.0 * r * x, w.shape)
        _accum(theta, _unbroadcast(g_w, theta.shape))

    out_data = per if offsets is None else draw_weight * per.sum(axis=0)
    return _make(out_data, (theta,), back)


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross entropy over the rows of (..., n, k) logits, one value per
    leading index; integer class ids ``labels`` (..., n) broadcast against
    the rows. A label outside 0..k-1 raises ValueError."""
    idx = np.asarray(labels, dtype=np.int64)
    if logits.ndim < 2:
        raise ShapeError("softmax_cross_entropy", logits.shape, idx.shape)
    k = logits.shape[-1]
    if idx.min() < 0 or idx.max() >= k:
        raise ValueError(f"label out of range for {k} classes: {idx.min()}..{idx.max()}")
    try:
        idx = np.broadcast_to(idx, logits.shape[:-1])[..., None]
    except ValueError:
        raise ShapeError("softmax_cross_entropy", logits.shape, np.shape(labels)) from None
    shifted = logits.data - _last_axis_max(logits.data)
    e = np.exp(shifted)
    total = e.sum(axis=-1)
    nll = np.log(total) - np.take_along_axis(shifted, idx, axis=-1)[..., 0]

    # d nll / d logits = softmax - onehot, per row
    def back(g):
        g_row = np.broadcast_to(g[..., None], nll.shape) / nll.shape[-1]
        g_logits = (g_row / total)[..., None] * e
        picked = np.take_along_axis(g_logits, idx, axis=-1)
        np.put_along_axis(g_logits, idx, picked - g_row[..., None], axis=-1)
        _accum(logits, g_logits)

    return _make(nll.mean(axis=-1), (logits,), back)


# -- reductions -----------------------------------------------------------


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    if axis is not None and not (-a.ndim <= axis < a.ndim):
        raise ShapeError("sum", a.shape, (axis,))
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def back(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.shape))

    return _make(out_data, (a,), back)


# -- structural ops ---------------------------------------------------------


def detach(a: Tensor) -> Tensor:
    """Same values, no gradient flow through the result."""
    return Tensor(a.data, requires_grad=False)


# -- backward ------------------------------------------------------------


def _topo_order(root: Tensor):
    order = []
    seen = set()
    stack = [(root, iter(root._parents))]
    seen.add(id(root))
    while stack:
        node, parents = stack[-1]
        advanced = False
        for p in parents:
            if id(p) not in seen and p.requires_grad:
                seen.add(id(p))
                stack.append((p, iter(p._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    return order


def _consumed(g) -> None:
    raise GraphError("backward: this graph was already differentiated, and its saved values are freed")


def backward(out: Tensor) -> None:
    """Populate ``.grad`` on every reachable tensor that requires grad.

    ``out`` must be a scalar (0-dim or single-element) tensor. The walk
    consumes the graph: each node it visits drops its closure and parents,
    freeing the values they saved, so a second ``backward`` through any of
    them raises GraphError. Leaves are untouched.
    """
    if out.size != 1:
        raise GraphError(f"backward requires a scalar output, got shape {out.shape}")
    if not out.requires_grad:
        raise GraphError("output does not require grad; nothing to differentiate")
    order = _topo_order(out)
    out.grad = np.ones_like(out.data)
    for node in reversed(order):
        fn = node._backward_fn
        if fn is not None:
            node._backward_fn, node._parents = _consumed, ()
            if node.grad is not None:
                fn(node.grad)


def zero_grad(tensors) -> None:
    for t in tensors:
        t.grad = None


# -- finite-difference checking -------------------------------------------


def _scalar_value(x) -> float:
    return float(x.data) if isinstance(x, Tensor) else float(x)


def fd_gradient(f, params, h: float = 1e-5):
    """Central finite differences of scalar ``f()`` w.r.t. each param tensor.

    ``f`` must rebuild its graph from the params' current ``.data`` on every
    call. Returns one array per param, matching its shape.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = _scalar_value(f())
            flat[i] = orig - h
            fm = _scalar_value(f())
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def check_gradients(f, params, h: float = 1e-5, tol: float = 1e-6):
    """Compare autodiff and finite-difference gradients of scalar ``f()``.

    Relative error per parameter is ``|ad - fd| / max(|ad|, |fd|, 1e-12)``
    in the 2-norm over the flattened parameter. Returns the list of errors;
    raises AssertionError when any exceeds ``tol``.
    """
    zero_grad(params)
    backward(f())
    # a param the output does not reach has no .grad: its gradient is zero
    ad = [np.zeros_like(p.data) if p.grad is None else p.grad for p in params]
    fd = fd_gradient(f, params, h=h)
    errors = []
    for a, b in zip(ad, fd):
        denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
        errors.append(float(np.linalg.norm(a - b) / denom))
    worst = max(errors)
    if worst > tol:
        raise AssertionError(f"gradient check failed: relative error {worst:.3e} > {tol:.1e}")
    return errors
