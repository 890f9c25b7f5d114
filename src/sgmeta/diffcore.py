"""Reverse-mode automatic differentiation over dense float64 arrays.

The engine is deliberately small: a Tensor wraps a numpy float64 array and,
when it results from an operation on tensors that require gradients, keeps
references to its parents together with a closure that propagates the
incoming cotangent. ``backward`` materializes the DAG in topological order
and visits every node exactly once, so gradient accumulation is
deterministic (bitwise-reproducible for identical graphs).

Graphs are rebuilt on every forward pass; tensors that require gradients
are never mutated in place. ``detach`` cuts a tensor out of the graph
while sharing its values.
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

    def __neg__(self):
        return neg(self)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

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


def neg(a: Tensor) -> Tensor:
    def back(g):
        _accum(a, -g)

    return _make(-a.data, (a,), back)


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


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def back(g):
        _accum(a, g * out_data)

    return _make(out_data, (a,), back)


def log(a: Tensor) -> Tensor:
    def back(g):
        _accum(a, g / a.data)

    return _make(np.log(a.data), (a,), back)


def square(a: Tensor) -> Tensor:
    def back(g):
        _accum(a, g * 2.0 * a.data)

    return _make(a.data * a.data, (a,), back)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        inner = (g * out_data).sum(axis=-1, keepdims=True)
        _accum(a, out_data * (g - inner))

    return _make(out_data, (a,), back)


# -- fused ops of the model ----------------------------------------------------
#
# Each is one node with a hand-written backward. The forward keeps the
# arithmetic order of the composite of elementary ops it replaces, so its
# values are bitwise the composite's.

COSINE_EPS = 1e-12


def relu_mlp(x: Tensor, layers) -> Tensor:
    """ReLU network on the rows of (..., d_in) inputs, leading axes folded
    into the rows. Each (w, b) of ``layers`` maps h to h @ w + b with (d, d')
    weights and a (d',) bias, and every layer but the last then applies
    max(., 0): -0.0 maps to +0.0 and NaN propagates. The bias add and relu
    are written into the matmul's output; backward reads the relu mask off
    the post-activation."""
    shapes = (x.shape,) + tuple(t.shape for layer in layers for t in layer)
    if x.ndim < 1 or not layers:
        raise ShapeError("relu_mlp", *shapes)
    width = x.shape[-1]
    for w, b in layers:
        if w.ndim != 2 or w.shape[0] != width or b.shape != w.shape[1:]:
            raise ShapeError("relu_mlp", *shapes)
        width = w.shape[1]
    acts = [x.data.reshape(-1, x.shape[-1])]
    for i, (w, b) in enumerate(layers):
        h = acts[-1] @ w.data
        h += b.data
        if i < len(layers) - 1:
            np.maximum(h, 0.0, out=h)
        acts.append(h)

    def back(g):
        g = g.reshape(acts[-1].shape)
        for i in reversed(range(len(layers))):
            w, b = layers[i]
            if i < len(layers) - 1:
                g = g * (acts[i + 1] > 0.0)
            if w.requires_grad:
                _accum(w, acts[i].T @ g)
            if b.requires_grad:
                _accum(b, g.sum(axis=0))
            if i == 0 and not x.requires_grad:
                return
            g = g @ w.data.T
        _accum(x, g.reshape(x.shape))

    params = tuple(t for layer in layers for t in layer)
    return _make(acts[-1].reshape(x.shape[:-1] + (width,)), (x,) + params, back)


def _cosine_terms(op: str, features: Tensor, theta: Tensor, *rest: Tensor):
    """Row norms a (..., n, 1) and b (..., k, 1), dots (..., n, k) and
    1 / (a b^T + COSINE_EPS) of features against weights; ShapeError naming
    ``op`` and all its operands' shapes when these two do not conform."""
    shapes = (features.shape, theta.shape) + tuple(t.shape for t in rest)
    if features.ndim < 2 or theta.ndim < 2 or features.shape[-1] != theta.shape[-1]:
        raise ShapeError(op, *shapes)
    f, t = features.data, theta.data
    a = np.sqrt((f * f).sum(axis=-1, keepdims=True))
    b = np.sqrt((t * t).sum(axis=-1, keepdims=True))
    try:
        dots = f @ np.swapaxes(t, -1, -2).copy()
    except ValueError:
        raise ShapeError(op, *shapes) from None
    inv_denom = 1.0 / (a @ np.swapaxes(b, -1, -2).copy() + COSINE_EPS)
    return a, b, dots, inv_denom


def cosine_logits(features: Tensor, theta: Tensor, scale: Tensor) -> Tensor:
    """Cosine-classifier logits scale * <f_i, t_j> / (|f_i| |t_j| + COSINE_EPS)
    of (..., n, d) features against (..., k, d) weights; leading axes
    broadcast. Differentiable in all three operands."""
    a, b, dots, inv_denom = _cosine_terms("cosine_logits", features, theta, scale)
    f, t = features.data, theta.data
    cos = dots * inv_denom

    def back(g):
        if scale.requires_grad:
            _accum(scale, _unbroadcast(g * cos, scale.shape))
        if not (theta.requires_grad or features.requires_grad):
            return
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

    return _make(scale.data * cos, (features, theta, scale), back)


def cosine_vjp(features: Tensor, theta: Tensor, scale: Tensor, seed: Tensor) -> Tensor:
    """sum_i seed_{i,:}^T d logits_i / d theta of ``cosine_logits``, in closed
    form: (..., k, d) from (..., n, k) seeds. Differentiable in theta, the
    scale and the seed; the features must be constant."""
    if features.requires_grad:
        raise GraphError("cosine_vjp: features must be constant")
    a, b, dots, inv_denom = _cosine_terms("cosine_vjp", features, theta, scale, seed)
    f, t, s, sd = features.data, theta.data, scale.data, seed.data
    try:
        sr = sd * inv_denom
    except ValueError:
        raise ShapeError("cosine_vjp", features.shape, theta.shape, scale.shape,
                         seed.shape) from None
    term1 = np.swapaxes(sr, -1, -2).copy() @ f  # (..., k, d)
    m = (sd * dots * inv_denom * inv_denom * a).sum(axis=-2)  # (..., k)
    ratio = m / b[..., 0]
    term2 = ratio[..., None] * t

    def back(g):
        if scale.requires_grad:
            _accum(scale, _unbroadcast(g * (term1 - term2), scale.shape))
        if not (theta.requires_grad or seed.requires_grad):
            return
        p = f @ np.swapaxes(g, -1, -2)  # (..., n, k): <f_i, g_j>
        g_ratio = -s * (g * t).sum(axis=-1)  # (..., k)
        g_m = (g_ratio / b[..., 0])[..., None, :]  # (..., 1, k)
        sq = inv_denom * inv_denom
        if seed.requires_grad:
            _accum(seed, _unbroadcast(s * inv_denom * p + g_m * dots * sq * a, seed.shape))
        if theta.requires_grad:
            w = sd * a * sq  # d m / d dots
            g_b = (-s * (w * p).sum(axis=-2)
                   - 2.0 * g_m[..., 0, :] * (w * dots * inv_denom * a).sum(axis=-2)
                   - g_ratio * m / (b[..., 0] * b[..., 0]))
            g_t = (np.swapaxes(g_m * w, -1, -2) @ f + (g_b / b[..., 0])[..., None] * t
                   - s * ratio[..., None] * g)
            _accum(theta, _unbroadcast(g_t, theta.shape))

    return _make(s * term1 - s * term2, (theta, scale, seed), back)


def prior_pull(x: Tensor, mean: Tensor, log_var: Tensor) -> Tensor:
    """(x - mean) * exp(-log_var): the gradient in x of the KL of a Gaussian
    at x to N(mean, exp(log_var)); operands broadcast."""
    try:
        diff = x.data - mean.data
        inv_var = np.exp(-log_var.data)
        out_data = diff * inv_var
    except ValueError:
        raise ShapeError("prior_pull", x.shape, mean.shape, log_var.shape) from None

    def back(g):
        if x.requires_grad or mean.requires_grad:
            g_diff = _unbroadcast(g * inv_var, diff.shape)
            if x.requires_grad:
                _accum(x, _unbroadcast(g_diff, x.shape))
            if mean.requires_grad:
                _accum(mean, _unbroadcast(-g_diff, mean.shape))
        if log_var.requires_grad:
            _accum(log_var, -(_unbroadcast(g * diff, inv_var.shape) * inv_var))

    return _make(out_data, (x, mean, log_var), back)


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


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    if axis is not None and not (-a.ndim <= axis < a.ndim):
        raise ShapeError("mean", a.shape, (axis,))
    count = a.size if axis is None else a.shape[axis]
    out_data = a.data.mean(axis=axis, keepdims=keepdims)

    def back(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.shape) / count)

    return _make(out_data, (a,), back)


# -- structural ops ---------------------------------------------------------


def take_per_row(a: Tensor, col_indices) -> Tensor:
    """Pick a[..., i, col_indices[..., i]] along the last axis.

    ``col_indices`` broadcasts against ``a.shape[:-1]``; each row contributes
    one entry, so the result has shape ``a.shape[:-1]``.
    """
    idx = np.asarray(col_indices, dtype=np.int64)
    try:
        if a.ndim < 1:
            raise ValueError
        idx = np.broadcast_to(idx, a.shape[:-1])[..., None]
    except ValueError:
        raise ShapeError("take_per_row", a.shape, idx.shape) from None

    def back(g):
        acc = np.zeros_like(a.data)
        np.put_along_axis(acc, idx, g[..., None], axis=-1)
        _accum(a, acc)

    return _make(np.take_along_axis(a.data, idx, axis=-1)[..., 0], (a,), back)


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


def backward(out: Tensor) -> None:
    """Populate ``.grad`` on every reachable tensor that requires grad.

    ``out`` must be a scalar (0-dim or single-element) tensor.
    """
    if out.size != 1:
        raise GraphError(f"backward requires a scalar output, got shape {out.shape}")
    if not out.requires_grad:
        raise GraphError("output does not require grad; nothing to differentiate")
    order = _topo_order(out)
    out.grad = np.ones_like(out.data)
    for node in reversed(order):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


def grad(out: Tensor, wrt, allow_unused: bool = False):
    """Run backward and return gradients for ``wrt`` in order.

    Tensors unreachable from ``out`` (e.g. cut off by detach) raise unless
    ``allow_unused`` is set, in which case they yield zeros.
    """
    backward(out)
    grads = []
    for t in wrt:
        if t.grad is None:
            if not allow_unused:
                raise GraphError("tensor not part of the graph rooted at the output")
            grads.append(np.zeros_like(t.data))
        else:
            grads.append(t.grad)
    return grads


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
    out = f()
    ad = grad(out, params, allow_unused=True)
    fd = fd_gradient(f, params, h=h)
    errors = []
    for a, b in zip(ad, fd):
        denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
        errors.append(float(np.linalg.norm(a - b) / denom))
    worst = max(errors)
    if worst > tol:
        raise AssertionError(f"gradient check failed: relative error {worst:.3e} > {tol:.1e}")
    return errors
