"""``sgmeta gradcheck``: finite-difference checks of every ``diffcore`` op
and of the unrolled training objective. Only that command imports it."""

from __future__ import annotations

import time
import zlib

import numpy as np

from . import diffcore as dc
from .sibcore import task_objective
from .trainer import build_model, config_from_dict, episode_objective, episodes_for


def _check(name: str, fn, failures: list) -> None:
    t0 = time.time()
    try:
        fn()
        print(f"ok   {name} ({time.time() - t0:.2f}s)")
    except Exception as exc:  # noqa: BLE001 - report and continue
        failures.append(name)
        print(f"FAIL {name}: {exc}")


_FEATS = np.linspace(-1.0, 2.0, 9)
_ROWS = np.linspace(-1.5, 1.0, 12)


def _cosine_rule(feats, scale, layers, seed_scale):
    """The cosine head's synthetic-gradient rule on constant features."""
    return dc._cosine_sg_direction(dc.constant(feats), scale, layers, seed_scale,
                                   dc.row_norms(feats))


def _descent(theta0, rule, steps, draws=0, pull=None):
    """theta_K of ``steps`` descent steps at a rate of 0.4 along ``rule``,
    with ``draws`` fixed offsets per step, squared."""
    offsets = [np.linspace(-0.3, 0.2, draws * theta0.size).reshape((draws,) + theta0.shape)
               * (k + 1) if draws else None for k in range(steps)]
    return _sq(dc.descent(theta0, rule, 0.4, offsets, pull)[-1])


def _mean(t, axis=None):
    """The mean of a tensor, over one axis or all."""
    return dc.scale(t.sum(axis=axis), 1.0 / (t.size if axis is None else t.shape[axis]))


def _sq(t):
    """A fused op's output squared entrywise, so the case's sum is not linear in it."""
    return t * t


def _layers(a, b, k):
    """A k -> 3 -> k relu network made of two 6-vectors' entries."""
    if k == 1:
        return [(_mean(b.reshape(2, 3), 0).reshape(1, 3), a.reshape(2, 3).sum(axis=0)),
                (_mean(b.reshape(3, 2), 1).reshape(3, 1), _mean(a).reshape(1))]
    return [(a.reshape(2, 3), _mean(b.reshape(2, 3), 0)),
            (b.reshape(3, 2), a.reshape(3, 2).sum(axis=0))]


# Finite-difference cases of the diffcore ops: (name, build), where build(a, b)
# is a tensor of two 6-vectors; a case is named after the op it checks, with
# an optional suffix ("matmul3d", "descent_cosine_affine").
OP_CASES = [
    ("add", lambda a, b: a + b),
    ("sub", lambda a, b: a - b),
    ("mul", lambda a, b: a * b),
    ("scale", lambda a, b: dc.scale(a, 2.5) + b),
    ("matmul", lambda a, b: dc.matmul(a.reshape(2, 3), b.reshape(3, 2))),
    ("matmul3d", lambda a, b: dc.matmul(a.reshape(2, 3, 1), b.reshape(2, 1, 3))),
    ("matmul3d_2d", lambda a, b: dc.matmul(a.reshape(3, 1, 2), b.reshape(2, 3))),
    ("reshape", lambda a, b: (a.reshape(3, 2) * b.reshape(3, 2)).sum()),
    ("softmax", lambda a, b: dc.softmax(a.reshape(2, 3)) * b.reshape(2, 3)),
    # the unrolled synthetic-gradient descent, both heads: "affine" cases
    # take a one-layer net, "draws" cases Monte-Carlo offsets and the prior's
    # pull on stacked (B, k, d) weights; cosine seeds and linear directions
    # by the mean and the sum convention
    ("descent_cosine_affine", lambda a, b: _descent(b.reshape(1, 2, 3), _cosine_rule(
        _FEATS.reshape(3, 3), _mean(a),
        [(dc.matmul(a.reshape(2, 3), b.reshape(3, 2)), b.reshape(3, 2).sum(axis=0))], 0.5), 2)),
    ("descent_linear_affine", lambda a, b: _descent(a.reshape(6, 1), dc._linear_sg_direction(
        dc.constant(_ROWS.reshape(6, 2)), [(_mean(b).reshape(1, 1), b.sum().reshape(1))],
        True), 2)),
    ("descent_cosine", lambda a, b: _descent(b.reshape(1, 2, 3), _cosine_rule(
        _FEATS.reshape(3, 3), _mean(a), _layers(a, b, 2), 1.0 / 3), 3)),
    ("descent_cosine_draws_pull", lambda a, b: _descent(
        a.reshape(2, 1, 3) * b.reshape(1, 2, 3),
        _cosine_rule(_ROWS.reshape(2, 2, 3), b.sum(), _layers(a, b, 2), 1.0), 2, draws=3,
        pull=(dc.scale(b, 0.5), a * 0.3))),
    ("descent_linear", lambda a, b: _descent(a.reshape(6, 1), dc._linear_sg_direction(
        dc.constant(_ROWS.reshape(6, 2)), _layers(a, b, 1), False), 3)),
    ("descent_linear_draws_pull", lambda a, b: _descent(
        _mean(a.reshape(2, 3), 0).reshape(3, 1),
        dc._linear_sg_direction(dc.constant(_FEATS.reshape(3, 3)), _layers(b, a, 1), True), 3,
        draws=2, pull=(_mean(b).reshape(1), (a.sum() * 0.3).reshape(1)))),
    ("cosine_logits", lambda a, b: _sq(
        dc.cosine_logits(a.reshape(2, 3), b.reshape(2, 3), _mean(b)))),
    ("cosine_logits3d", lambda a, b: _sq(
        dc.cosine_logits(a.reshape(3, 1, 2), b.reshape(1, 3, 2), a.sum()))),
    ("cosine_vjp", lambda a, b: _sq(dc.cosine_vjp(
        dc.constant(_FEATS.reshape(3, 3)), b.reshape(2, 3), _mean(a), a.reshape(3, 2)))),
    ("cosine_vjp3d", lambda a, b: _sq(dc.cosine_vjp(
        dc.constant(_FEATS.reshape(3, 1, 3)), b.reshape(1, 2, 3), b.sum(),
        a.reshape(3, 1, 2)))),
    # the objective's terms: a (d,) prior against (B, d) and stacked (M, B, d)
    # weights, in both regimes; slopes with and without Monte-Carlo offsets;
    # rows of 2-D and stacked logits. The prior term's split weight is 1:
    # central differences cannot see a stop-gradient.
    ("prior_divergence", lambda a, b: dc.prior_divergence(
        a.reshape(2, 3), _mean(b.reshape(2, 3), 0), dc.scale(b.reshape(3, 2).sum(axis=1), 0.3),
        -0.7)),
    ("prior_divergence_point_mass", lambda a, b: dc.prior_divergence(
        a.reshape(2, 3), _mean(b.reshape(2, 3), 0), dc.scale(b.reshape(3, 2).sum(axis=1), 0.3))),
    ("prior_divergence3d", lambda a, b: dc.prior_divergence(
        (a.reshape(6, 1) * b.reshape(1, 6)).reshape(2, 3, 6), b, a * 0.3, 0.4)),
    ("linear_squared_error", lambda a, b: dc.linear_squared_error(
        (a * b).reshape(6, 1), None, _ROWS.reshape(6, 2), _ROWS.reshape(2, 6).T, True)),
    ("linear_squared_error_draws", lambda a, b: dc.linear_squared_error(
        (a + b).reshape(2, 3, 1), np.linspace(-0.5, 0.4, 18).reshape(3, 2, 3, 1),
        _ROWS.reshape(3, 4), _FEATS[:4], False)),
    ("softmax_cross_entropy", lambda a, b: dc.softmax_cross_entropy(
        a.reshape(2, 3) * b.reshape(2, 3), [2, 0])),
    ("softmax_cross_entropy3d", lambda a, b: dc.softmax_cross_entropy(
        (a.reshape(6, 1) * b.reshape(1, 6)).reshape(3, 2, 6), [5, 1])),
    ("sum", lambda a, b: (a * b).sum().reshape(()) + a.sum(axis=0).sum()),
]


def check_op_case(name: str, build) -> None:
    """Autodiff against central differences of sum(build(a, b)) at 1e-6, on
    two normal 6-vectors drawn from a seed fixed by the case's name."""
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    a, b = dc.param(rng.normal(size=6)), dc.param(rng.normal(size=6))
    dc.check_gradients(lambda: build(a, b).sum(), [a, b], h=1e-5, tol=1e-6)


def run_checks() -> int:
    """Every check, reported one line each; 0 when all pass, else 1."""
    failures: list = []

    def op_suite():
        for name, build in OP_CASES:
            check_op_case(name, build)

    _check("diffcore op suite vs central differences", op_suite, failures)

    # the unrolled graphs are the training objective itself, episode_objective,
    # on a batch of two episodes of 5 query points, as training reads it: a
    # parsed config with outer_kl_weight 1 (central differences cannot see
    # the prior term's stop-gradient split), the model it builds with every
    # zero-initialized parameter drawn away from zero, and its episodes
    def objective_graph(data, scale, seed):
        cfg = config_from_dict({**data, "outer_kl_weight": 1})
        model = build_model(cfg)
        g = np.random.default_rng(seed)
        for t in model.trainable().values():
            if not t.data.any():
                t.data = g.normal(size=t.shape) * scale
        episodes = episodes_for(cfg, "train", (1, 2))
        # few-shot: trim one of 6 (sizes per class stay balanced at generation)
        episodes.query_inputs = episodes.query_inputs[:, :5]
        episodes.query_labels = episodes.query_labels[:, :5]
        params = [t for n, t in sorted(model.trainable().items()) if n != "f_weight"]
        dc.check_gradients(lambda: episode_objective(model, episodes, cfg)[0].sum(), params,
                           h=1e-5, tol=1e-6)
        if cfg.train_f:
            # theta0 and the inner loop read the features detached, so the map's
            # gradient is the objective's at fixed adapted weights
            fixed = dc.constant(episode_objective(model, episodes, cfg)[1].data)
            dc.check_gradients(
                lambda: task_objective(episodes, fixed, model, cfg.inner,
                                       cfg.outer_kl_weight).sum(),
                [model.params["f_weight"]], h=1e-5, tol=1e-6)

    # inner draws, the prior pull inside the inner loop, the mean convention
    toy = {"mode": "toy", "run_seed": 4, "toy": {"n": 5},
           "inner": {"eta_inner": 0.05, "kl_in_inner": True, "sum_convention": False,
                     "posterior": {"regime": "gaussian_fixed_var"}}}  # one draw each
    fewshot = {"mode": "fewshot", "run_seed": 5, "theta_init": "proto",
               "fewshot": {"k": 3, "n_shot": 1, "n_query_per_class": 2, "d_x": 4,
                           "class_pool": {"train": 8, "val": 4, "test": 4},
                           "cluster_spread": 0.4},
               "inner": {"eta_inner": 0.05, "kl_in_inner": True,
                         "posterior": {"regime": "deterministic"}}}
    _check("unrolled toy graph (K=3, 2 episodes) vs central differences",
           lambda: objective_graph(toy, 0.5, 3), failures)
    _check("unrolled classification graph (K=3, 3-way, 5 query points, 2 episodes)",
           lambda: objective_graph(fewshot, 0.3, 9), failures)
    _check("the same with a trainable feature map (train_f)",
           lambda: objective_graph({**fewshot, "train_f": True}, 0.3, 9), failures)

    if failures:
        print(f"{len(failures)} gradient check(s) failed")
        return 1
    print("all gradient checks passed")
    return 0

