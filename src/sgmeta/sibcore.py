"""The transductive inner loop and the per-task objective.

The inner update descends on the query inputs only: a synthetic-gradient
network maps predictions to a surrogate for the unavailable loss gradient,
and the update direction is the exact vector-Jacobian product of the
predictions with that surrogate (conceptually, the gradient in the task
weights of ``(1/n) sum_i <net(y_hat_i), y_hat_i>`` with net's output held
constant). The direction is a closed-form array expression with a
hand-written VJP, and the whole K-step unroll, the KL's pull included when
it is in the inner loop, is one node (``diffcore.descent``) whose backward
walks the steps in reverse: the outer objective differentiates through it
with respect to the initialization, the synthetic-gradient network, and the
prior, with no higher-order machinery.

Query labels are never read while constructing the task weights; they enter
only through ``task_objective``. Each of its terms is one fused node too:
the head's data term, and the prior term ``diffcore.prior_divergence``,
which carries the ``kl_weight`` stop-gradient split in its backward.

Neither the mode nor the posterior regime is read here. The model's task
head (``models.ToyHead`` or ``CosineHead``) answers the mode's questions:
the weight shape and flattening, the inner inputs and their per-unroll
constant (the cosine head's feature row norms), the direction rule and the
parameters it reads, the query loss and data term, and the query loss's
closed-form gradient. The posterior section ``cfg.posterior`` (``distributions``)
answers the regime's: how many weights are drawn, the draw and the KL.

The inductive baseline, ``maml_inner``, steps through the same loop
(``_descend``) along the head's closed-form support-loss gradient
(``loss_gradient``), with no prior pull, on a frozen copy of the model, so
it keeps no reverse-pass state; the cosine head's shares
``models.cross_entropy_seed`` with ``ssl_init``.

Every function here that takes episodes takes a batch of them
(``tasks.Episode``, fields stacked on a leading episode axis: query inputs
(B, n, d)), and its results carry that axis (task weights
(B, *theta_shape)), B = 1 included. Monte-Carlo weight draws go on one
more leading axis in front of it, so an outer step over B episodes, M
draws and K inner steps is one graph whose node count does not grow with B,
M or K.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor
from .distributions import Deterministic, GaussianFixedVar
from .models import MetaModel, apply_features, cross_entropy_seed, frozen_copy, prior_dist
from .rules import BOOL, check_fields, int_at_least, real_above
from .tasks import Episode, _stream

# rng sub-streams per episode, so adaptation noise never depends on labels
STREAM_INNER = 1
STREAM_OBJECTIVE = 2

# Forward-only passes (evaluation and analysis) adapt at most this many query
# points at once: 64 few-shot episodes of 75, or 150 toy tasks of 32. No
# per-episode value depends on the chunk (tests/test_batched.py checks it bit
# for bit). Each chunk carries a fixed cost of per-call numpy overhead, so
# fewer chunks are faster; the size bounds the activations alive at a time.
# The synthetic-gradient network's hidden activations, the widest, do not
# grow with it: a forward-only pass runs that network in row blocks
# (``diffcore.MLP_BLOCK_VALUES``) and keeps none of them.
CHUNK_POINTS = 4800


class InnerLoopError(RuntimeError):
    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (inner step {step})")
        self.step = step


@dataclass
class InnerLoopConfig:
    """Knobs of the unrolled synthetic-gradient descent."""

    steps: int = 3
    eta_inner: float = 1e-3
    kl_in_inner: bool = False
    # legacy form of the toy update: sum over the query set instead of mean
    sum_convention: bool = False
    posterior: GaussianFixedVar | Deterministic = field(default_factory=GaussianFixedVar)

    def __post_init__(self, prefix: str = ""):
        check_fields(self, _INNER_RULES, prefix)
        check_fields(self.posterior, self.posterior.rules, f"{prefix}posterior.")


_INNER_RULES = {
    "steps": int_at_least(0),
    "eta_inner": real_above(0),
    "kl_in_inner": BOOL,
    "sum_convention": BOOL,
}


def _noise(episodes: Episode, stream: int, count: int, shape) -> np.ndarray:
    """``count`` standard-normal draws of ``shape`` per episode, (count, B,
    *shape), each episode from its own sub-stream in the order a per-episode
    loop would use."""
    size = int(np.prod(shape))
    eps = np.empty((count, len(episodes), size))
    for b, task_seed in enumerate(episodes.task_seed):
        eps[:, b] = _stream(task_seed, stream).normal(size=(count, size))
    return eps.reshape((count, len(episodes)) + tuple(shape))


def _step_noise(episodes: Episode, cfg: InnerLoopConfig, shape) -> list:
    """Each inner step's weight draws, (M, B, *shape), or ``None`` at the mean."""
    m = cfg.posterior.inner_draws
    noise = _noise(episodes, STREAM_INNER, cfg.steps * m, shape) if m else None
    return [noise[k * m:(k + 1) * m] if m else None for k in range(cfg.steps)]


def _check_finite(k: int, theta: np.ndarray) -> None:
    """``InnerLoopError`` naming inner step ``k`` when its update is not finite."""
    if not np.isfinite(theta).all():
        raise InnerLoopError("non-finite inner update", k)


def _descend(theta0: Tensor, episodes: Episode, model: MetaModel, cfg: InnerLoopConfig,
             direction, pull: bool) -> list:
    """``cfg.steps`` descent steps from ``theta0`` (one row per episode) as one
    node (``diffcore.descent``); returns the iterates theta_0 .. theta_K. Each
    step is the rule of ``direction``, (rule, the tensors it reads), at each
    of the step's weight draws, averaged over the draws, plus the prior's
    pull when ``pull``: the KL's gradient in theta, exact in both regimes, as
    q's variance does not enter."""
    offsets = [cfg.posterior.offsets(eps)
               for eps in _step_noise(episodes, cfg, model.head.theta_shape)]
    prior = prior_dist(model)
    return dc.descent(theta0, direction, cfg.eta_inner, offsets,
                      (prior.mean, prior.log_var) if pull else None, _check_finite)


def sib_unroll(theta0: Tensor, episodes: Episode, model: MetaModel, cfg: InnerLoopConfig):
    """Compose ``cfg.steps`` synthetic-gradient steps on the query inputs (no
    labels) from ``theta0`` (one row per episode), with the prior's pull
    under ``kl_in_inner``; returns (theta_K, the iterates theta_0 .. theta_K)."""
    inputs = model.head.inner_inputs(episodes.query_inputs)
    thetas = _descend(theta0, episodes, model, cfg,
                      model.head.direction(*inputs, cfg.sum_convention), cfg.kl_in_inner)
    return thetas[-1], thetas


def chunk_slices(n: int, n_query: int) -> list:
    """Consecutive slices of ``range(n)``, each of at most ``CHUNK_POINTS``
    query points (``n_query`` per item) and at least one item."""
    size = max(1, CHUNK_POINTS // n_query)
    return [slice(start, min(start + size, n)) for start in range(0, n, size)]


# -- per-task objective ---------------------------------------------------------


def data_term(episodes: Episode, theta: Tensor, model: MetaModel, cfg: InnerLoopConfig,
              eps: Optional[np.ndarray] = None) -> Tensor:
    """Monte-Carlo expected query loss under the variational posterior, one
    value per episode: the head's data term.

    MSE for the toy head, cross entropy for classification; per-point mean,
    matching the likelihood convention used throughout (the toy head's sum
    under ``sum_convention``). ``eps`` holds the draws, (M, *theta.shape);
    ``None`` evaluates at theta.
    """
    return model.head.data_term(episodes, theta, cfg.posterior, eps, cfg.sum_convention)


def prior_term(theta: Tensor, model: MetaModel, cfg: InnerLoopConfig,
               pull_weight: float = 1.0) -> Tensor:
    """The posterior's divergence at theta from the learnable prior, one value
    per episode; ``pull_weight`` of its cotangent reaches theta."""
    return cfg.posterior.divergence(model.head.flat(theta), prior_dist(model), pull_weight)


def task_objective(episodes: Episode, theta: Tensor, model: MetaModel, cfg: InnerLoopConfig,
                   kl_weight: float = 1.0) -> Tensor:
    """Per-task negative evidence bound, one value per episode: expected query
    loss plus KL to the prior.

    The prior term is split at a stop-gradient inside its node: ``kl_weight``
    of it sees theta and the rest a constant copy, so the prior always
    receives its full matching gradient while only ``kl_weight`` of its pull
    reaches the adapted weights. Weight 1 is the plain bound.
    """
    eps = objective_noise(theta, episodes, cfg)
    return data_term(episodes, theta, model, cfg, eps) + prior_term(theta, model, cfg, kl_weight)


def objective_noise(theta: Tensor, episodes: Episode, cfg: InnerLoopConfig) -> Optional[np.ndarray]:
    """Weight draws for the outer objective, (M, *theta.shape); None when
    every draw returns the mean (deterministic regime)."""
    draws = cfg.posterior.objective_draws
    return _noise(episodes, STREAM_OBJECTIVE, draws, theta.shape[1:]) if draws else None


# -- inductive baseline ----------------------------------------------------------


def maml_inner(theta0: Tensor, episodes: Episode, model: MetaModel, cfg: InnerLoopConfig) -> Tensor:
    """Gradient descent on the support loss (evaluation baseline).

    Uses true support labels only. Each step is the head's closed-form
    support-loss gradient (``loss_gradient``) at the weights drawn as in
    ``sib_unroll``, through the same loop, with no prior pull. It runs on a
    frozen copy of the model, so it builds no tape and the result is a
    constant with respect to the meta-parameters.
    """
    inputs, labels = episodes.support_inputs, episodes.support_labels
    if inputs is None or inputs.shape[-2] == 0:
        raise ValueError("maml_inner requires a non-empty support set")
    frozen = frozen_copy(model)
    features, _ = frozen.head.inner_inputs(inputs)
    rule = (lambda w: (frozen.head.loss_gradient(w, features, labels).data, None), ())
    thetas = _descend(dc.constant(theta0.data.copy()), episodes, frozen, cfg, rule, pull=False)
    return thetas[-1]


# -- self-supervised initialization -------------------------------------------------


def orthogonal_transform_labeler(features: np.ndarray):
    """Four deterministic orthogonal transforms of (..., n, d) feature rows.

    Returns (augmented features (..., 4n, d), transform ids (4n,), one row
    for every leading index): identity, negation, a coordinate roll by one,
    and an alternating sign flip.
    """
    d = features.shape[-1]
    signs = np.where(np.arange(d) % 2 == 0, 1.0, -1.0)
    variants = [
        features,
        -features,
        np.roll(features, 1, axis=-1),
        features * signs,
    ]
    aug = np.concatenate(variants, axis=-2)
    labels = np.repeat(np.arange(4), features.shape[-2])
    return aug, labels


@functools.lru_cache(maxsize=8)
def _ssl_projection(k: int) -> np.ndarray:
    """Fixed map from class logits to the four transform logits, built once
    per k and shared read-only."""
    proj = np.random.Generator(np.random.Philox(key=0x55AA)).normal(size=(k, 4)) / np.sqrt(k)
    proj.flags.writeable = False
    return proj


def ssl_init(model: MetaModel, episodes: Episode, cfg: InnerLoopConfig) -> Tensor:
    """One true-gradient step on a self-supervised task, starting from the
    global initialization; uses query inputs only, never class labels.

    The self-supervised labels are ids of deterministic orthogonal feature
    transforms; predictions of those ids are a fixed linear read-out of the
    class logits, and the update direction is the exact cross-entropy
    gradient pushed through the cosine head in closed form (differentiable
    with respect to the global initialization); one stacked step per episode
    from the shared initialization.
    """
    feats = dc.detach(apply_features(model, episodes.query_inputs)).data
    aug, ssl_labels = orthogonal_transform_labeler(feats)
    theta = model.params["lambda_global"]
    scale = model.params["classifier_scale"]
    aug_t = dc.constant(aug)
    proj = _ssl_projection(model.k)
    transform_logits = dc.matmul(dc.cosine_logits(aug_t, theta, scale), dc.constant(proj))
    seed = dc.matmul(cross_entropy_seed(transform_logits, ssl_labels),
                     dc.constant(proj.T.copy()))  # (..., 4n, k)
    direction = dc.cosine_vjp(aug_t, theta, scale, seed)
    return theta - dc.scale(direction, cfg.eta_inner)
