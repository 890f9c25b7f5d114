"""The transductive inner loop and the per-task objective.

The inner update descends on the query inputs only: a synthetic-gradient
network maps predictions to a surrogate for the unavailable loss gradient,
and the update direction is the exact vector-Jacobian product of the
predictions with that surrogate (conceptually, the gradient of the scalar
``(1/n) sum_i <stop_grad(net(y_hat_i)), y_hat_i>`` with respect to the task
weights). The direction is a closed-form graph expression, one fused node
per step (``diffcore.cosine_sg_direction`` for the cosine head,
``linear_sg_direction`` for the toy slope; ``prior_pull`` adds the KL's
pull when it is in the inner loop), so the whole K-step unroll is one
first-order forward graph: the outer objective differentiates through it
with respect to the initialization, the synthetic-gradient network, and the
prior, with no higher-order machinery. The constant query features' row
norms are computed once per unroll, not once per step.

Query labels are never read while constructing the task weights; they enter
only through ``task_objective``. Each of its terms is one fused node too:
the data term is ``diffcore.linear_squared_error`` (the toy head, its weight
draws inside it) or ``softmax_cross_entropy`` over the cosine logits, and
the prior term is ``prior_divergence``, which carries the ``kl_weight``
stop-gradient split in its backward.

Every function here that takes episodes takes a batch of them
(``tasks.Episode``, fields stacked on a leading episode axis: query inputs
(B, n, d)), and its results carry that axis (task weights
(B, *theta_shape)), B = 1 included. Monte-Carlo weight draws go on one
more leading axis in front of it, so an outer step over B episodes and M
draws is one graph whose node count does not grow with B or M. How many
weights are drawn, the draw itself and the KL to the prior are the
posterior regime's (``distributions.Posterior``); nothing here reads the
regime.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor
from .distributions import (
    DETERMINISTIC,
    GAUSSIAN_FIXED_VAR,
    DiagGaussian,
    Posterior,
    kl_grad_wrt_mean,
)
from .models import MetaModel, apply_features
from .rules import BOOL, REAL, check_fields, int_at_least, one_of, optional, real_above
from .tasks import Episode, _stream

# rng sub-streams per episode, so adaptation noise never depends on labels
STREAM_INNER = 1
STREAM_OBJECTIVE = 2

# Forward-only passes (evaluation and analysis) adapt at most this many query
# points at once. No per-episode value depends on the chunk; its size bounds
# the activations alive at a time.
CHUNK_POINTS = 2400


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
    mc_samples: int = 1
    posterior_regime: str = GAUSSIAN_FIXED_VAR
    q_log_var: float = 2.0 * math.log(0.1)
    # legacy form of the toy update: sum over the query set instead of mean
    sum_convention: bool = False
    # evaluate inner-step predictions at the posterior mean instead of at
    # sampled weights (the exactly-solvable regression uses this form)
    inner_eval_at_mean: bool = False
    # Monte-Carlo draws for the outer objective; None reuses mc_samples
    objective_mc_samples: Optional[int] = None

    def __post_init__(self, prefix: str = ""):
        check_fields(self, _INNER_RULES, prefix)


_INNER_RULES = {
    "steps": int_at_least(0),
    "eta_inner": real_above(0),
    "kl_in_inner": BOOL,
    "mc_samples": int_at_least(1),
    "posterior_regime": one_of(GAUSSIAN_FIXED_VAR, DETERMINISTIC),
    "q_log_var": REAL,
    "sum_convention": BOOL,
    "inner_eval_at_mean": BOOL,
    "objective_mc_samples": optional(int_at_least(1)),
}


def prior_dist(model: MetaModel) -> DiagGaussian:
    return DiagGaussian(model.params["psi_mean"], model.params["psi_log_var"])


def flat_weights(theta: Tensor, model: MetaModel) -> Tensor:
    """Task weights as vectors: (..., k, d) -> (..., k*d); toy weights are (..., 1)."""
    if model.mode == "toy":
        return theta
    return theta.reshape(theta.shape[:-2] + (theta.shape[-2] * theta.shape[-1],))


def _mean_over_draws(values: Tensor, eps: Optional[np.ndarray]) -> Tensor:
    if eps is None:
        return values
    return dc.scale(dc.tsum(values, axis=0), 1.0 / len(eps))


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
    m = Posterior(cfg).inner_draws
    noise = _noise(episodes, STREAM_INNER, cfg.steps * m, shape) if m else None
    return [noise[k * m:(k + 1) * m] if m else None for k in range(cfg.steps)]


# -- closed-form update directions -------------------------------------------


def toy_direction(theta: Tensor, x: Tensor, model: MetaModel, cfg: InnerLoopConfig,
                  eps=None) -> Tensor:
    """(1/n) sum_i net(y_hat_i) * x_i, averaged over weight draws.

    The predictor is y_hat = w * x, so dy_hat_i/dw = x_i and dw/dtheta = 1;
    the expression is exactly the surrogate's gradient in theta while
    keeping the synthetic net's output in the graph.
    """
    contrib = dc.linear_sg_direction(Posterior(cfg).draw(theta, eps), x, model.sg_layers(),
                                     mean=not cfg.sum_convention)
    return _mean_over_draws(contrib, eps)


def fewshot_direction(theta: Tensor, features: Tensor, feature_norms: np.ndarray,
                      model: MetaModel, cfg: InnerLoopConfig, eps=None) -> Tensor:
    """Synthetic-gradient direction for the cosine head; ``feature_norms``
    are ``dc.row_norms(features.data)``."""
    seed_scale = 1.0 if cfg.sum_convention else 1.0 / features.shape[-2]
    contrib = dc.cosine_sg_direction(features, Posterior(cfg).draw(theta, eps),
                                     model.params["classifier_scale"], model.sg_layers(),
                                     seed_scale, feature_norms)
    return _mean_over_draws(contrib, eps)


def sib_step(theta: Tensor, inner_x: Tensor, model: MetaModel, cfg: InnerLoopConfig,
             eps=None, step_index: int = 0, feature_norms=None) -> Tensor:
    """One synthetic-gradient descent step on the query inputs (no labels);
    few-shot steps take the inputs' ``feature_norms``."""
    if model.mode == "toy":
        direction = toy_direction(theta, inner_x, model, cfg, eps)
    else:
        direction = fewshot_direction(theta, inner_x, feature_norms, model, cfg, eps)
    if cfg.kl_in_inner:
        kl_dir = kl_grad_wrt_mean(flat_weights(theta, model), prior_dist(model))
        direction = direction + kl_dir.reshape(theta.shape)
    theta_next = theta - dc.scale(direction, cfg.eta_inner)
    if not np.all(np.isfinite(theta_next.data)):
        raise InnerLoopError("non-finite inner update", step_index)
    return theta_next


def inner_inputs(model: MetaModel, episodes: Episode) -> Tensor:
    """Query-side inputs seen by the inner loop.

    Toy mode feeds raw inputs; few-shot mode feeds the feature map's output,
    detached so no gradient is back-propagated into the feature network from
    the adaptation path.
    """
    if model.mode == "toy":
        return dc.constant(episodes.query_inputs[..., 0])
    return dc.detach(apply_features(model, episodes.query_inputs))


def sib_unroll(theta0: Tensor, episodes: Episode, model: MetaModel, cfg: InnerLoopConfig):
    """Compose ``cfg.steps`` synthetic-gradient steps from ``theta0`` (one
    row per episode); returns (theta_K, the iterates theta_0 .. theta_K)."""
    x = inner_inputs(model, episodes)
    # the constant features' row norms, for every step's cosine terms
    norms = None if model.mode == "toy" else dc.row_norms(x.data)
    thetas = [theta0]
    for k, eps in enumerate(_step_noise(episodes, cfg, model.theta_shape())):
        thetas.append(sib_step(thetas[-1], x, model, cfg, eps, step_index=k, feature_norms=norms))
    return thetas[-1], thetas


def chunk_slices(n: int, n_query: int) -> list:
    """Consecutive slices of ``range(n)``, each of at most ``CHUNK_POINTS``
    query points (``n_query`` per item) and at least one item."""
    size = max(1, CHUNK_POINTS // n_query)
    return [slice(start, min(start + size, n)) for start in range(0, n, size)]


def forward_chunks(episodes):
    """Consecutive ``(first index, batch)`` chunks of a batch
    (``tasks.Episode``) or a pool (``tasks.EpisodePool``) of episodes, sized
    by ``chunk_slices``. A pool generates each chunk as it is read, so one
    chunk is held at a time."""
    for rows in chunk_slices(len(episodes), episodes.n_query):
        yield rows.start, episodes.take(rows)


# -- supervised losses ---------------------------------------------------------


def accuracy_value(logits_data: np.ndarray, labels):
    """Share of rows whose argmax is the label, per leading index."""
    return np.mean(logits_data.argmax(axis=-1) == np.asarray(labels), axis=-1)


def query_loss(model: MetaModel, inputs: np.ndarray, labels: np.ndarray, w: Tensor,
               sum_convention: bool = False, features: Optional[Tensor] = None) -> Tensor:
    """Loss of task weights ``w`` on labeled points, one value per episode
    (and per draw): MSE for the toy head, cross entropy for classification.

    ``inputs`` (..., n, d_x) and ``labels`` (..., n) broadcast against the
    leading axes of ``w``; ``features`` replaces the feature map's output.
    """
    if model.mode == "toy":
        return dc.linear_squared_error(w, None, inputs[..., 0], labels, not sum_convention)
    feats = apply_features(model, inputs) if features is None else features
    logits = dc.cosine_logits(feats, w, model.params["classifier_scale"])
    return dc.softmax_cross_entropy(logits, labels)


# -- per-task objective ---------------------------------------------------------


def data_term(episodes: Episode, theta: Tensor, model: MetaModel, cfg: InnerLoopConfig,
              eps: Optional[np.ndarray] = None, features: Optional[Tensor] = None) -> Tensor:
    """Monte-Carlo expected query loss under the variational posterior, one
    value per episode.

    MSE for the toy head, cross entropy for classification; per-point mean,
    matching the likelihood convention used throughout (the toy head's sum
    under ``sum_convention``). ``eps`` holds the draws, (M, *theta.shape);
    ``None`` evaluates at theta. The toy term is one node with the draws
    inside it.
    """
    posterior = Posterior(cfg)
    eps = eps if posterior.objective_draws else None
    if model.mode == "toy":
        return dc.linear_squared_error(theta, posterior.offsets(eps),
                                       episodes.query_inputs[..., 0], episodes.query_labels,
                                       not cfg.sum_convention)
    loss = query_loss(model, episodes.query_inputs, episodes.query_labels,
                      posterior.draw(theta, eps), features=features)
    return _mean_over_draws(loss, eps)


def prior_term(theta: Tensor, model: MetaModel, cfg: InnerLoopConfig,
               pull_weight: float = 1.0) -> Tensor:
    """The posterior's divergence at theta from the learnable prior, one value
    per episode; ``pull_weight`` of its cotangent reaches theta."""
    return Posterior(cfg).divergence(flat_weights(theta, model), prior_dist(model), pull_weight)


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
    draws = Posterior(cfg).objective_draws
    return _noise(episodes, STREAM_OBJECTIVE, draws, theta.shape[1:]) if draws else None


# -- inductive baseline ----------------------------------------------------------


def maml_inner(theta0: Tensor, episodes: Episode, model: MetaModel, cfg: InnerLoopConfig) -> Tensor:
    """Gradient ascent on the support log-likelihood (evaluation baseline).

    Uses true support labels only; each step differentiates the support
    loss at the current iterates numerically, so the result is a constant
    with respect to the meta-parameters. Episodes share no parameters, so the
    gradient of the summed loss is each episode's own gradient. Weights are
    drawn per step as in ``sib_unroll``.
    """
    inputs, labels = episodes.support_inputs, episodes.support_labels
    if inputs is None or inputs.shape[-2] == 0:
        raise ValueError("maml_inner requires a non-empty support set")
    theta_data = theta0.data.copy()
    sup_feats = None if model.mode == "toy" else dc.detach(apply_features(model, inputs))
    for k, eps in enumerate(_step_noise(episodes, cfg, model.theta_shape())):
        leaf = dc.param(theta_data.copy())
        loss = _mean_over_draws(query_loss(model, inputs, labels, Posterior(cfg).draw(leaf, eps),
                                           features=sup_feats), eps)
        (g,) = dc.grad(loss.sum(), [leaf], allow_unused=True)
        theta_data = theta_data - cfg.eta_inner * g
        if not np.all(np.isfinite(theta_data)):
            raise InnerLoopError("non-finite inductive update", k)
    return dc.constant(theta_data)


# -- self-supervised initialization -------------------------------------------------


def orthogonal_transform_labeler(features: np.ndarray):
    """Four deterministic orthogonal transforms of the feature vector.

    Returns (augmented features, transform ids): identity, negation, a
    coordinate roll by one, and an alternating sign flip.
    """
    d = features.shape[1]
    signs = np.where(np.arange(d) % 2 == 0, 1.0, -1.0)
    variants = [
        features,
        -features,
        np.roll(features, 1, axis=1),
        features * signs,
    ]
    aug = np.concatenate(variants, axis=0)
    labels = np.repeat(np.arange(4), features.shape[0])
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
    if model.mode != "fewshot":
        raise ValueError("ssl initialization applies to classification mode only")
    feats = dc.detach(apply_features(model, episodes.query_inputs)).data
    per_episode = [orthogonal_transform_labeler(f) for f in feats]
    aug = np.stack([a for a, _ in per_episode])
    ssl_labels = np.stack([lab for _, lab in per_episode])
    theta = model.params["lambda_global"]
    scale = model.params["classifier_scale"]
    aug_t = dc.constant(aug)
    proj = _ssl_projection(model.k)
    probs = dc.softmax(dc.matmul(dc.cosine_logits(aug_t, theta, scale), dc.constant(proj)))
    one_hot = (ssl_labels[..., None] == np.arange(4)).astype(np.float64)
    ce_grad = dc.scale(probs - dc.constant(one_hot), 1.0 / ssl_labels.shape[-1])
    seed = dc.matmul(ce_grad, dc.constant(proj.T.copy()))  # (..., 4n, k)
    direction = dc.cosine_vjp(aug_t, theta, scale, seed)
    return theta - dc.scale(direction, cfg.eta_inner)
