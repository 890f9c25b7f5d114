"""Diagonal Gaussians, and the posterior regime.

Each task's variational posterior q(θ | query set) has one of two regimes
(``InnerLoopConfig.posterior_regime``):

* ``gaussian_fixed_var`` — the posterior's log-variance is frozen at
  ``q_log_var`` and only the mean is optimized; a draw perturbs the mean with
  scaled noise, and the divergence is the Gaussian KL.
* ``deterministic`` — a point-mass posterior: a draw returns the mean and the
  KL is replaced by the point-mass term (the cross term to the target plus
  its log-variance, dropping the divergent constant).

Either divergence is one node, ``diffcore.prior_divergence``. Its gradient
in the posterior mean, which the inner loop adds under ``kl_in_inner``, is
the same in both regimes; the inner loop's node (``diffcore.descent``)
computes it in each step as the prior's pull.

``Posterior`` alone reads the regime and the knobs only the Gaussian regime
uses (``q_log_var``, ``mc_samples``, ``objective_mc_samples``, ``inner_eval_at_mean``).

Divergences reduce over the last axis only: a stack of posteriors against
one prior gives one value per posterior.
"""

from __future__ import annotations

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor

GAUSSIAN_FIXED_VAR = "gaussian_fixed_var"
DETERMINISTIC = "deterministic"


class DiagGaussian:
    """Diagonal Gaussian with Tensor-valued mean and log-variance."""

    __slots__ = ("mean", "log_var")

    def __init__(self, mean, log_var):
        self.mean = mean if isinstance(mean, Tensor) else Tensor(mean)
        self.log_var = log_var if isinstance(log_var, Tensor) else Tensor(log_var)
        if self.mean.shape != self.log_var.shape:
            raise dc.ShapeError("DiagGaussian", self.mean.shape, self.log_var.shape)


class Posterior:
    """The variational posterior of an ``InnerLoopConfig``'s regime: whether a
    draw differs from the mean (``random``), the weights drawn per inner step
    and for the outer objective (0: predict at the mean), and whether the
    information bound exists (only the Gaussian KL is a nonnegative proxy)."""

    def __init__(self, inner):
        self.random = self.has_bound = inner.posterior_regime == GAUSSIAN_FIXED_VAR
        self.log_var = inner.q_log_var
        self.std = np.exp(0.5 * inner.q_log_var) if self.random else None
        self.inner_draws = inner.mc_samples if self.random and not inner.inner_eval_at_mean else 0
        draws = inner.objective_mc_samples or inner.mc_samples
        self.objective_draws = draws if self.random else 0

    def offsets(self, eps):
        """The draws' offsets std * eps from the mean, or ``None`` when every
        draw is the mean (``eps`` is ``None``, or a point mass)."""
        return None if eps is None or not self.random else self.std * eps

    def draw(self, theta: Tensor, eps) -> Tensor:
        """Reparameterized weights theta + std * eps, differentiable in theta.

        ``eps`` may carry extra leading axes (independent draws); its trailing
        shape must be theta's. ``None``, or a point mass, returns theta itself.
        """
        offsets = self.offsets(eps)
        if offsets is None:
            return theta
        if eps.shape[eps.ndim - theta.ndim:] != theta.shape:
            raise dc.ShapeError("draw", theta.shape, eps.shape)
        return theta + dc.constant(offsets)

    def divergence(self, theta_flat: Tensor, target: DiagGaussian,
                   pull_weight: float = 1.0) -> Tensor:
        """KL of the posterior at ``theta_flat`` to ``target`` as one node
        (``diffcore.prior_divergence``): the Gaussian KL at the fixed
        ``q_log_var``, or the point-mass term. Only ``pull_weight`` of the
        cotangent reaches ``theta_flat``; the target gets all of it."""
        q_log_var = self.log_var if self.random else None
        return dc.prior_divergence(theta_flat, target.mean, target.log_var, q_log_var,
                                   pull_weight)
