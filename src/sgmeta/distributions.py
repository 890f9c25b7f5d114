"""Diagonal Gaussians, and the posterior regime.

All quantities are built from diffcore ops so they stay differentiable with
respect to both distributions' parameters. Each task's variational posterior
q(θ | query set) has one of two regimes (``InnerLoopConfig.posterior_regime``):

* ``gaussian_fixed_var`` — the posterior's log-variance is frozen at
  ``q_log_var`` and only the mean is optimized; a draw perturbs the mean with
  scaled noise, and the divergence is the Gaussian KL.
* ``deterministic`` — a point-mass posterior: a draw returns the mean and the
  KL is replaced by ``dirac_prior_term`` (the cross term to the target plus
  its log-variance, dropping the divergent constant).

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


def _check_last_axis(op: str, a: Tensor, b: Tensor) -> None:
    if a.ndim == 0 or b.ndim == 0 or a.shape[-1] != b.shape[-1]:
        raise dc.ShapeError(op, a.shape, b.shape)


def kl_diag_gaussian(q: DiagGaussian, p: DiagGaussian) -> Tensor:
    """Exact KL(q || p) over the last axis; differentiable in both arguments'
    parameters.

    0.5 * sum( log(vp/vq) + (vq + (mq-mp)^2)/vp - 1 )
    """
    _check_last_axis("kl_diag_gaussian", q.mean, p.mean)
    log_ratio = p.log_var - q.log_var
    inv_vp = dc.exp(-p.log_var)
    diff = q.mean - p.mean
    quad = (dc.exp(q.log_var) + dc.square(diff)) * inv_vp
    return dc.scale((log_ratio + quad - 1.0).sum(axis=-1), 0.5)


def dirac_prior_term(theta_flat: Tensor, p: DiagGaussian) -> Tensor:
    """Prior-matching term for a point-mass posterior at ``theta_flat``.

    ||theta - mp||^2 weighted by 1/vp, halved, plus half the prior
    log-variance; the limit of the Gaussian KL as the posterior variance
    vanishes, with the divergent constant dropped. Differentiable in theta
    and in the prior's parameters, and minimized over the prior exactly at
    the moment-matching solution.
    """
    _check_last_axis("dirac_prior_term", theta_flat, p.mean)
    quad = dc.square(theta_flat - p.mean) * dc.exp(-p.log_var)
    return dc.scale((quad + p.log_var).sum(axis=-1), 0.5)


def kl_grad_wrt_mean(q_mean: Tensor, p: DiagGaussian) -> Tensor:
    """Closed-form d KL(q || p) / d q.mean = (mq - mp) / vp.

    One graph node (``diffcore.prior_pull``), so the expression itself stays
    differentiable (w.r.t. the mean and the prior's parameters) without any
    gradient-of-gradient machinery. The same formula is exact for both
    variational regimes since the posterior variance does not enter.
    """
    _check_last_axis("kl_grad_wrt_mean", q_mean, p.mean)
    return dc.prior_pull(q_mean, p.mean, p.log_var)


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

    def draw(self, theta: Tensor, eps) -> Tensor:
        """Reparameterized weights theta + std * eps, differentiable in theta.

        ``eps`` may carry extra leading axes (independent draws); its trailing
        shape must be theta's. ``None``, or a point mass, returns theta itself.
        """
        if eps is None or not self.random:
            return theta
        if eps.shape[eps.ndim - theta.ndim:] != theta.shape:
            raise dc.ShapeError("draw", theta.shape, eps.shape)
        return theta + dc.constant(self.std * eps)

    def divergence(self, theta_flat: Tensor, target: DiagGaussian) -> Tensor:
        """KL of the posterior at ``theta_flat`` to ``target``: the Gaussian
        KL, or for a point mass ``dirac_prior_term``."""
        if not self.random:
            return dirac_prior_term(theta_flat, target)
        log_var = dc.constant(np.full(theta_flat.shape, self.log_var))
        return kl_diag_gaussian(DiagGaussian(theta_flat, log_var), target)
