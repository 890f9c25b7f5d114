"""Diagonal Gaussians: closed-form KL and reparameterized sampling.

All quantities are built from diffcore ops so they stay differentiable with
respect to both distributions' parameters. Two variational regimes are used
by the rest of the package:

* ``gaussian_fixed_var`` — the posterior's log-variance is frozen and only the
  mean is optimized; sampling perturbs the mean with scaled noise.
* ``deterministic`` — a point-mass posterior: sampling returns the mean and
  the KL term is replaced by ``dirac_prior_term`` (the cross term to the
  prior plus the prior's log-variance, dropping additive constants).

Divergences reduce over the last axis only: a stack of posteriors against
one prior gives one value per posterior.
"""

from __future__ import annotations

from . import diffcore as dc
from .diffcore import Tensor


class DiagGaussian:
    """Diagonal Gaussian with Tensor-valued mean and log-variance."""

    __slots__ = ("mean", "log_var")

    def __init__(self, mean, log_var):
        self.mean = mean if isinstance(mean, Tensor) else Tensor(mean)
        self.log_var = log_var if isinstance(log_var, Tensor) else Tensor(log_var)
        if self.mean.shape != self.log_var.shape:
            raise dc.ShapeError("DiagGaussian", self.mean.shape, self.log_var.shape)

    def std(self) -> Tensor:
        return dc.exp(dc.scale(self.log_var, 0.5))


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


def sample_reparam(q: DiagGaussian, eps) -> Tensor:
    """w = mean + exp(log_var / 2) * eps; differentiable in q's parameters.

    ``eps`` may carry extra leading axes (independent draws); its trailing
    shape must be the mean's.
    """
    eps_t = eps if isinstance(eps, Tensor) else Tensor(eps)
    if eps_t.shape[eps_t.ndim - q.mean.ndim:] != q.mean.shape:
        raise dc.ShapeError("sample_reparam", q.mean.shape, eps_t.shape)
    return q.mean + q.std() * eps_t


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
