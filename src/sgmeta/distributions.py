"""Diagonal Gaussians, and the posterior section.

Each task's variational posterior q(θ | query set) is the config section
``inner.posterior``: one class per regime, whose keys are exactly the knobs
that regime reads. Only this module tells the regimes apart; the rest of the
program reads a section's draw counts, ``random`` and ``has_bound``. Either
divergence is one node, ``diffcore.prior_divergence``, whose gradient in the
posterior mean (the prior's pull in ``diffcore.descent``) is the same in
both regimes; it reduces over the last axis only, so a stack of posteriors
against one prior gives one value per posterior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor
from .rules import REAL, check_fields, int_at_least, one_of

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


@dataclass
class Deterministic:
    """A point mass at the task weights: a draw is the mean, and the KL is the
    point-mass term (the cross term to the target plus its log-variance)."""

    regime: str = field(default=DETERMINISTIC, init=False)
    random = has_bound = False
    inner_draws = objective_draws = 0
    rules = {}  # no knob

    def offsets(self, eps):
        return None

    def draw(self, theta: Tensor, eps) -> Tensor:
        return theta

    def divergence(self, theta_flat: Tensor, target: DiagGaussian,
                   pull_weight: float = 1.0) -> Tensor:
        return dc.prior_divergence(theta_flat, target.mean, target.log_var, None, pull_weight)


@dataclass
class GaussianFixedVar:
    """A Gaussian of fixed log-variance around the task weights, drawn
    ``inner_draws`` times per inner step (0: at the mean) and
    ``objective_draws`` times for the objective; its KL is nonnegative."""

    regime: str = field(default=GAUSSIAN_FIXED_VAR, init=False)
    log_var: float = 2.0 * math.log(0.1)
    inner_draws: int = 1
    objective_draws: int = 1
    random = has_bound = True
    rules = {"log_var": REAL, "inner_draws": int_at_least(0), "objective_draws": int_at_least(1)}

    def offsets(self, eps):
        """The draws' offsets std * eps from the mean; ``None`` for ``None``."""
        return None if eps is None else np.exp(0.5 * self.log_var) * eps

    def draw(self, theta: Tensor, eps) -> Tensor:
        """theta + std * eps, differentiable in theta; eps may lead with draw axes."""
        if eps is None:
            return theta
        if eps.shape[eps.ndim - theta.ndim:] != theta.shape:
            raise dc.ShapeError("draw", theta.shape, eps.shape)
        return theta + dc.constant(self.offsets(eps))

    def divergence(self, theta_flat: Tensor, target: DiagGaussian,
                   pull_weight: float = 1.0) -> Tensor:
        """The Gaussian KL at ``log_var``; ``pull_weight`` of its cotangent reaches theta."""
        return dc.prior_divergence(theta_flat, target.mean, target.log_var, self.log_var,
                                   pull_weight)


REGIMES = {section.regime: section for section in (Deterministic, GaussianFixedVar)}


def posterior_for(current, updates, key: str):
    """The section ``updates`` apply to: one of the regime they name, else ``current``."""
    if not isinstance(updates, dict) or "regime" not in updates:
        return current
    check_fields(SimpleNamespace(regime=updates["regime"]), {"regime": one_of(*REGIMES)}, f"{key}.")
    return REGIMES[updates["regime"]]()
