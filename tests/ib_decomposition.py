"""An exhaustive check of the information decomposition on discrete tables.

On a small joint model over tasks, datasets and weights, enumerated in full,
the population objective (expected negative log-likelihood plus KL to the
prior) equals the mutual information between weights and data, plus the
conditional cross entropy, plus the aggregated posterior's KL to the prior;
and it dominates the entropic lower bound. The check never touches the model.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class DiscreteInstance:
    """Tabulated joint model over tasks, datasets, and weights."""

    q_t: np.ndarray  # (T,)
    q_d_given_t: np.ndarray  # (T, D)
    q_w_given_dt: np.ndarray  # (T, D, W)
    p_w: np.ndarray  # (W,)
    p_d_given_wt: np.ndarray  # (T, W, D)

    def __post_init__(self):
        for name in ("q_t", "q_d_given_t", "q_w_given_dt", "p_w", "p_d_given_wt"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            setattr(self, name, arr)
            if np.any(arr < 0):
                raise ValueError(f"{name} has negative entries")
        _check_rows(self.q_t[None, :], "q_t")
        _check_rows(self.q_d_given_t, "q_d_given_t")
        _check_rows(self.q_w_given_dt.reshape(-1, self.q_w_given_dt.shape[-1]), "q_w_given_dt")
        _check_rows(self.p_w[None, :], "p_w")
        _check_rows(self.p_d_given_wt.reshape(-1, self.p_d_given_wt.shape[-1]), "p_d_given_wt")

    @property
    def sizes(self):
        t, d, w = self.q_w_given_dt.shape
        return t, d, w


def _check_rows(mat: np.ndarray, name: str, tol: float = 1e-12) -> None:
    sums = mat.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > tol):
        raise ValueError(f"{name} rows must sum to 1 (max deviation {np.abs(sums-1).max():.2e})")


def random_instance(rng, t: int = 2, d: int = 3, w: int = 4,
                    concentration: float = 1.0) -> DiscreteInstance:
    """Random strictly positive tables (Dirichlet rows); capped at 16^3."""
    if max(t, d, w) > 16:
        raise ValueError("instance sizes capped at 16 per axis")

    def dirichlet(shape):
        raw = rng.gamma(concentration, size=shape) + 1e-12
        return raw / raw.sum(axis=-1, keepdims=True)

    return DiscreteInstance(
        q_t=dirichlet((t,)),
        q_d_given_t=dirichlet((t, d)),
        q_w_given_dt=dirichlet((t, d, w)),
        p_w=dirichlet((w,)),
        p_d_given_wt=dirichlet((t, w, d)),
    )


@dataclass
class IbReport:
    objective: float
    mi_term: float
    cross_entropy_term: float
    prior_kl_term: float
    residual: float
    lower_bound: float
    bound_satisfied: bool


def ib_decomposition_check(inst: DiscreteInstance, tol: float = 1e-9) -> IbReport:
    """Exhaustive check that the population objective equals the mutual
    information plus the conditional cross entropy plus the aggregated
    prior KL, and dominates the entropic lower bound."""
    t_n, d_n, w_n = inst.sizes
    q_t = inst.q_t
    q_dt = inst.q_d_given_t
    q_wdt = inst.q_w_given_dt
    # joint over (t, d, w) and the aggregated posterior q(w | t)
    joint = q_t[:, None, None] * q_dt[:, :, None] * q_wdt
    q_w_t = (q_dt[:, :, None] * q_wdt).sum(axis=1)  # (T, W)

    # objective: E_t E_d [ E_{q(w|d,t)}[-log p(d|w,t)] + KL(q(w|d,t) || p(w)) ]
    log_p_d_wt = np.log(inst.p_d_given_wt)  # (T, W, D)
    nll = -(joint * np.transpose(log_p_d_wt, (0, 2, 1))).sum()
    kl_to_p = (joint * (np.log(q_wdt) - np.log(inst.p_w)[None, None, :])).sum()
    objective = nll + kl_to_p

    mi_term = (joint * (np.log(q_wdt) - np.log(q_w_t)[:, None, :])).sum()
    cross_entropy_term = nll
    prior_kl_term = (q_t[:, None] * q_w_t * (np.log(q_w_t) - np.log(inst.p_w)[None, :])).sum()

    residual = objective - (mi_term + cross_entropy_term + prior_kl_term)

    # entropic lower bound: I + H_q(d | w, t)
    q_d_wt = joint / (q_t[:, None, None] * q_w_t[:, None, :])  # q(d | w, t)
    h_q = -(joint * np.log(q_d_wt)).sum()
    lower_bound = mi_term + h_q

    report = IbReport(
        objective=float(objective),
        mi_term=float(mi_term),
        cross_entropy_term=float(cross_entropy_term),
        prior_kl_term=float(prior_kl_term),
        residual=float(residual),
        lower_bound=float(lower_bound),
        bound_satisfied=bool(objective >= lower_bound - tol),
    )
    if abs(report.residual) > tol:
        raise AssertionError(f"decomposition residual {report.residual:.3e} exceeds {tol:.1e}")
    if not report.bound_satisfied:
        raise AssertionError("population objective fell below its entropic lower bound")
    return report
