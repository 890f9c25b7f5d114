"""Theory-facing diagnostics.

The mutual-information proxy, a Monte-Carlo generalization gap with its
subgaussian upper bound, an exhaustively enumerated decomposition of the
population objective on small discrete instances, and the query-size sweep.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .models import MetaModel, frozen_copy
from .sibcore import (
    GAUSSIAN_FIXED_VAR,
    InnerLoopConfig,
    forward_chunks,
    prior_term,
    query_loss,
    sib_unroll,
)
from .tasks import (
    Episode,
    FewShotConfig,
    LazySequence,
    ToyConfig,
    derive_task_seed,
    episode_rng,
    gen_spinning_lines,
    resample_query_set,
    stacked,
)
from . import diffcore as dc

# Every estimator generates and adapts its trials in chunks of at most
# ``CHUNK_POINTS`` query points (``forward_chunks``, sized from the first
# dataset) through the batched unroll, on a constant copy of the model, so no
# autodiff tape is built and one chunk of datasets is alive at a time.
# ``theta0_fn(frozen, chunk)`` gives the chunk's stacked initializations
# (default: the global one). Randomness is drawn per trial in the order a
# one-trial-at-a-time loop would draw it. The estimators of one gap estimate
# read their adapted weights from one table (``AdaptedWeights``), so no trial
# is adapted twice.


def _adapt(frozen: MetaModel, episodes, inner: InnerLoopConfig,
           theta0_fn: Optional[Callable] = None) -> np.ndarray:
    """Adapted weights of a list of episodes, stacked."""
    if theta0_fn is None:
        lam = frozen.params["lambda_global"].data
        theta0 = dc.constant(np.broadcast_to(lam, (len(episodes),) + lam.shape))
    else:
        theta0 = theta0_fn(frozen, episodes)
    theta_k, _ = sib_unroll(theta0, episodes, frozen, inner)
    return theta_k.data


def _losses(frozen: MetaModel, inputs: np.ndarray, labels: np.ndarray,
            w: np.ndarray) -> np.ndarray:
    """Per-dataset empirical risk of fixed task weights, one per row of ``w``."""
    w = w.reshape((len(w),) + frozen.theta_shape())
    return query_loss(frozen, inputs, labels, dc.constant(w)).data


class AdaptedWeights:
    """Adapted weights θ_K of a trial sampler's datasets, by trial.

    The estimators of one gap estimate share their trials' datasets, so they
    share one table: each trial is drawn and adapted once. An episode's θ_K
    does not depend on the chunk it is adapted in (its inner-loop draws are
    keyed on its own task seed).
    """

    def __init__(self, model: MetaModel, task_sampler, inner: InnerLoopConfig,
                 theta0_fn: Optional[Callable] = None):
        self.frozen = frozen_copy(model)
        self.task_sampler = task_sampler
        self.inner = inner
        self.theta0_fn = theta0_fn
        self._by_trial: dict = {}

    def __call__(self, trials, datasets=None) -> np.ndarray:
        """Stacked θ_K of ``trials``. The ones not yet in the table are
        adapted in chunks, on ``datasets`` (one per trial) when given, else
        on the sampler's, generated chunk by chunk."""
        missing = [t for t in trials if t not in self._by_trial]
        if datasets is not None:
            given = dict(zip(trials, datasets))
            episodes = [given[t] for t in missing]
        else:
            episodes = LazySequence(len(missing), lambda j: self.task_sampler(missing[j])[0])
        for start, chunk in forward_chunks(episodes):
            thetas = _adapt(self.frozen, chunk, self.inner, self.theta0_fn)
            for t, theta in zip(missing[start:], thetas):
                self._by_trial[t] = theta
        return np.stack([self._by_trial[t] for t in trials])


def mi_estimate(model: MetaModel, theta_k: np.ndarray, inner: InnerLoopConfig) -> float:
    """Mutual-information proxy: mean KL from the posteriors of the stacked
    adapted weights ``theta_k`` to the prior.

    In the deterministic regime the term is the point-mass prior term, which
    drops a divergent constant (a point mass has infinite KL to the prior),
    so only there may it be negative.
    """
    value = float(np.mean(prior_term(dc.constant(theta_k), model, inner).data))
    if inner.posterior_regime == GAUSSIAN_FIXED_VAR and value < -1e-12:
        raise AssertionError("mutual-information proxy must be nonnegative")
    return value


# -- generalization gap and bound ----------------------------------------------


@dataclass
class GapEstimate:
    gap: float
    stderr: float
    trials: int
    sigma: float
    bound: Optional[float]  # None in the deterministic regime, which has no bound
    mi: float
    n: int


def toy_task_sampler(cfg: ToyConfig, seed: int, n: Optional[int] = None):
    """Trial sampler for the toy process: a dataset plus a fresh re-draw."""

    def sample(trial: int):
        d = gen_spinning_lines(cfg, derive_task_seed(seed, "test", 2 * trial), n=n)

        def fresh() -> Episode:
            return gen_spinning_lines(cfg, derive_task_seed(seed, "test", 2 * trial + 0x10002), n=n)

        return d, fresh

    return sample


def fewshot_task_sampler(cfg: FewShotConfig, seed: int, split: str = "test"):
    """Fresh query sets of the same classes define the task's dataset draw."""
    from .tasks import gen_fewshot_episode

    def sample(trial: int):
        d = gen_fewshot_episode(cfg, split, derive_task_seed(seed, split, 3 * trial))

        def fresh() -> Episode:
            return resample_query_set(d, cfg, derive_task_seed(seed, split, 3 * trial + 1))

        return d, fresh

    return sample


def _draw_posterior_weight(theta_data: np.ndarray, inner: InnerLoopConfig, rng) -> np.ndarray:
    if inner.posterior_regime == GAUSSIAN_FIXED_VAR:
        std = math.exp(inner.q_log_var / 2.0)
        return theta_data.reshape(-1) + std * rng.normal(size=theta_data.size)
    return theta_data.reshape(-1)


def gen_gap(model: MetaModel, task_sampler, inner: InnerLoopConfig, trials: int = 2000,
            seed: int = 0, theta0_fn: Optional[Callable] = None,
            adapted: Optional[AdaptedWeights] = None) -> GapEstimate:
    """Monte-Carlo generalization gap of the adaptation process.

    Per trial: draw a dataset, adapt on its inputs, draw task weights from
    the resulting posterior, and compare the loss on a fresh dataset of the
    same task against the loss on the adapted-on dataset. The scale σ and
    the mutual-information term read their adapted weights from the same
    table (``adapted``, by default a new one for these arguments), so they
    adapt only the trials the gap did not.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if adapted is None:
        adapted = AdaptedWeights(model, task_sampler, inner, theta0_fn)
    rng = episode_rng(derive_task_seed(seed, "test", 0x6A9), stream=7)
    diffs = np.empty(trials)
    n_query = None
    for start, samples in forward_chunks(LazySequence(trials, task_sampler),
                                         n_query=lambda sample: sample[0].n_query):
        idx = range(start, start + len(samples))
        datasets = [d for d, _ in samples]
        n_query = datasets[-1].n_query
        w = np.stack([_draw_posterior_weight(theta, inner, rng)
                      for theta in adapted(idx, datasets)])
        on_d = _losses(adapted.frozen, stacked(datasets, "query_inputs"),
                       stacked(datasets, "query_labels"), w)
        fresh = [sample_fresh() for _, sample_fresh in samples]
        on_fresh = _losses(adapted.frozen, stacked(fresh, "query_inputs"),
                           stacked(fresh, "query_labels"), w)
        diffs[idx.start:idx.stop] = on_fresh - on_d
    gap = float(diffs.mean())
    stderr = float(diffs.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    sigma = estimate_sigma(adapted, draws=min(trials, 2000), seed=seed + 1)
    mi = mi_for_sampler(adapted, episodes=min(trials, 200))
    bound = gen_bound(sigma, n_query, mi) if inner.posterior_regime == GAUSSIAN_FIXED_VAR \
        else None
    return GapEstimate(gap=gap, stderr=stderr, trials=trials, sigma=sigma,
                       bound=bound, mi=mi, n=n_query)


def estimate_sigma(adapted: AdaptedWeights, draws: int, seed: int) -> float:
    """Plug-in subgaussian scale: half the observed per-example loss range
    under independently drawn task weights and data points. The weights of
    draw t come from trial 2t, read from ``adapted``; the point from trial
    2t + 1 of its sampler."""
    rng = episode_rng(derive_task_seed(seed, "test", 0x51E), stream=9)
    losses = []
    points = LazySequence(draws, lambda t: adapted.task_sampler(2 * t + 1)[0])
    for start, chunk in forward_chunks(points):
        thetas = adapted([2 * t for t in range(start, start + len(chunk))])
        w, inputs, labels = [], [], []
        for d_z, theta in zip(chunk, thetas):
            w.append(_draw_posterior_weight(theta, adapted.inner, rng))
            i = int(rng.integers(d_z.n_query))
            inputs.append(d_z.query_inputs[i : i + 1])
            labels.append(d_z.query_labels[i : i + 1])
        losses.extend(_losses(adapted.frozen, np.stack(inputs), np.stack(labels), np.stack(w)))
    losses = np.asarray(losses)
    return float((losses.max() - losses.min()) / 2.0)


def mi_for_sampler(adapted: AdaptedWeights, episodes: int) -> float:
    """Mutual-information proxy over the first ``episodes`` trials of the
    table's sampler, their weights read from ``adapted``."""
    return mi_estimate(adapted.frozen, adapted(range(episodes)), adapted.inner)


def gen_bound(sigma: float, n: int, mi: float) -> float:
    """Subgaussian information bound sqrt(2 sigma^2 mi / n)."""
    if mi < 0:
        raise ValueError("mutual information must be nonnegative")
    if sigma <= 0 or n < 1:
        raise ValueError("requires sigma > 0 and n >= 1")
    return math.sqrt(2.0 * sigma * sigma * mi / n)


# -- discrete decomposition check -------------------------------------------------


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


# -- query-size sweep ----------------------------------------------------------------


@dataclass
class SweepRow:
    n: int
    gap: float
    stderr: float
    bound: Optional[float]
    sigma: float
    mi: float
    metric: float  # query mse (toy) or accuracy (classification)


def vary_n_sweep(model: MetaModel, cfg, inner: InnerLoopConfig, n_values,
                 trials: int = 500, seed: int = 0) -> list:
    """Generalization gap, bound, and task metric at each query-set size.

    The trained model is adapted at each size. A sum-convention update would
    scale the step with the query count, so it is converted to the
    equivalent per-point form matched at the training size ``cfg.n``; only
    toy mode supports the size sweep since the few-shot query size is tied
    to the episode layout.
    """
    if not n_values:
        raise ValueError("n_values must be non-empty")
    if inner.sum_convention:
        inner = dataclasses.replace(inner, sum_convention=False,
                                    eta_inner=inner.eta_inner * cfg.n)
    rows = []
    for n in n_values:
        sampler = toy_task_sampler(cfg, seed=seed + 131 * n, n=n)
        adapted = AdaptedWeights(model, sampler, inner)
        est = gen_gap(model, sampler, inner, trials=trials, seed=seed + n, adapted=adapted)
        metric_trials = range(min(trials, 200))
        datasets = [sampler(t)[0] for t in metric_trials]
        mse = float(np.mean(_losses(adapted.frozen, stacked(datasets, "query_inputs"),
                                    stacked(datasets, "query_labels"), adapted(metric_trials))))
        rows.append(SweepRow(n=int(n), gap=est.gap, stderr=est.stderr, bound=est.bound,
                             sigma=est.sigma, mi=est.mi, metric=mse))
    return rows


def spearman_rank_correlation(xs, ys) -> float:
    """Spearman rho via rank Pearson correlation (average ranks on ties)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)

    def ranks(v):
        order = np.argsort(v, kind="stable")
        r = np.empty(len(v))
        r[order] = np.arange(1, len(v) + 1)
        # average ties
        for val in np.unique(v):
            mask = v == val
            if mask.sum() > 1:
                r[mask] = r[mask].mean()
        return r

    rx, ry = ranks(xs), ranks(ys)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float((rx**2).sum() * (ry**2).sum()))
    if denom == 0:
        return 0.0
    return float((rx * ry).sum() / denom)


# -- report output --------------------------------------------------------------------


def write_report_csv(path, quantities) -> None:
    """``quantity,value,stderr`` rows."""
    with open(path, "w") as fh:
        fh.write("quantity,value,stderr\n")
        for name, value, stderr in quantities:
            fh.write(f"{name},{value!r},{stderr!r}\n")


def write_report_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
