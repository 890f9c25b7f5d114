"""Theory-facing diagnostics.

The mutual-information proxy, a Monte-Carlo generalization gap with its
subgaussian upper bound, and the query-size sweep. Posterior weights are
drawn, and the bound exists or not, as the posterior regime says
(``distributions.Posterior``).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .distributions import Posterior
from .models import MetaModel, frozen_copy
from .sibcore import (
    InnerLoopConfig,
    chunk_slices,
    forward_chunks,
    prior_term,
    query_loss,
    sib_unroll,
)
from .tasks import (
    Episode,
    EpisodePool,
    FewShotConfig,
    ToyConfig,
    derive_task_seed,
    episode_rng,
    gen_fewshot_episode,
    gen_spinning_lines,
    resample_query_set,
)
from . import diffcore as dc

# Every estimator generates and adapts its trials in chunks of at most
# ``CHUNK_POINTS`` query points (``chunk_slices``, sized by the sampler's
# query size), each chunk's datasets one batch (``tasks.Episode``), through
# the batched unroll, on a constant copy of the model, so no autodiff tape is
# built and one chunk of datasets is alive at a time.
# ``theta0_fn(frozen, chunk)`` gives the chunk's stacked initializations
# (default: the global one). Randomness is drawn per trial in the order a
# one-trial-at-a-time loop would draw it. The estimators of one gap estimate
# read their adapted weights from one table (``AdaptedWeights``), so no trial
# is adapted twice, and σ picks its points from the gap's datasets while they
# are alive (``SigmaDraws``), so no trial is generated twice.


def _adapt(frozen: MetaModel, episodes: Episode, inner: InnerLoopConfig,
           theta0_fn: Optional[Callable] = None) -> np.ndarray:
    """Adapted weights of a batch of episodes, stacked."""
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

    def __init__(self, model: MetaModel, task_sampler: TaskSampler, inner: InnerLoopConfig,
                 theta0_fn: Optional[Callable] = None):
        self.frozen = frozen_copy(model)
        self.task_sampler = task_sampler
        self.inner = inner
        self.posterior = Posterior(inner)
        self.theta0_fn = theta0_fn
        self._by_trial: dict = {}

    def __call__(self, trials, datasets: Optional[Episode] = None) -> np.ndarray:
        """Stacked θ_K of ``trials``. The ones not yet in the table are
        adapted in chunks, on ``datasets`` (a batch, one row per trial) when
        given, else on the sampler's, generated chunk by chunk."""
        rows = [i for i, t in enumerate(trials) if t not in self._by_trial]
        missing = [trials[i] for i in rows]
        if datasets is not None:
            episodes = datasets if len(rows) == len(trials) else datasets.take(rows)
        else:
            episodes = EpisodePool(len(missing), self.task_sampler.n_query,
                                   lambda js: self.task_sampler.draw([missing[j] for j in js])[0])
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
    if Posterior(inner).has_bound and value < -1e-12:
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


@dataclass(frozen=True)
class TaskSampler:
    """The datasets of a gap estimate's trials: ``draw(trials)`` gives the
    trials' datasets as one batch and a function that draws a fresh dataset
    of each trial's task, as another. Every dataset has ``n_query``
    query points."""

    n_query: int
    draw: Callable


def toy_task_sampler(cfg: ToyConfig, seed: int, n: Optional[int] = None) -> TaskSampler:
    """Trial sampler for the toy process: a dataset plus a fresh re-draw."""

    def draw(trials):
        d = gen_spinning_lines(cfg, [derive_task_seed(seed, "test", 2 * t) for t in trials], n=n)

        def fresh() -> Episode:
            return gen_spinning_lines(
                cfg, [derive_task_seed(seed, "test", 2 * t + 0x10002) for t in trials], n=n)

        return d, fresh

    return TaskSampler(cfg.n_query if n is None else int(n), draw)


def fewshot_task_sampler(cfg: FewShotConfig, seed: int, split: str = "test") -> TaskSampler:
    """Fresh query sets of the same classes define the task's dataset draw."""

    def draw(trials):
        d = gen_fewshot_episode(cfg, split, [derive_task_seed(seed, split, 3 * t) for t in trials])

        def fresh() -> Episode:
            return resample_query_set(d, cfg,
                                      [derive_task_seed(seed, split, 3 * t + 1) for t in trials])

        return d, fresh

    return TaskSampler(cfg.n_query, draw)


def gen_gap(model: MetaModel, task_sampler: TaskSampler, inner: InnerLoopConfig,
            trials: int = 2000, seed: int = 0, theta0_fn: Optional[Callable] = None,
            adapted: Optional[AdaptedWeights] = None,
            on_chunk: Optional[Callable] = None) -> GapEstimate:
    """Monte-Carlo generalization gap of the adaptation process.

    Per trial: draw a dataset, adapt on its inputs, draw task weights from
    the resulting posterior, and compare the loss on a fresh dataset of the
    same task against the loss on the adapted-on dataset. The scale σ and
    the mutual-information term read their adapted weights from the same
    table (``adapted``, by default a new one for these arguments), so they
    adapt only the trials the gap did not, and σ takes the points of the
    odd trials here, so it generates only the trials the gap did not.
    ``on_chunk(trials, datasets)`` is called on each chunk of trials while
    their datasets are alive, after they are adapted.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if adapted is None:
        adapted = AdaptedWeights(model, task_sampler, inner, theta0_fn)
    picked = SigmaDraws(adapted, draws=min(trials, 2000), seed=seed + 1)
    rng = episode_rng(derive_task_seed(seed, "test", 0x6A9), stream=7)
    diffs = np.empty(trials)
    n_query = task_sampler.n_query
    for rows in chunk_slices(trials, n_query):
        idx = range(trials)[rows]
        datasets, draw_fresh = task_sampler.draw(idx)
        theta = adapted(idx, datasets).reshape(len(idx), -1)
        # one draw per trial, in trial order
        eps = rng.normal(size=theta.shape) if adapted.posterior.random else None
        w = adapted.posterior.draw(dc.constant(theta), eps).data
        on_d = _losses(adapted.frozen, datasets.query_inputs, datasets.query_labels, w)
        fresh = draw_fresh()
        on_fresh = _losses(adapted.frozen, fresh.query_inputs, fresh.query_labels, w)
        diffs[rows] = on_fresh - on_d
        picked.pick(idx, datasets)
        if on_chunk is not None:
            on_chunk(idx, datasets)
    gap = float(diffs.mean())
    stderr = float(diffs.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    sigma = estimate_sigma(adapted, draws=picked.draws, seed=picked.seed, picked=picked)
    mi = mi_for_sampler(adapted, episodes=min(trials, 200))
    bound = gen_bound(sigma, n_query, mi) if adapted.posterior.has_bound else None
    return GapEstimate(gap=gap, stderr=stderr, trials=trials, sigma=sigma,
                       bound=bound, mi=mi, n=n_query)


class SigmaDraws:
    """The random draws of ``estimate_sigma`` and the points they pick.

    Per draw t, in the order a one-draw-at-a-time loop makes them: the noise
    of a weight drawn from trial 2t's posterior (none for a point mass), then
    the index of the point taken from trial 2t + 1's dataset. No draw
    depends on the data, only on the sampler's query size, so all are made
    when the first dataset is picked from, and a trial's point can be picked
    whenever its dataset is at hand. Only the point is kept: draw t's input
    and label are row t of ``inputs`` (draws, 1, d) and ``labels`` (draws, 1).
    """

    def __init__(self, adapted: AdaptedWeights, draws: int, seed: int):
        self.draws = draws
        self.seed = seed
        self.n_query = None
        self.noise = None  # (draws, theta size); stays None for a point mass
        self.index = None
        self.inputs = None
        self.labels = None
        self.picked = np.zeros(draws, dtype=bool)
        self._size = int(np.prod(adapted.frozen.theta_shape()))
        self._random = adapted.posterior.random

    def pick(self, trials, datasets: Episode) -> None:
        """Keep the points that the draws take from ``trials``' datasets (a
        batch, one row per trial)."""
        trials = np.asarray(trials)
        rows = np.nonzero((trials % 2 == 1) & (trials // 2 < self.draws))[0]
        if len(rows) == 0:
            return
        if self.index is None:
            self._make(datasets)
        t = trials[rows] // 2
        points = self.index[t]
        self.inputs[t, 0] = datasets.query_inputs[rows, points]
        self.labels[t, 0] = datasets.query_labels[rows, points]
        self.picked[t] = True

    def lacking(self) -> list:
        """The trials whose points are not picked yet."""
        return [2 * int(t) + 1 for t in np.nonzero(~self.picked)[0]]

    def _make(self, datasets: Episode) -> None:
        n_query = datasets.n_query
        rng = episode_rng(derive_task_seed(self.seed, "test", 0x51E), stream=9)
        noise, index = [], []
        for _ in range(self.draws):
            if self._random:
                noise.append(rng.normal(size=self._size))
            index.append(int(rng.integers(n_query)))
        self.n_query = n_query
        self.noise = np.array(noise) if self._random else None
        self.index = np.array(index)
        self.inputs = np.empty((self.draws, 1) + datasets.query_inputs.shape[2:])
        self.labels = np.empty((self.draws, 1), dtype=datasets.query_labels.dtype)


def estimate_sigma(adapted: AdaptedWeights, draws: int, seed: int,
                   picked: Optional[SigmaDraws] = None) -> float:
    """Plug-in subgaussian scale: half the observed per-example loss range
    under independently drawn task weights and data points. The weights of
    draw t come from trial 2t, read from ``adapted``; the point from trial
    2t + 1 of its sampler, taken from ``picked`` (made for these draws and
    seed) where it was picked already, else generated here, chunk by
    chunk."""
    if picked is None:
        picked = SigmaDraws(adapted, draws, seed)
    lacking = picked.lacking()
    for rows in chunk_slices(len(lacking), adapted.task_sampler.n_query):
        trials = lacking[rows]
        picked.pick(trials, adapted.task_sampler.draw(trials)[0])
    losses = []
    for rows in chunk_slices(draws, picked.n_query):
        chunk = range(draws)[rows]
        w = dc.constant(adapted([2 * t for t in chunk]).reshape(len(chunk), -1))
        w = adapted.posterior.draw(w, None if picked.noise is None else picked.noise[rows]).data
        losses.extend(_losses(adapted.frozen, picked.inputs[rows], picked.labels[rows], w))
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
        losses = []

        def metric_losses(idx, datasets):
            # losses of θ_K on the first min(trials, 200) trials' own datasets
            kept = range(idx.start, min(idx.stop, 200))
            if kept:
                ds = datasets.take(slice(0, len(kept)))
                losses.extend(_losses(adapted.frozen, ds.query_inputs, ds.query_labels,
                                      adapted(kept)))

        est = gen_gap(model, sampler, inner, trials=trials, seed=seed + n, adapted=adapted,
                      on_chunk=metric_losses)
        mse = float(np.mean(losses))
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
