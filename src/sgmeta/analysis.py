"""Theory-facing diagnostics.

The mutual-information proxy, a Monte-Carlo generalization gap with its
subgaussian upper bound, and the query-size sweep. Posterior weights are
drawn, and the bound exists or not, as the posterior section says
(``inner.posterior``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .models import MetaModel, frozen_copy
from .sibcore import (
    InnerLoopConfig,
    chunk_slices,
    prior_term,
    sib_unroll,
)
from .tasks import (
    Episode,
    FewShotConfig,
    ToyConfig,
    ahead,
    derive_task_seed,
    episode_rng,
    gen_fewshot_episode,
    gen_spinning_lines,
    resample_query_set,
)
from . import diffcore as dc

# One gap estimate (``gen_gap``) is one pass over its T trials, in chunks of
# at most ``CHUNK_POINTS`` query points (``chunk_slices``, sized by the
# sampler's query size: 64 few-shot or 150 toy trials). No trial's numbers
# depend on the chunk. Each chunk's datasets are one batch
# (``tasks.Episode``), adapted through the batched unroll on a constant copy
# of the model, so no autodiff tape is built. A worker thread makes each
# chunk's datasets and their fresh draws while the chunk before is adapted
# (``tasks.ahead``), so at most two chunks of datasets are alive: the one
# being adapted and the next. The worker reads the held trials and the
# sampler, which the caller does not touch while the gap runs, and draws from
# its own thread's generator. ``theta0_fn(frozen, chunk)`` gives the chunk's stacked
# initializations: the commands pass the run's rule, ``trainer.make_theta0``
# bound to the run config. Each trial is generated and
# adapted once. Its weights are drawn and its loss is compared with a fresh
# dataset of its task. Then σ (``SigmaDraws``) keeps what its draws read of
# the chunk: the adapted weights of trial t, in row t of one table, and one
# point of trial (t + 1) mod T, for draws t < min(T, 2000). The
# mutual-information term reads the table's first 200 rows, and
# ``on_chunk`` reads the chunk.
#
# A trial whose task seed an evaluation of the same model already generated
# and adapted (``HeldTrials``, filled by ``trainer.evaluate``'s ``on_chunk``)
# is read from there: its dataset and adapted weights, neither made again,
# and, for a point mass, whose weights are θ_K, its own-dataset loss.
# A chunk is split where held trials start or end, so each part is all held
# or all drawn.
#
# Randomness comes in the order a one-trial-at-a-time loop would draw it.
# Each dataset and each inner-loop draw is keyed on its trial's task seed, so
# an episode's values do not depend on the chunk it is in, and a held
# trial's are the ones the gap would make. The gap's weight noise is drawn
# chunk by chunk in trial order from one stream; σ's draws depend only on
# the query size and are all made before the first chunk, from another.


def _losses(frozen: MetaModel, inputs: np.ndarray, labels: np.ndarray,
            w: np.ndarray) -> np.ndarray:
    """Per-dataset empirical risk of fixed task weights, one per row of ``w``."""
    w = w.reshape((len(w),) + frozen.head.theta_shape)
    return frozen.head.query_loss(inputs, labels, dc.constant(w)).data


def mi_estimate(model: MetaModel, theta_k: np.ndarray, inner: InnerLoopConfig) -> float:
    """Mutual-information proxy: mean KL from the posteriors of the stacked
    adapted weights ``theta_k`` to the prior.

    In the deterministic regime the term is the point-mass prior term, which
    drops a divergent constant (a point mass has infinite KL to the prior),
    so only there may it be negative.
    """
    value = float(np.mean(prior_term(dc.constant(theta_k), model, inner).data))
    if inner.posterior.has_bound and value < -1e-12:
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
    """The datasets of a gap estimate's trials, each of ``n_query`` query
    points: ``seeds(trials)`` gives the trials' dataset task seeds,
    ``make(task_seeds)`` those datasets as one batch, and ``fresh(datasets,
    trials)`` a fresh dataset of each one's task, as another."""

    n_query: int
    seeds: Callable
    make: Callable
    fresh: Callable


def toy_task_sampler(cfg: ToyConfig, seed: int, n: Optional[int] = None) -> TaskSampler:
    """Trial sampler for the toy process: a dataset plus a fresh re-draw."""

    def seeds(trials, offset=0):
        return [derive_task_seed(seed, "test", 2 * t + offset) for t in trials]

    return TaskSampler(cfg.n_query if n is None else int(n), seeds,
                       lambda task_seeds: gen_spinning_lines(cfg, task_seeds, n=n),
                       lambda datasets, trials: gen_spinning_lines(cfg, seeds(trials, 0x10002),
                                                                   n=n))


def fewshot_task_sampler(cfg: FewShotConfig, seed: int) -> TaskSampler:
    """Fresh query sets of the same classes define the task's dataset draw."""

    def seeds(trials, offset=0):
        return [derive_task_seed(seed, "test", 3 * t + offset) for t in trials]

    return TaskSampler(cfg.n_query, seeds,
                       lambda task_seeds: gen_fewshot_episode(cfg, "test", task_seeds),
                       lambda datasets, trials: resample_query_set(datasets, cfg,
                                                                   seeds(trials, 1)))


class HeldTrials:
    """Trials an evaluation has already generated and adapted, by task seed.

    ``keep(chunk, theta_k, loss)`` is ``trainer.evaluate``'s ``on_chunk``:
    of the chunk's episodes whose task seed is one of ``seeds``, it copies
    out what a gap trial reads (query inputs and labels, the generating
    truth, the adapted weights and their query loss), so no chunk stays
    alive. ``take(task_seeds)`` gives those trials as one batch with their
    stacked adapted weights and query losses, and releases them.
    """

    def __init__(self, seeds=()):
        self._wanted = frozenset(seeds)
        self._rows = {}

    def __contains__(self, task_seed) -> bool:
        return task_seed in self._rows

    def keep(self, chunk: Episode, theta_k: np.ndarray, loss: np.ndarray) -> None:
        rows = [i for i, task_seed in enumerate(chunk.task_seed) if task_seed in self._wanted]
        kept = [a[rows] for a in (chunk.query_inputs, chunk.query_labels, chunk.truth, theta_k,
                                  loss)]
        for j, i in enumerate(rows):
            self._rows[chunk.task_seed[i]] = [a[j] for a in kept]

    def take(self, task_seeds) -> tuple:
        inputs, labels, truth, theta_k, losses = map(
            np.stack, zip(*(self._rows.pop(s) for s in task_seeds)))
        return Episode(inputs, labels, truth=truth, task_seed=tuple(task_seeds)), theta_k, losses


def _trial_chunks(trials: int, sampler: TaskSampler, held: HeldTrials):
    """``(trials, datasets, adapted weights, their losses, fresh datasets)``
    of consecutive chunks of trials 0 .. ``trials`` - 1: ``chunk_slices``'
    chunks, each split where held trials start or end. The weights and
    losses are ``None`` for trials not held, which are drawn."""
    seeds = sampler.seeds(range(trials))
    for rows in chunk_slices(trials, sampler.n_query):
        for is_held, part in itertools.groupby(range(rows.start, rows.stop),
                                               key=lambda i: seeds[i] in held):
            part = list(part)
            idx = range(part[0], part[-1] + 1)
            if is_held:
                datasets, theta_k, own = held.take(seeds[idx.start:idx.stop])
            else:
                datasets, theta_k, own = sampler.make(seeds[idx.start:idx.stop]), None, None
            yield idx, datasets, theta_k, own, sampler.fresh(datasets, idx)


def gen_gap(model: MetaModel, task_sampler: TaskSampler, inner: InnerLoopConfig,
            trials: int = 2000, seed: int = 0, *, theta0_fn: Callable,
            on_chunk: Optional[Callable] = None,
            held: Optional[HeldTrials] = None) -> GapEstimate:
    """Monte-Carlo generalization gap of the adaptation process, with the
    scale σ and the mutual-information term of its bound.

    Per trial: draw a dataset, adapt on its inputs from
    ``theta0_fn(frozen model, datasets)``, draw task weights from the
    resulting posterior, and compare the loss on a fresh dataset of the
    same task against the loss on the adapted-on dataset. σ and the
    mutual-information term read the same trials' adapted weights, from
    one table (see the comment at the top of this module); σ pairs each
    trial's weights with a point of the next trial, so it needs
    ``trials >= 2``. ``on_chunk(trials, datasets,
    theta_k)`` is called on each chunk with its datasets and stacked
    adapted weights. Trials in ``held`` are read from it, not drawn and
    adapted; ``theta0_fn`` and ``inner`` must be the ones that adapted them.
    Each chunk's datasets and fresh datasets are made in a worker thread
    while the chunk before is adapted, so at most two chunks are alive.
    """
    if trials < 2:
        raise ValueError("trials must be >= 2: σ pairs each trial with another")
    frozen = frozen_copy(model)
    posterior = inner.posterior
    n_query = task_sampler.n_query
    theta_shape = frozen.head.theta_shape
    picked = SigmaDraws(trials, seed + 1, n_query, int(np.prod(theta_shape)), posterior.random)
    rng = episode_rng(derive_task_seed(seed, "test", 0x6A9), stream=7)
    held = HeldTrials() if held is None else held
    diffs = np.empty(trials)
    with contextlib.closing(ahead(_trial_chunks(trials, task_sampler, held))) as chunks:
        for idx, datasets, theta_k, own, fresh in chunks:
            if theta_k is None:
                theta_k = sib_unroll(theta0_fn(frozen, datasets), datasets, frozen, inner)[0].data
            theta = theta_k.reshape(len(idx), -1)
            # one draw per trial, in trial order
            eps = rng.normal(size=theta.shape) if posterior.random else None
            w = posterior.draw(dc.constant(theta), eps).data
            if own is None or posterior.random:  # a held point mass's is its evaluation's
                own = _losses(frozen, datasets.query_inputs, datasets.query_labels, w)
            fresh_loss = _losses(frozen, fresh.query_inputs, fresh.query_labels, w)
            diffs[idx.start:idx.stop] = fresh_loss - own
            picked.keep(idx, datasets, theta)
            if on_chunk is not None:
                on_chunk(idx, datasets, theta_k)
    gap = float(diffs.mean())
    stderr = float(diffs.std(ddof=1) / math.sqrt(trials))
    sigma = estimate_sigma(frozen, picked, inner)
    mi = mi_for_sampler(frozen, picked.weights[:200].reshape((-1,) + theta_shape), inner)
    bound = gen_bound(sigma, n_query, mi) if posterior.has_bound else None
    return GapEstimate(gap=gap, stderr=stderr, trials=trials, sigma=sigma,
                       bound=bound, mi=mi, n=n_query)


class SigmaDraws:
    """The random draws of ``estimate_sigma`` and what they read, for a gap
    estimate of T = ``trials`` trials.

    σ makes min(T, 2000) draws. Per draw t, in the order a one-draw-at-a-time
    loop makes them: the noise of a weight drawn from trial t's posterior
    (none for a point mass), then the index of the point taken from trial
    (t + 1) mod T's dataset, of ``n_query`` points. The two trials are
    different tasks, so the weights and the point are drawn independently.
    ``keep`` is given the trials in order and keeps, in row t of
    ``weights``, trial t's flat adapted weights and, in row t of ``inputs``
    and ``labels``, the point draw t reads; the mutual-information term
    reads the weight table's first rows.
    """

    def __init__(self, trials: int, seed: int, n_query: int, theta_size: int, random: bool):
        draws = min(trials, 2000)
        rng = episode_rng(derive_task_seed(seed, "test", 0x51E), stream=9)
        noise, index = [], []
        for _ in range(draws):
            if random:
                noise.append(rng.normal(size=theta_size))
            index.append(int(rng.integers(n_query)))
        self.trials = trials
        self.draws = draws
        self.noise = np.array(noise) if random else None  # (draws, theta_size)
        self.index = np.array(index)
        self.weights = np.empty((draws, theta_size))
        self.inputs = self.labels = None  # the point each draw reads, by draw

    def keep(self, trials: range, datasets: Episode, weights: np.ndarray) -> None:
        """Keep what the draws read of ``trials``, the next consecutive ones:
        their flat adapted ``weights`` up to trial min(T, 2000) - 1, and from
        ``datasets`` (one row per trial) the point of each trial s that draw
        (s - 1) mod T reads, in row (s - 1) mod T of ``inputs`` and
        ``labels``, made on the first call."""
        self.weights[trials.start:trials.stop] = weights[:max(0, self.draws - trials.start)]
        if self.inputs is None:
            self.inputs = np.empty((self.draws,) + datasets.query_inputs.shape[2:],
                                   dtype=datasets.query_inputs.dtype)
            self.labels = np.empty(self.draws, dtype=datasets.query_labels.dtype)
        draw = (np.asarray(trials) - 1) % self.trials
        rows = np.nonzero(draw < self.draws)[0]
        draw = draw[rows]
        self.inputs[draw] = datasets.query_inputs[rows, self.index[draw]]
        self.labels[draw] = datasets.query_labels[rows, self.index[draw]]


def estimate_sigma(model: MetaModel, picked: SigmaDraws, inner: InnerLoopConfig) -> float:
    """Plug-in subgaussian scale: half the observed per-example loss range
    under independently drawn task weights and data points, the draws and
    what they read in ``picked``: one point per draw, in chunks of at most
    ``CHUNK_POINTS`` draws."""
    losses = []
    for rows in chunk_slices(picked.draws, 1):
        noise = None if picked.noise is None else picked.noise[rows]
        w = inner.posterior.draw(dc.constant(picked.weights[rows]), noise).data
        losses.extend(_losses(model, picked.inputs[rows, None], picked.labels[rows, None], w))
    losses = np.asarray(losses)
    return float((losses.max() - losses.min()) / 2.0)


def mi_for_sampler(model: MetaModel, theta_k: np.ndarray, inner: InnerLoopConfig) -> float:
    """Mutual-information proxy over a gap estimate's first trials, their
    stacked adapted weights ``theta_k``."""
    return mi_estimate(model, theta_k, inner)


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
                 trials: int = 500, seed: int = 0, *, theta0_fn: Callable) -> list:
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
    frozen = frozen_copy(model)
    rows = []
    for n in n_values:
        losses = []

        def metric_losses(trials, datasets, theta_k):
            # losses of θ_K on the first min(trials, 200) trials' own datasets
            if trials.start < 200:
                first = slice(0, 200 - trials.start)
                losses.extend(_losses(frozen, datasets.query_inputs[first],
                                      datasets.query_labels[first], theta_k[first]))

        est = gen_gap(model, toy_task_sampler(cfg, seed=seed + 131 * n, n=n), inner,
                      trials=trials, seed=seed + n, theta0_fn=theta0_fn,
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
