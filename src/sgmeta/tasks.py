"""Episodic task generation.

Two task families:

* spinning lines — zero-shot 1-D regression with an exactly known prior and
  posterior over the line slope. Inputs are iid Gaussian, the slope is the
  input mean plus independent Gaussian shift, targets are exactly slope
  times input.
* synthetic few-shot classification — k-way n-shot episodes over latent
  Gaussian clusters with unit-norm prototypes, standing in for frozen
  pretrained feature embeddings. Train/val/test class pools are disjoint.
  Each pool is built once per (pool seed, split, pool size, d_x) and
  shared read-only; an episode draws all its points in one normal draw,
  class by class, each class's support points before its query points.

Episodes are generated and read in batches (``Episode``): a generator takes
a sequence of task seeds and draws each episode from its own stream, in
seed order, into one preallocated array per field; one vectorised add then
shifts every batch's points by their class centres. An episode's values do
not depend on the batch it is drawn in. A pool too large to hold is an
``EpisodePool``, generated a batch at a time as it is read. ``ahead``
makes the batches of a forward-only loop in a worker thread, each while the
caller adapts the one before: numpy releases the interpreter lock while it
fills its draws, so generation and adaptation overlap on two cores.

Randomness: every episode's stream is a counter-based Philox stream keyed
on its 64-bit task seed and a small sub-stream number, and task seeds come
from a SplitMix64 mix of (run seed, split, index) — pure integer
arithmetic, so streams are reproducible across platforms and independent
across splits. A stream is fully set by its key. Where all of a stream's
draws are made at once — an episode's points (``gen_spinning_lines``,
``gen_fewshot_episode``, ``resample_query_set``), a class pool, a toy
epoch's task order and the inner-loop and objective noise of
``sibcore._noise`` — the calling thread's own generator is reset to the
stream (``_stream``): about 1 µs, against 9 µs for building a Philox and a
Generator. Each thread has one such generator, built on its first reset,
so a worker that generates episodes never resets the stream the caller is
drawing from. The analysis estimators' streams keep a generator of their
own (``episode_rng``), one each per gap estimate: the gap draws its weights
chunk by chunk, and in between, adapting a chunk with inner weight draws
(``inner_draws`` > 0) resets the thread's generator to each episode's
noise stream (``sibcore._noise``).
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .distributions import DiagGaussian
from .rules import INT, REAL, check_fields, int_at_least, is_int, real_above, real_at_least

_MASK64 = (1 << 64) - 1
_SPLIT_SALTS = {"train": 0x9E3779B97F4A7C15, "val": 0xC2B2AE3D27D4EB4F, "test": 0x165667B19E3779F9}


def splitmix64(z: int) -> int:
    """One SplitMix64 output step; a bijection on 64-bit integers."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_task_seed(run_seed: int, split: str, task_index: int) -> int:
    """Deterministic 64-bit seed for one episode of one split."""
    return splitmix64(_split_key(int(run_seed), split) ^ (int(task_index) & _MASK64))


@functools.lru_cache(maxsize=64)
def _split_key(run_seed: int, split: str) -> int:
    """The mix of a run seed and a split that each of its episode seeds
    starts from, made once per pair."""
    if split not in _SPLIT_SALTS:
        raise ValueError(f"unknown split {split!r}; expected one of {sorted(_SPLIT_SALTS)}")
    return splitmix64((run_seed & _MASK64) ^ _SPLIT_SALTS[split])


def episode_rng(task_seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for one episode (optionally a sub-stream)."""
    return np.random.Generator(np.random.Philox(key=(task_seed & _MASK64) + (stream << 64)))


_ZEROS = np.zeros(4, dtype=np.uint64)
_THREAD = threading.local()


def _shared_generator() -> np.random.Generator:
    """The calling thread's generator, shared by its ``_stream`` calls."""
    try:
        return _THREAD.generator
    except AttributeError:
        # built on first use, so importing the package does not import numpy.random
        _THREAD.generator = np.random.Generator(np.random.Philox(0))
        return _THREAD.generator


def _stream(task_seed: int, stream: int = 0) -> np.random.Generator:
    """The calling thread's generator, reset to the start of
    ``episode_rng(task_seed, stream)``'s stream: the same draws, without
    building a Philox. The thread's next ``_stream`` call resets it again,
    so draw everything before calling anything that may make one."""
    rng = _shared_generator()
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": (task_seed & _MASK64, stream)},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return rng


@dataclass
class Episode:
    """A batch of B episodes, each field stacked on a leading episode axis:
    query inputs (B, n, d) and labels (B, n), an optional labeled support set
    (B, s, d) and (B, s), the generating truth (the class centres (B, k, d)
    of a few-shot batch, the slopes (B,) of a toy one) and one task seed per
    episode, a Python int. A generated few-shot batch's label fields are one
    read-only row shared by every episode."""

    query_inputs: np.ndarray
    query_labels: np.ndarray
    support_inputs: Optional[np.ndarray] = None
    support_labels: Optional[np.ndarray] = None
    truth: Optional[np.ndarray] = None
    task_seed: tuple = ()

    def __len__(self) -> int:
        return len(self.task_seed)

    @property
    def n_query(self) -> int:
        return self.query_inputs.shape[1]

    def take(self, rows) -> Episode:
        """The episodes at ``rows``, a slice (views of every field) or a
        sequence of indices (copies)."""
        seeds = (self.task_seed[rows] if isinstance(rows, slice)
                 else tuple(self.task_seed[i] for i in rows))
        fields = (self.query_inputs, self.query_labels, self.support_inputs,
                  self.support_labels, self.truth)
        return Episode(*(None if a is None else a[rows] for a in fields), task_seed=seeds)


class EpisodePool:
    """``n`` episodes of ``n_query`` query points each, generated a batch at
    a time: ``take(rows)`` is ``make(indices)`` of the pool indices at
    ``rows``, made each time and not kept, so a pool need not be held at
    once. ``trainer.evaluate`` reads its chunks through ``ahead``, so at
    most two are alive: the one being adapted and the next."""

    def __init__(self, n: int, n_query: int, make):
        self._n = n
        self.n_query = n_query
        self._make = make

    def __len__(self) -> int:
        return self._n

    def take(self, rows: slice) -> Episode:
        return self._make(range(self._n)[rows])


_DONE = object()


def ahead(items):
    """The items of ``items``, in order, each made in a worker thread while
    the caller uses the one before.

    Each item is made once, and at most one item ahead of the caller. An
    exception raised while making an item is raised to the caller when it
    asks for that item, after every item before it. When the caller stops
    early, or an exception leaves its loop, closing this generator waits
    for the item in the making and ends the worker; the worker is a daemon
    thread, so an interrupted command never waits for it at exit. The worker
    starts on the first item asked for.
    """
    items = iter(items)
    made = []  # the one item, or exception, handed from the worker
    asked, ready = threading.Semaphore(1), threading.Semaphore(0)
    stopping = False

    def work():
        while True:
            asked.acquire()
            if stopping:
                return
            try:
                item, error = next(items, _DONE), None
            except BaseException as exc:  # re-raised by the caller
                item, error = None, exc
            made.append((item, error))
            ready.release()
            if item is _DONE or error is not None:
                return

    worker = threading.Thread(target=work, name="sgmeta-ahead", daemon=True)
    worker.start()
    try:
        while True:
            ready.acquire()
            item, error = made.pop()
            if error is not None:
                raise error
            if item is _DONE:
                return
            asked.release()  # the next item is made while the caller uses this one
            yield item
    finally:
        stopping = True
        asked.release()
        worker.join()


@dataclass
class ToyConfig:
    """Spinning-lines generative parameters."""

    n: int = 32
    mu: float = 0.0
    sigma: float = 1.0
    mu_w: float = 1.0
    sigma_w: float = 0.1
    n_train_tasks: int = 240
    n_test_tasks: int = 240

    def __post_init__(self, prefix: str = ""):
        check_fields(self, _TOY_RULES, prefix)

    @property
    def n_query(self) -> int:
        return self.n


_TOY_RULES = {
    "n": int_at_least(1),
    "mu": REAL,
    "sigma": real_above(0),
    "mu_w": REAL,
    "sigma_w": real_above(0),
    "n_train_tasks": int_at_least(1),
    "n_test_tasks": int_at_least(1),
}


@dataclass
class FewShotConfig:
    """Synthetic k-way n-shot benchmark over latent Gaussian clusters."""

    k: int = 5
    n_shot: int = 1
    n_query_per_class: int = 15
    d_x: int = 16
    class_pool: dict = field(default_factory=lambda: {"train": 64, "val": 16, "test": 20})
    cluster_spread: float = 0.3
    pool_seed: int = 0

    def __post_init__(self, prefix: str = ""):
        check_fields(self, _FEWSHOT_RULES, prefix)
        for split, size in self.class_pool.items():
            if self.k > size:
                raise ValueError(f"{prefix}k={self.k} exceeds the {split} class pool ({size})")

    @property
    def n_query(self) -> int:
        return self.k * self.n_query_per_class


_FEWSHOT_RULES = {
    "k": int_at_least(1),
    "n_shot": int_at_least(0),
    "n_query_per_class": int_at_least(1),
    "d_x": int_at_least(1),
    "class_pool": (lambda v: isinstance(v, dict) and set(v) == {"train", "val", "test"}
                   and all(is_int(size) and size >= 1 for size in v.values()),
                   "an object mapping train, val and test to integers >= 1"),
    "cluster_spread": real_at_least(0),
    "pool_seed": INT,
}


def gen_spinning_lines(cfg: ToyConfig, task_seeds, n: Optional[int] = None) -> Episode:
    """One zero-shot regression episode per task seed, as a batch; targets
    satisfy y = w * x exactly."""
    n = cfg.n if n is None else int(n)
    seeds = tuple(task_seeds)
    x = np.empty((len(seeds), n))
    eps_w = np.empty(len(seeds))
    for b, seed in enumerate(seeds):
        rng = _stream(seed)
        x[b] = rng.normal(cfg.mu, cfg.sigma, size=n)
        eps_w[b] = rng.normal(cfg.mu_w, cfg.sigma_w)
    w = x.mean(axis=1) + eps_w
    return Episode(query_inputs=x.reshape(len(seeds), n, 1), query_labels=w[:, None] * x,
                   truth=w, task_seed=seeds)


def true_prior(cfg: ToyConfig) -> DiagGaussian:
    """Marginal over the slope: N(mu + mu_w, sigma^2/n + sigma_w^2)."""
    var = cfg.sigma**2 / cfg.n + cfg.sigma_w**2
    return DiagGaussian(np.array([cfg.mu + cfg.mu_w]), np.array([np.log(var)]))


def true_posterior(episodes: Episode, cfg: ToyConfig) -> DiagGaussian:
    """Slope posterior given the inputs: N(mean(x) + mu_w, sigma_w^2), one
    row per episode of a batch."""
    mean = episodes.query_inputs.mean(axis=(-2, -1))[:, None] + cfg.mu_w
    return DiagGaussian(mean, np.full(mean.shape, 2.0 * np.log(cfg.sigma_w)))


def class_prototypes(cfg: FewShotConfig, split: str) -> np.ndarray:
    """Unit-norm latent prototypes for one split's class pool (fixed per pool
    seed), built once per pool and shared read-only."""
    return _prototypes(cfg.pool_seed, split, cfg.class_pool[split], cfg.d_x)


@functools.lru_cache(maxsize=32)
def _prototypes(pool_seed: int, split: str, size: int, d_x: int) -> np.ndarray:
    rng = _stream(derive_task_seed(pool_seed, split, 0x50524F544F))
    protos = rng.normal(size=(size, d_x))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    protos.flags.writeable = False
    return protos


def gen_fewshot_episode(cfg: FewShotConfig, split: str, task_seeds) -> Episode:
    """One episode per task seed, as a batch: sample k classes without
    replacement, then clustered support/query points."""
    protos = class_prototypes(cfg, split)
    if cfg.k > protos.shape[0]:
        raise ValueError(f"k={cfg.k} exceeds pool of {protos.shape[0]} classes")
    k, s, nq, d = cfg.k, cfg.n_shot, cfg.n_query_per_class, cfg.d_x
    seeds = tuple(task_seeds)
    chosen = np.empty((len(seeds), k), dtype=np.int64)
    query = np.empty((len(seeds), k, nq, d))
    support = np.empty((len(seeds), k, s, d))
    for b, seed in enumerate(seeds):
        rng = _stream(seed)
        chosen[b] = rng.choice(protos.shape[0], size=k, replace=False)
        # class by class, each class's support points then its query points
        pts = rng.normal(0.0, cfg.cluster_spread, size=(k, s + nq, d))
        query[b] = pts[:, s:]
        support[b] = pts[:, :s]
    centres = protos[chosen]
    query += centres[:, :, None]
    support += centres[:, :, None]
    labels = np.arange(k, dtype=np.int64)
    return Episode(
        query_inputs=query.reshape(len(seeds), k * nq, d),
        query_labels=_shared_rows(np.repeat(labels, nq), len(seeds)),
        support_inputs=support.reshape(len(seeds), k * s, d) if s > 0 else None,
        support_labels=_shared_rows(np.repeat(labels, s), len(seeds)) if s > 0 else None,
        truth=centres,
        task_seed=seeds,
    )


def resample_query_set(episodes: Episode, cfg: FewShotConfig, fresh_seeds) -> Episode:
    """A fresh query draw for each task of a batch (same classes, new
    points), one fresh seed per episode."""
    protos = episodes.truth
    seeds = tuple(fresh_seeds)
    if len(seeds) != len(episodes):
        raise ValueError(f"{len(seeds)} fresh seeds for {len(episodes)} episodes")
    k = protos.shape[1]
    nq = episodes.n_query // k
    query = np.empty((len(seeds), k, nq, cfg.d_x))
    for b, seed in enumerate(seeds):
        query[b] = _stream(seed).normal(0.0, cfg.cluster_spread, size=(k, nq, cfg.d_x))
    query += protos[:, :, None]
    return Episode(
        query_inputs=query.reshape(len(seeds), k * nq, cfg.d_x),
        query_labels=episodes.query_labels,
        support_inputs=episodes.support_inputs,
        support_labels=episodes.support_labels,
        truth=protos,
        task_seed=seeds,
    )


def _shared_rows(row: np.ndarray, count: int) -> np.ndarray:
    """``count`` read-only views of one row, (count, len(row))."""
    return np.broadcast_to(row, (count,) + row.shape)
