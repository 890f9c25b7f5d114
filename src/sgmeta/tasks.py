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

Randomness: every episode's stream is a counter-based Philox stream keyed
on its 64-bit task seed and a small sub-stream number, and task seeds come
from a SplitMix64 mix of (run seed, split, index) — pure integer
arithmetic, so streams are reproducible across platforms and independent
across splits. A stream is fully set by its key. Where all of a stream's
draws are made at once — an episode's points (``gen_spinning_lines``,
``gen_fewshot_episode``, ``resample_query_set``), a class pool, a toy
epoch's task order and the inner-loop and objective noise of
``sibcore._noise`` — one shared generator is reset to the stream
(``_stream``): about 1 µs, against 9 µs for building a Philox and a
Generator. The analysis estimators' streams keep a generator of their own
(``episode_rng``), one each per gap estimate: the gap draws its weights
chunk by chunk, with episodes generated in between, and generating an
episode resets the shared generator.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
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
    if split not in _SPLIT_SALTS:
        raise ValueError(f"unknown split {split!r}; expected one of {sorted(_SPLIT_SALTS)}")
    z = (int(run_seed) & _MASK64) ^ _SPLIT_SALTS[split]
    z = splitmix64(z)
    z = splitmix64(z ^ (int(task_index) & _MASK64))
    return z


def episode_rng(task_seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for one episode (optionally a sub-stream)."""
    return np.random.Generator(np.random.Philox(key=(task_seed & _MASK64) + (stream << 64)))


_ZEROS = np.zeros(4, dtype=np.uint64)


@functools.lru_cache(maxsize=1)
def _shared_generator() -> np.random.Generator:
    # built on first use, so importing the package does not import numpy.random
    return np.random.Generator(np.random.Philox(0))


def _stream(task_seed: int, stream: int = 0) -> np.random.Generator:
    """The shared generator, reset to the start of ``episode_rng(task_seed,
    stream)``'s stream: the same draws, without building a Philox. The next
    ``_stream`` call resets it again, so draw everything before calling
    anything that may make one."""
    rng = _shared_generator()
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": (task_seed & _MASK64, stream)},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return rng


@dataclass
class Episode:
    """One task: optional labeled support set plus an unlabeled-at-adaptation query set."""

    query_inputs: np.ndarray
    query_labels: np.ndarray
    support_inputs: Optional[np.ndarray] = None
    support_labels: Optional[np.ndarray] = None
    truth: Optional[dict] = None
    task_seed: int = 0

    @property
    def n_query(self) -> int:
        return self.query_inputs.shape[0]


class LazySequence(Sequence):
    """A sized sequence whose item i is ``make(i)``, made each time it is
    indexed and not kept, so a pool of episodes need not be held at once."""

    def __init__(self, n: int, make):
        self._n = n
        self._make = make

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int):
        if not 0 <= i < self._n:
            raise IndexError(f"index {i} out of range for {self._n} items")
        return self._make(i)


def stacked(episodes, name: str) -> np.ndarray:
    """One field of a list of episodes, stacked on a new leading axis."""
    return np.stack([getattr(ep, name) for ep in episodes])


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


def gen_spinning_lines(cfg: ToyConfig, task_seed: int, n: Optional[int] = None) -> Episode:
    """One zero-shot regression episode; targets satisfy y = w * x exactly."""
    n = cfg.n if n is None else int(n)
    rng = _stream(task_seed)
    x = rng.normal(cfg.mu, cfg.sigma, size=n)
    eps_w = rng.normal(cfg.mu_w, cfg.sigma_w)
    w = x.mean() + eps_w
    y = w * x
    return Episode(
        query_inputs=x.reshape(n, 1),
        query_labels=y,
        truth={"w": float(w)},
        task_seed=task_seed,
    )


def true_prior(cfg: ToyConfig, n: Optional[int] = None) -> DiagGaussian:
    """Marginal over the slope: N(mu + mu_w, sigma^2/n + sigma_w^2)."""
    n = cfg.n if n is None else int(n)
    var = cfg.sigma**2 / n + cfg.sigma_w**2
    return DiagGaussian(np.array([cfg.mu + cfg.mu_w]), np.array([np.log(var)]))


def true_posterior(episodes, cfg: ToyConfig) -> DiagGaussian:
    """Slope posterior given the inputs: N(mean(x) + mu_w, sigma_w^2), one
    row per episode of a list."""
    mean = stacked(episodes, "query_inputs").mean(axis=(-2, -1))[:, None] + cfg.mu_w
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


def gen_fewshot_episode(cfg: FewShotConfig, split: str, task_seed: int) -> Episode:
    """Sample k classes without replacement, then clustered support/query points."""
    protos = class_prototypes(cfg, split)
    if cfg.k > protos.shape[0]:
        raise ValueError(f"k={cfg.k} exceeds pool of {protos.shape[0]} classes")
    nq = cfg.n_query_per_class
    rng = _stream(task_seed)
    centers = protos[rng.choice(protos.shape[0], size=cfg.k, replace=False)]
    # class by class, each class's support points then its query points
    pts = rng.normal(0.0, cfg.cluster_spread, size=(cfg.k, cfg.n_shot + nq, cfg.d_x))
    pts += centers[:, None]
    labels = np.arange(cfg.k, dtype=np.int64)
    # concatenate copies, so no field keeps the whole draw alive
    return Episode(
        query_inputs=np.concatenate(pts[:, cfg.n_shot:]),
        query_labels=np.repeat(labels, nq),
        support_inputs=np.concatenate(pts[:, :cfg.n_shot]) if cfg.n_shot > 0 else None,
        support_labels=np.repeat(labels, cfg.n_shot) if cfg.n_shot > 0 else None,
        truth={"prototypes": centers},
        task_seed=task_seed,
    )


def resample_query_set(ep: Episode, cfg: FewShotConfig, fresh_seed: int) -> Episode:
    """Fresh query draw for the same task (same classes, new points)."""
    protos = ep.truth["prototypes"]
    k = protos.shape[0]
    nq = ep.n_query // k
    pts = _stream(fresh_seed).normal(0.0, cfg.cluster_spread, size=(k, nq, cfg.d_x))
    pts += protos[:, None]
    return Episode(
        query_inputs=pts.reshape(k * nq, cfg.d_x),
        query_labels=np.repeat(np.arange(k, dtype=np.int64), nq),
        support_inputs=ep.support_inputs,
        support_labels=ep.support_labels,
        truth=ep.truth,
        task_seed=fresh_seed,
    )
