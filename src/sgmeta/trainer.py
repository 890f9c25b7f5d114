"""Outer training loop: sample episodes, unroll the inner loop, update the
meta-parameters; plus evaluation, metric logging, and checkpointing.

One optimizer step consumes a batch of episodes, stacked on a leading axis so
the step builds and differentiates one graph. Per episode the loss is
``sibcore.task_objective`` at the adapted weights, with the weight of the
prior pull on those weights set by ``outer_kl_weight`` (1 is the plain
per-task bound; 0 trains the adaptation path on the data term alone while
the prior still tracks the produced posteriors).

Everything is deterministic given the run seed: episode streams, adaptation
noise, and batch order all derive from counter-based seeds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import diffcore as dc
from .distributions import Deterministic, GaussianFixedVar, posterior_for
from .models import (
    HEADS,
    MetaModel,
    apply_features,
    build_fewshot_model,
    build_toy_model,
    checkpoint_payload,
    config_hash,
    frozen_copy,
    init_theta0_proto,
    model_from_payload,
)
from .sibcore import (
    InnerLoopConfig,
    InnerLoopError,
    chunk_slices,
    prior_term,
    sib_unroll,
    ssl_init,
    task_objective,
)
from .rules import (
    BOOL,
    INT,
    check_fields,
    int_at_least,
    is_real,
    one_of,
    optional,
    real_above,
    real_at_least,
)
from .tasks import (
    Episode,
    EpisodePool,
    FewShotConfig,
    ToyConfig,
    _stream,
    ahead,
    derive_task_seed,
    gen_fewshot_episode,
    gen_spinning_lines,
)

METRICS_HEADER = "step,split,metric,value,ci95"

SECTIONS = ("inner", "toy", "fewshot")


class TrainingDiverged(RuntimeError):
    """Raised on a non-finite loss or inner update, or on non-finite
    parameters that an evaluation would read; carries the model with the
    parameters from before the latest update, the records so far and the
    number of updates those parameters had."""

    def __init__(self, message: str, model, records, step: int):
        super().__init__(message)
        self.model = model
        self.records = records
        self.step = step


_UNIT_INTERVAL = (lambda v: is_real(v) and 0 <= v < 1, "a number in [0, 1)")

# rules for the scalar fields every mode reads alike; the sections check their own
_FIELD_RULES = {
    "mode": one_of(*HEADS),
    "run_seed": INT,
    "optimizer": one_of("adam", "sgd"),
    "learning_rate": real_at_least(0),
    "adam_beta1": _UNIT_INTERVAL,
    "adam_beta2": _UNIT_INTERVAL,
    "adam_eps": real_above(0),
    "batch_tasks": int_at_least(1),
    "eval_every": int_at_least(0),
    "outer_kl_weight": real_at_least(0),
    "grad_clip_norm": real_at_least(0),
    "train_f": BOOL,
    "theta_init": one_of("global", "proto", "ssl"),
    "eval_episodes": int_at_least(1),
}


def _unused_in(mode: str):
    return (lambda v: v is None, f"null in {mode} mode")


# what each mode reads: its schedule, and null or off for what it cannot apply
_MODE_RULES = {
    "toy": {
        "epochs": int_at_least(1),
        "total_steps": _unused_in("toy"),
        "theta_init": one_of("global"),
        "train_f": (lambda v: v is False, "false in toy mode"),
        "val_pool_size": _unused_in("toy"),
        "d_f": _unused_in("toy"),
        "fewshot": _unused_in("toy"),
    },
    "fewshot": {
        "epochs": _unused_in("fewshot"),
        "total_steps": int_at_least(1),
        "eval_every": int_at_least(1),
        "val_pool_size": int_at_least(1),
        "d_f": optional(int_at_least(1)),
        "toy": _unused_in("fewshot"),
    },
}
# the prototype initialization averages the support set
_PROTO_RULES = {"n_shot": (lambda v: v >= 1, "an integer >= 1 with theta_init proto")}


@dataclass(kw_only=True)
class RunConfig:
    """Experiment configuration; every field has a documented JSON key, and
    ``default_config`` writes each mode's values."""

    mode: str
    run_seed: int = 0
    optimizer: str = "adam"  # adam | sgd
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_tasks: int = 8
    epochs: Optional[int] = None  # toy: passes over the fixed task pool
    total_steps: Optional[int] = None  # fewshot: outer steps
    eval_every: int = 0  # toy: 0 -> once per pass
    outer_kl_weight: float
    grad_clip_norm: float = 10.0
    train_f: bool = False  # fewshot only
    theta_init: str  # global | proto | ssl
    val_pool_size: Optional[int] = None  # fewshot only
    eval_episodes: int = 2000
    d_f: Optional[int] = None  # fewshot only; null -> fewshot.d_x
    inner: InnerLoopConfig = field(default_factory=InnerLoopConfig)
    toy: Optional[ToyConfig] = None
    fewshot: Optional[FewShotConfig] = None

    def __post_init__(self):
        """Check the type and range of every field, and whether the mode can
        apply it; errors name the dotted key."""
        check_fields(self, _FIELD_RULES)
        for name in SECTIONS:
            section = getattr(self, name)
            if section is not None:
                section.__post_init__(prefix=f"{name}.")
        check_fields(self, _MODE_RULES[self.mode])
        if self.theta_init == "proto" and self.fewshot is not None:
            check_fields(self.fewshot, _PROTO_RULES, "fewshot.")


def default_config(mode: str = "toy") -> RunConfig:
    """Each mode's values of the config. Toy's ``outer_kl_weight`` is small so
    that the data term dominates and the posterior of the exactly-solvable
    regression tracks its closed form (see the README's objective notes)."""
    if mode == "toy":
        return RunConfig(
            mode="toy",
            adam_beta2=0.98,
            epochs=150,
            outer_kl_weight=0.05,
            theta_init="global",
            toy=ToyConfig(),
            inner=InnerLoopConfig(
                steps=3,
                eta_inner=0.03,
                kl_in_inner=False,
                sum_convention=True,
                posterior=GaussianFixedVar(log_var=2.0 * math.log(ToyConfig().sigma_w),
                                           inner_draws=0, objective_draws=8),
            ),
        )
    if mode == "fewshot":
        return RunConfig(
            mode="fewshot",
            total_steps=3000,
            eval_every=250,
            outer_kl_weight=1.0,
            theta_init="proto",
            val_pool_size=200,
            fewshot=FewShotConfig(),
            inner=InnerLoopConfig(
                steps=3,
                eta_inner=1e-3,
                kl_in_inner=True,
                posterior=Deterministic(),
            ),
        )
    raise ValueError(f"unknown mode {mode!r}")


# -- config (de)serialization ---------------------------------------------------


def config_to_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


def config_from_dict(data: dict) -> RunConfig:
    """Build a RunConfig from a JSON-style dict, validating every key."""
    if not isinstance(data, dict):
        raise ValueError("config root must be a JSON object")
    cfg = default_config(data.get("mode", "toy"))
    simple_fields = [f.name for f in dataclasses.fields(RunConfig) if f.name not in SECTIONS]
    for key, value in data.items():
        if key == "mode" or value is None and key in SECTIONS and getattr(cfg, key) is None:
            continue  # the section the mode does not read
        if key in SECTIONS:
            if getattr(cfg, key) is None:
                setattr(cfg, key, ToyConfig() if key == "toy" else FewShotConfig())
            _apply_nested(getattr(cfg, key), value, key)
        elif key in simple_fields:
            setattr(cfg, key, value)
        else:
            known = sorted(simple_fields + list(SECTIONS))
            raise ValueError(f"unknown config key {key!r}; expected one of {known}")
    cfg.__post_init__()
    # a toy section sets a Gaussian posterior's variance unless the posterior section does
    posterior = data.get("inner", {}).get("posterior", {})
    if data.get("toy") is not None and cfg.inner.posterior.random and "log_var" not in posterior:
        cfg.inner.posterior.log_var = 2.0 * math.log(cfg.toy.sigma_w)
    return cfg


def _apply_nested(obj, updates: dict, section: str):
    if not isinstance(updates, dict):
        raise ValueError(f"config section {section!r} must be an object")
    valid = [f.name for f in dataclasses.fields(obj)]
    for key, value in updates.items():
        if key not in valid:
            raise ValueError(
                f"unknown config key '{section}.{key}'; expected one of {sorted(valid)}"
            )
        if key == "posterior":  # a new section of the regime it names, or the current one
            value = _apply_nested(posterior_for(obj.posterior, value, section + ".posterior"),
                                  value, section + ".posterior")
        setattr(obj, key, value)
    return obj


# -- optimizers -------------------------------------------------------------------


def adam_init(shapes) -> dict:
    """Adam's state for parameters of ``shapes``: the moments are flat
    vectors covering every parameter, in order."""
    size = sum(math.prod(s) for s in shapes)
    return {"t": 0, "m": np.zeros(size), "v": np.zeros(size)}


def adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam; returns (new params, new state), inputs untouched.

    The update runs once over all parameters, concatenated into one flat
    vector; it is elementwise, so each element goes through the arithmetic of
    a per-parameter update. The new parameters are shaped views of one new
    array."""
    t = state["t"] + 1
    p = np.concatenate([x.reshape(-1) for x in params])
    g = np.concatenate([x.reshape(-1) for x in grads])
    m = beta1 * state["m"] + (1 - beta1) * g
    v = beta2 * state["v"] + (1 - beta2) * g * g
    m_hat = m / (1 - beta1**t)
    v_hat = v / (1 - beta2**t)
    flat = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    new_p, start = [], 0
    for x in params:
        end = start + x.size
        new_p.append(flat[start:end].reshape(x.shape))
        start = end
    return new_p, {"t": t, "m": m, "v": v}


def sgd_step(params, grads, lr):
    return [p - lr * g for p, g in zip(params, grads)]


def clip_global_norm(grads, max_norm: float):
    total = math.sqrt(sum(float((g * g).sum()) for g in grads))
    if max_norm > 0 and total > max_norm:
        factor = max_norm / total
        return [g * factor for g in grads], total
    return grads, total


# -- metrics -----------------------------------------------------------------------


@dataclass
class MetricsRow:
    step: int
    split: str
    query_loss: Optional[float] = None
    query_accuracy: Optional[float] = None
    query_mse: Optional[float] = None
    kl_to_prior: Optional[float] = None
    kl_to_true_posterior: Optional[float] = None
    prior_kl_to_true: Optional[float] = None


@dataclass
class EvalReport:
    row: MetricsRow
    ci95: dict
    n_episodes: int
    degenerate: bool
    per_episode: dict
    primary: str  # the head's primary metric

    def primary_metric(self) -> tuple:
        return self.primary, getattr(self.row, self.primary), self.ci95.get(self.primary, 0.0)


def metric_records(row: MetricsRow, ci95: Optional[dict] = None):
    """Expand a row into (step, split, metric, value, ci95) tuples, one per
    set metric in ``MetricsRow``'s field order."""
    ci95 = ci95 or {}
    records = []
    for f in dataclasses.fields(row):
        value = getattr(row, f.name)
        if f.name not in ("step", "split") and value is not None:
            records.append((row.step, row.split, f.name, value, ci95.get(f.name, 0.0)))
    return records


def write_metrics_csv(path, records) -> None:
    with open(path, "w") as fh:
        fh.write(METRICS_HEADER + "\n")
        for step, split, metric, value, ci in records:
            fh.write(f"{step},{split},{metric},{value!r},{ci!r}\n")


# -- model/episode plumbing -----------------------------------------------------


def model_geometry(cfg: RunConfig) -> dict:
    """The geometry of the model a config builds: its mode and, in few-shot
    mode, k, d_x and d_f (the input width unless set). The toy model's k, d_x
    and d_f are fixed by ``build_toy_model``."""
    if cfg.mode == "toy":
        return {"mode": "toy"}
    fs = cfg.fewshot
    return {"mode": "fewshot", "k": fs.k, "d_x": fs.d_x,
            "d_f": fs.d_x if cfg.d_f is None else cfg.d_f}


def build_model(cfg: RunConfig) -> MetaModel:
    seed = derive_task_seed(cfg.run_seed, "train", 0xA0DE1)
    geometry = model_geometry(cfg)
    if geometry.pop("mode") == "toy":
        return build_toy_model(seed=seed)
    return build_fewshot_model(**geometry, seed=seed, train_f=cfg.train_f)


def make_theta0(model: MetaModel, episodes: Episode, cfg: RunConfig):
    """Initial task weights of a batch of episodes, stacked on the episode
    axis: the global initialization itself (data-independent), proto or ssl."""
    kind = cfg.theta_init
    if kind == "global":
        lam = model.params["lambda_global"]
        return lam + dc.constant(np.zeros((len(episodes),) + lam.shape))
    if kind == "proto":
        feats = dc.detach(apply_features(model, episodes.support_inputs))
        return init_theta0_proto(model, feats, episodes.support_labels)
    if kind == "ssl":
        return ssl_init(model, episodes, cfg.inner)
    raise ValueError(f"unknown theta_init {kind!r}")


def episodes_for(cfg: RunConfig, split: str, indices) -> Episode:
    """The run's episodes of ``split`` at ``indices``, as one batch."""
    seeds = [derive_task_seed(cfg.run_seed, split, i) for i in indices]
    if cfg.mode == "toy":
        return gen_spinning_lines(cfg.toy, seeds)
    return gen_fewshot_episode(cfg.fewshot, split, seeds)


def episode_pool(cfg: RunConfig, split: str, n: int) -> EpisodePool:
    """The run's first ``n`` episodes of ``split``, generated as they are read."""
    task_cfg = cfg.toy if cfg.mode == "toy" else cfg.fewshot
    return EpisodePool(n, task_cfg.n_query, lambda indices: episodes_for(cfg, split, indices))


def episode_objective(model: MetaModel, episodes: Episode, cfg: RunConfig):
    """Per-episode training losses of a batch of episodes, and the adapted
    weights."""
    theta_k, _ = sib_unroll(make_theta0(model, episodes, cfg), episodes, model, cfg.inner)
    return task_objective(episodes, theta_k, model, cfg.inner, cfg.outer_kl_weight), theta_k


# -- evaluation --------------------------------------------------------------------


def evaluate(model: MetaModel, cfg: RunConfig, split: str, episodes,
              inner: Optional[InnerLoopConfig] = None, step: int = 0,
              on_chunk: Optional[Callable] = None) -> EvalReport:
    """Frozen-model metrics over a batch of episodes (``tasks.Episode``) or a
    pool that generates them (``tasks.EpisodePool``), with 95% intervals.

    Episodes are read once each and adapted in chunks of at most
    ``CHUNK_POINTS`` query points (``chunk_slices``: 64 few-shot episodes or
    150 toy tasks) on a constant copy of the parameters, so no autodiff tape
    or synthetic-gradient activation is kept, and no per-episode value
    depends on the chunk. A pool's chunks are
    generated in a worker thread (``tasks.ahead``), each while the chunk
    before it is adapted, so at most two are alive: the one being adapted
    and the next.
    ``on_chunk(chunk, theta_k, losses)`` gets each chunk, its stacked adapted
    weights and query losses (the head's ``loss_metric``); ``analyze`` keeps
    the ones its gap estimate reads (``analysis.HeldTrials``).
    """
    if len(episodes) == 0:
        raise ValueError("evaluate requires at least one episode")
    inner = cfg.inner if inner is None else inner
    per = {}
    snapshot = model.clone_data()
    frozen = frozen_copy(model)
    chunks = (episodes.take(rows) for rows in chunk_slices(len(episodes), episodes.n_query))
    if isinstance(episodes, EpisodePool):
        chunks = ahead(chunks)
    with contextlib.closing(chunks):
        for chunk in chunks:
            theta_k, _ = sib_unroll(make_theta0(frozen, chunk, cfg), chunk, frozen, inner)
            metrics = frozen.head.episode_metrics(chunk, theta_k, cfg, inner)
            metrics["kl_to_prior"] = prior_term(theta_k, frozen, inner).data
            for name, values in metrics.items():
                per.setdefault(name, []).extend(float(v) for v in values)
            if on_chunk is not None:
                on_chunk(chunk, theta_k.data, metrics[frozen.head.loss_metric])
    for name, t in model.params.items():
        if not np.array_equal(t.data, snapshot[name]):
            raise RuntimeError(f"evaluation mutated parameter {name}")

    means = {k: float(np.mean(v)) for k, v in per.items()}
    ci95 = {}
    degenerate = len(episodes) == 1
    for k, v in per.items():
        if degenerate:
            ci95[k] = 0.0
        else:
            ci95[k] = 1.96 * float(np.std(v, ddof=1)) / math.sqrt(len(v))
    if degenerate:
        warnings.warn("single-episode evaluation: confidence interval is degenerate")
    row = MetricsRow(step=step, split=split, **means, **frozen.head.prior_metrics(cfg))
    return EvalReport(row=row, ci95=ci95, n_episodes=len(episodes), degenerate=degenerate,
                      per_episode={k: np.asarray(v) for k, v in per.items()},
                      primary=frozen.head.primary)


# -- training ------------------------------------------------------------------------


@dataclass
class TrainResult:
    model: MetaModel
    records: list
    final_eval: EvalReport
    best: MetaModel  # frozen, with the parameters of the best evaluation
    best_metric: float
    best_step: int
    steps_run: int


def _passes(pool: Episode, batch_tasks: int, run_seed: int):
    """Batches of ``batch_tasks`` episodes of ``pool``, endlessly: each pass
    reads the pool in an order of its own, drawn from the run seed."""
    for p in itertools.count():
        order = _stream(derive_task_seed(run_seed, "train", (1 << 40) + p)).permutation(len(pool))
        for pos in range(0, len(pool), batch_tasks):
            yield pool.take(order[pos:pos + batch_tasks])


def train(cfg: RunConfig) -> TrainResult:
    """Run the outer loop; deterministic for a fixed config and seed."""
    model = build_model(cfg)
    trainables = [t for _, t in sorted(model.trainable().items())]
    state = adam_init([t.shape for t in trainables]) if cfg.optimizer == "adam" else None

    # the mode chooses the batches, the step count, the evaluation interval
    # and the evaluation pool: toy runs passes over a fixed task pool and is
    # evaluated on the test tasks, few-shot draws fresh episodes every step and
    # generates its validation pool as each evaluation reads it
    if cfg.mode == "toy":
        pool = episodes_for(cfg, "train", range(cfg.toy.n_train_tasks))
        batches = _passes(pool, cfg.batch_tasks, cfg.run_seed)
        steps_per_pass = math.ceil(len(pool) / cfg.batch_tasks)
        total_steps = steps_per_pass * cfg.epochs
        eval_every = cfg.eval_every or steps_per_pass
        split, eval_pool = "test", episodes_for(cfg, "test", range(cfg.toy.n_test_tasks))
    else:
        b = cfg.batch_tasks
        batches = (episodes_for(cfg, "train", range(s * b, (s + 1) * b))
                   for s in itertools.count())
        total_steps, eval_every = cfg.total_steps, cfg.eval_every
        split, eval_pool = "val", episode_pool(cfg, "val", cfg.val_pool_size)

    records = []
    best_metric = best = best_step = None
    # the parameters before the latest update, and how many updates they had;
    # the optimizers return new arrays, so holding references is enough
    kept, kept_step = [t.data for t in trainables], 0

    def diverged(message: str) -> TrainingDiverged:
        for t, arr in zip(trainables, kept):
            t.data = arr
        return TrainingDiverged(message, model=model, records=records, step=kept_step)

    step = 0
    try:
        for step, batch in zip(range(total_steps), batches):
            dc.zero_grad(trainables)
            losses, _ = episode_objective(model, batch, cfg)
            loss = dc.scale(losses.sum(), 1.0 / len(batch))
            loss_value = loss.item()
            if not math.isfinite(loss_value):
                raise diverged(f"non-finite loss at step {step}")
            dc.backward(loss)
            grads = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in trainables]
            grads, _ = clip_global_norm(grads, cfg.grad_clip_norm)
            if cfg.optimizer == "adam":
                new_params, state = adam_step(
                    [t.data for t in trainables], grads, state,
                    cfg.learning_rate, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps,
                )
            else:
                new_params = sgd_step([t.data for t in trainables], grads, cfg.learning_rate)
            kept, kept_step = [t.data for t in trainables], step
            for t, p in zip(trainables, new_params):
                t.data = p
            records.append((step, "train", "query_loss", loss_value, 0.0))

            # the last step always evaluates; its report is the final one
            if (step + 1) % eval_every == 0 or step + 1 == total_steps:
                # the evaluation reads the parameters before the next loss checks
                # them, and the last update has no next loss
                if not all(np.all(np.isfinite(p)) for p in new_params):
                    raise diverged(f"non-finite parameter update at step {step}")
                report = evaluate(model, cfg, split, eval_pool, step=step + 1)
                records.extend(metric_records(report.row, report.ci95))
                _, value, _ = report.primary_metric()
                if best_metric is None or model.head.improves(value, best_metric):
                    # shares the arrays, which no later update writes into
                    best_metric, best, best_step = value, frozen_copy(model), step + 1
    except InnerLoopError as exc:
        raise diverged(f"{exc} at outer step {step}") from exc
    return TrainResult(
        model=model,
        records=records,
        final_eval=report,
        best=best,
        best_metric=best_metric,
        best_step=best_step,
        steps_run=total_steps,
    )


# -- checkpoint file IO ------------------------------------------------------------


def save_checkpoint(model: MetaModel, path, cfg: Optional[RunConfig] = None,
                     step: int = 0) -> None:
    cfg_hash = config_hash(config_to_dict(cfg)) if cfg is not None else ""
    payload = checkpoint_payload(model, cfg_hash=cfg_hash, step=step)
    with open(path, "w") as fh:
        # dumps runs the C encoder; dump(payload, fh) the Python one, same bytes
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


def load_checkpoint(path, cfg: Optional[RunConfig] = None) -> MetaModel:
    """The checkpoint's model; with ``cfg``, its geometry must be the config's
    (``model_geometry``), and a valid checkpoint of another config hash warns."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed checkpoint file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"checkpoint {path} must be a JSON object")
    model = model_from_payload(payload)
    if cfg is not None:
        keys = {"mode": "mode", "k": "fewshot.k", "d_x": "fewshot.d_x", "d_f": "d_f"}
        for attr, want in model_geometry(cfg).items():
            if getattr(model, attr) != want:
                raise ValueError(f"checkpoint {attr} {getattr(model, attr)!r} does not match "
                                 f"the config's {keys[attr]} {want!r}")
    if cfg is not None and payload.get("config_hash"):
        expect = config_hash(config_to_dict(cfg))
        if payload["config_hash"] != expect:
            warnings.warn(
                f"checkpoint config hash {payload['config_hash']} does not match the "
                f"current config ({expect}); proceeding anyway"
            )
    return model
