"""Outer training loop: sample episodes, unroll the inner loop, update the
meta-parameters; plus evaluation, metric logging, and checkpointing.

One optimizer step consumes a batch of episodes, stacked on a leading axis so
the step builds and differentiates one graph. Per episode the loss is the
expected query loss plus the prior term; the prior term is split so that the
prior always receives its full matching gradient while the weight of the
prior pull on the adapted task weights is configurable (``outer_kl_weight``:
1 recovers the single merged objective, 0 trains the adaptation path on the
data term alone while the prior still tracks the produced posteriors).

Everything is deterministic given the run seed: episode streams, adaptation
noise, and batch order all derive from counter-based seeds.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import diffcore as dc
from .distributions import DiagGaussian, kl_diag_gaussian
from .models import (
    MetaModel,
    apply_features,
    build_fewshot_model,
    build_toy_model,
    checkpoint_payload,
    config_hash,
    cosine_parts,
    frozen_copy,
    init_theta0_global,
    init_theta0_proto,
    model_from_payload,
)
from .sibcore import (
    DETERMINISTIC,
    GAUSSIAN_FIXED_VAR,
    InnerLoopConfig,
    InnerLoopError,
    accuracy_value,
    cross_entropy,
    data_term,
    forward_chunks,
    objective_noise,
    prior_dist,
    prior_term,
    query_loss,
    sib_unroll,
    ssl_init,
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
    FewShotConfig,
    ToyConfig,
    derive_task_seed,
    episode_rng,
    gen_fewshot_episode,
    gen_spinning_lines,
    stacked,
    true_posterior,
    true_prior,
)

METRICS_HEADER = "step,split,metric,value,ci95"

MODES = ("toy", "fewshot")
SECTIONS = ("inner", "toy", "fewshot")


class TrainingDiverged(RuntimeError):
    """Raised on a non-finite loss or inner update; carries the last finite
    state, the records so far and the number of completed steps."""

    def __init__(self, message: str, model, records, step: int):
        super().__init__(message)
        self.model = model
        self.records = records
        self.step = step


_UNIT_INTERVAL = (lambda v: is_real(v) and 0 <= v < 1, "a number in [0, 1)")

# rules for the scalar fields of RunConfig; the sections check their own
_FIELD_RULES = {
    "mode": one_of(*MODES),
    "run_seed": INT,
    "optimizer": one_of("adam", "sgd"),
    "learning_rate": real_at_least(0),
    "adam_beta1": _UNIT_INTERVAL,
    "adam_beta2": _UNIT_INTERVAL,
    "adam_eps": real_above(0),
    "batch_tasks": int_at_least(1),
    "epochs": optional(int_at_least(1)),
    "total_steps": optional(int_at_least(1)),
    "eval_every": int_at_least(0),
    "outer_kl_weight": optional(real_at_least(0)),
    "grad_clip_norm": real_at_least(0),
    "train_f": BOOL,
    "theta_init": optional(one_of("global", "proto", "ssl")),
    "val_pool_size": int_at_least(1),
    "eval_episodes": int_at_least(1),
    "d_f": optional(int_at_least(1)),
}


def _unused_in(mode: str):
    return (lambda v: v is None, f"null in {mode} mode")


# rows that depend on the mode: settings that mode cannot apply
_MODE_RULES = {
    "toy": {
        "total_steps": _unused_in("toy"),
        "fewshot": _unused_in("toy"),
        "theta_init": optional(one_of("global")),
    },
    "fewshot": {
        "epochs": _unused_in("fewshot"),
        "toy": _unused_in("fewshot"),
    },
}
# the prototype initialization averages the support set
_PROTO_RULES = {"n_shot": (lambda v: v >= 1, "an integer >= 1 with theta_init proto")}


@dataclass
class RunConfig:
    """Experiment configuration; every field has a documented JSON key."""

    mode: str = "toy"
    run_seed: int = 0
    optimizer: str = "adam"  # adam | sgd
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_tasks: int = 8
    epochs: Optional[int] = None  # toy mode: passes over the fixed task pool
    total_steps: Optional[int] = None  # fewshot modes: outer steps
    eval_every: int = 0  # 0 -> toy: each epoch; fewshot: every 250 steps
    outer_kl_weight: Optional[float] = None  # None -> 0.0 for toy, 1.0 otherwise
    grad_clip_norm: float = 10.0
    train_f: bool = False
    theta_init: Optional[str] = None  # global | proto | ssl; None -> mode default
    val_pool_size: int = 200
    eval_episodes: int = 2000
    d_f: Optional[int] = None
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
        if self.init_kind == "proto" and self.fewshot is not None:
            check_fields(self.fewshot, _PROTO_RULES, "fewshot.")

    @property
    def kl_weight(self) -> float:
        """Weight of the prior pull on the adapted weights; the prior itself
        always receives its full matching gradient. Toy default is small:
        the exactly-solvable regression needs the data term to dominate for
        the posterior to track its closed form, while a mild pull anchors
        the global initialization (see the README's objective notes)."""
        if self.outer_kl_weight is not None:
            return float(self.outer_kl_weight)
        return 0.05 if self.mode == "toy" else 1.0

    @property
    def init_kind(self) -> str:
        if self.theta_init is not None:
            return self.theta_init
        return "proto" if self.mode == "fewshot" else "global"


def default_config(mode: str = "toy", **overrides) -> RunConfig:
    """Mode-appropriate defaults; keyword overrides are applied on top."""
    if mode == "toy":
        cfg = RunConfig(
            mode="toy",
            optimizer="adam",
            learning_rate=1e-3,
            adam_beta2=0.98,
            batch_tasks=8,
            epochs=150,
            toy=ToyConfig(),
            inner=InnerLoopConfig(
                steps=3,
                eta_inner=0.03,
                kl_in_inner=False,
                posterior_regime=GAUSSIAN_FIXED_VAR,
                q_log_var=2.0 * math.log(ToyConfig().sigma_w),
                sum_convention=True,
                inner_eval_at_mean=True,
                objective_mc_samples=8,
            ),
        )
    elif mode == "fewshot":
        cfg = RunConfig(
            mode="fewshot",
            optimizer="adam",
            learning_rate=1e-3,
            batch_tasks=8,
            total_steps=3000,
            fewshot=FewShotConfig(),
            inner=InnerLoopConfig(
                steps=3,
                eta_inner=1e-3,
                kl_in_inner=True,
                posterior_regime=DETERMINISTIC,
            ),
        )
    else:
        raise ValueError(f"unknown mode {mode!r}")
    for key, value in overrides.items():
        if not hasattr(cfg, key):
            raise ValueError(f"unknown config key {key!r}")
        setattr(cfg, key, value)
    cfg.__post_init__()
    return cfg


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
        if key == "mode" or value is None and key in ("toy", "fewshot", "epochs", "total_steps"):
            continue
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
    # a toy section sets the posterior variance unless the inner section does
    if data.get("toy") is not None and "q_log_var" not in data.get("inner", {}):
        cfg.inner.q_log_var = 2.0 * math.log(cfg.toy.sigma_w)
    return cfg


def _apply_nested(obj, updates: dict, section: str) -> None:
    if not isinstance(updates, dict):
        raise ValueError(f"config section {section!r} must be an object")
    valid = [f.name for f in dataclasses.fields(obj)]
    for key, value in updates.items():
        if key not in valid:
            raise ValueError(
                f"unknown config key '{section}.{key}'; expected one of {sorted(valid)}"
            )
        setattr(obj, key, value)


# -- optimizers -------------------------------------------------------------------


def adam_init(shapes) -> dict:
    return {
        "t": 0,
        "m": [np.zeros(s) for s in shapes],
        "v": [np.zeros(s) for s in shapes],
    }


def adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam; returns (new params, new state), inputs untouched."""
    t = state["t"] + 1
    new_m, new_v, new_p = [], [], []
    for p, g, m, v in zip(params, grads, state["m"], state["v"]):
        m_new = beta1 * m + (1 - beta1) * g
        v_new = beta2 * v + (1 - beta2) * g * g
        m_hat = m_new / (1 - beta1**t)
        v_hat = v_new / (1 - beta2**t)
        new_p.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m_new)
        new_v.append(v_new)
    return new_p, {"t": t, "m": new_m, "v": new_v}


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
    wall_time_ms: Optional[float] = None


@dataclass
class EvalReport:
    row: MetricsRow
    ci95: dict
    n_episodes: int
    degenerate: bool
    per_episode: dict

    def primary_metric(self) -> tuple:
        if self.row.query_accuracy is not None:
            return "query_accuracy", self.row.query_accuracy, self.ci95.get("query_accuracy", 0.0)
        return "query_mse", self.row.query_mse, self.ci95.get("query_mse", 0.0)


def metric_records(row: MetricsRow, ci95: Optional[dict] = None):
    """Expand a row into (step, split, metric, value, ci95) tuples.

    Wall time is excluded: metric files must be byte-identical across
    reruns of the same seed.
    """
    ci95 = ci95 or {}
    records = []
    for name in (
        "query_loss",
        "query_accuracy",
        "query_mse",
        "kl_to_prior",
        "kl_to_true_posterior",
        "prior_kl_to_true",
    ):
        value = getattr(row, name)
        if value is not None:
            records.append((row.step, row.split, name, value, ci95.get(name, 0.0)))
    return records


def write_metrics_csv(path, records) -> None:
    with open(path, "w") as fh:
        fh.write(METRICS_HEADER + "\n")
        for step, split, metric, value, ci in records:
            fh.write(f"{step},{split},{metric},{value!r},{ci!r}\n")


# -- model/episode plumbing -----------------------------------------------------


def build_model(cfg: RunConfig) -> MetaModel:
    seed = derive_task_seed(cfg.run_seed, "train", 0xA0DE1)
    if cfg.mode == "toy":
        return build_toy_model(seed=seed)
    fs = cfg.fewshot
    return build_fewshot_model(
        k=fs.k, d_x=fs.d_x, d_f=cfg.d_f, seed=seed, train_f=cfg.train_f
    )


def make_theta0(model: MetaModel, episodes, cfg: RunConfig):
    """Initial task weights of a list of episodes, stacked on the episode axis."""
    kind = cfg.init_kind
    if kind == "global":
        lam = init_theta0_global(model)
        return lam + dc.constant(np.zeros((len(episodes),) + lam.shape))
    if kind == "proto":
        feats = dc.detach(apply_features(model, stacked(episodes, "support_inputs")))
        return init_theta0_proto(model, feats, stacked(episodes, "support_labels"))
    if kind == "ssl":
        return ssl_init(model, episodes, cfg.inner)
    raise ValueError(f"unknown theta_init {kind!r}")


def episode_for(cfg: RunConfig, split: str, index: int) -> Episode:
    seed = derive_task_seed(cfg.run_seed, split, index)
    if cfg.mode == "toy":
        return gen_spinning_lines(cfg.toy, seed)
    return gen_fewshot_episode(cfg.fewshot, split, seed)


def episode_objective(model: MetaModel, episodes, cfg: RunConfig):
    """Per-episode training losses of a list of episodes, with the
    prior-gradient split applied, and the adapted weights."""
    klw = cfg.kl_weight
    theta0 = make_theta0(model, episodes, cfg)
    theta_k, _ = sib_unroll(theta0, episodes, model, cfg.inner)
    eps = objective_noise(theta_k, episodes, cfg.inner)
    loss = data_term(episodes, theta_k, model, cfg.inner, eps)
    if klw != 0.0:
        loss = loss + dc.scale(prior_term(theta_k, model, cfg.inner), klw)
    if klw != 1.0:
        frozen = dc.constant(theta_k.data)
        loss = loss + dc.scale(prior_term(frozen, model, cfg.inner), 1.0 - klw)
    return loss, theta_k


# -- evaluation --------------------------------------------------------------------


def evaluate(model: MetaModel, cfg: RunConfig, split: str, episodes,
              inner: Optional[InnerLoopConfig] = None, step: int = 0) -> EvalReport:
    """Frozen-model metrics over a sized sequence of episodes (a list, or a
    ``LazySequence`` that generates them), with 95% intervals.

    Episodes are read once each and adapted in chunks of at most
    ``CHUNK_POINTS`` query points (``forward_chunks``) on a constant copy of
    the parameters, so no autodiff tape is kept.
    """
    if len(episodes) == 0:
        raise ValueError("evaluate requires at least one episode")
    inner = cfg.inner if inner is None else inner
    start = time.perf_counter()
    per = {}

    def push(name, values):
        per.setdefault(name, []).extend(float(v) for v in values)

    snapshot = model.clone_data()
    frozen = frozen_copy(model)
    prior_now = prior_dist(frozen)
    for _, chunk in forward_chunks(episodes):
        theta_k, _ = sib_unroll(make_theta0(frozen, chunk, cfg), chunk, frozen, inner)
        inputs, labels = stacked(chunk, "query_inputs"), stacked(chunk, "query_labels")
        if model.mode == "toy":
            push("query_mse", query_loss(frozen, inputs, labels, theta_k).data)
            post = DiagGaussian(theta_k.data, np.full(theta_k.shape, inner.q_log_var))
            push("kl_to_true_posterior",
                 kl_diag_gaussian(post, true_posterior(chunk, cfg.toy)).data)
            push("kl_to_prior", kl_diag_gaussian(post, prior_now).data)
        else:
            feats = apply_features(frozen, inputs)
            logits, *_ = cosine_parts(feats, theta_k, frozen.params["classifier_scale"])
            push("query_loss", cross_entropy(logits, labels).data)
            push("query_accuracy", accuracy_value(logits.data, labels))
            push("kl_to_prior", prior_term(theta_k, frozen, inner).data)
    for name, arr in model.clone_data().items():
        if not np.array_equal(arr, snapshot[name]):
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
    row = MetricsRow(step=step, split=split, **{k: means.get(k) for k in (
        "query_loss", "query_accuracy", "query_mse", "kl_to_prior", "kl_to_true_posterior")})
    if model.mode == "toy":
        row.prior_kl_to_true = kl_diag_gaussian(prior_now, true_prior(cfg.toy)).item()
    row.wall_time_ms = 1000.0 * (time.perf_counter() - start)
    return EvalReport(row=row, ci95=ci95, n_episodes=len(episodes),
                      degenerate=degenerate, per_episode={k: np.asarray(v) for k, v in per.items()})


# -- training ------------------------------------------------------------------------


@dataclass
class TrainResult:
    model: MetaModel
    records: list
    final_eval: EvalReport
    best_snapshot: Optional[dict]
    best_metric: Optional[float]
    steps_run: int


def train(cfg: RunConfig, progress=None) -> TrainResult:
    """Run the outer loop; deterministic for a fixed config and seed."""
    model = build_model(cfg)
    trainables = [t for _, t in sorted(model.trainable().items())]
    state = adam_init([t.shape for t in trainables]) if cfg.optimizer == "adam" else None

    if cfg.mode == "toy":
        n_train = cfg.toy.n_train_tasks
        train_pool = [episode_for(cfg, "train", i) for i in range(n_train)]
        eval_pool = [episode_for(cfg, "test", i) for i in range(cfg.toy.n_test_tasks)]
        steps_per_epoch = math.ceil(n_train / cfg.batch_tasks)
        total_steps = steps_per_epoch * (cfg.epochs or 1)
        eval_every = cfg.eval_every or steps_per_epoch
    else:
        train_pool = None
        eval_pool = [episode_for(cfg, "val", i) for i in range(cfg.val_pool_size)]
        total_steps = cfg.total_steps or 3000
        eval_every = cfg.eval_every or 250

    records = []
    best_metric = None
    best_snapshot = None
    last_good = model.clone_data()
    order = None
    split = "test" if cfg.mode == "toy" else "val"

    step = 0
    try:
        for step in range(total_steps):
            if cfg.mode == "toy":
                epoch = step // steps_per_epoch
                pos = (step % steps_per_epoch) * cfg.batch_tasks
                if pos == 0:
                    rng = episode_rng(derive_task_seed(cfg.run_seed, "train", (1 << 40) + epoch))
                    order = rng.permutation(n_train)
                batch = [train_pool[i] for i in order[pos : pos + cfg.batch_tasks]]
            else:
                base = step * cfg.batch_tasks
                batch = [episode_for(cfg, "train", base + j) for j in range(cfg.batch_tasks)]

            dc.zero_grad(trainables)
            losses, _ = episode_objective(model, batch, cfg)
            loss = dc.scale(losses.sum(), 1.0 / len(batch))
            loss_value = loss.item()
            if not math.isfinite(loss_value):
                model.load_data(last_good)
                raise TrainingDiverged(f"non-finite loss at step {step}",
                                       model=model, records=records, step=step)
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
            for t, p in zip(trainables, new_params):
                t.data = p

            last_good = model.clone_data()
            records.append((step, "train", "query_loss", loss_value, 0.0))

            # the last step always evaluates; its report is the final one
            if (step + 1) % eval_every == 0 or step + 1 == total_steps:
                report = evaluate(model, cfg, split, eval_pool, step=step + 1)
                records.extend(metric_records(report.row, report.ci95))
                name, value, _ = report.primary_metric()
                better = (
                    best_metric is None
                    or (name == "query_accuracy" and value > best_metric)
                    or (name == "query_mse" and value < best_metric)
                )
                if better:
                    best_metric = value
                    best_snapshot = model.clone_data()
                if progress is not None:
                    progress(step + 1, total_steps, report)
    except InnerLoopError as exc:
        model.load_data(last_good)
        raise TrainingDiverged(f"{exc} at outer step {step}",
                               model=model, records=records, step=step) from exc
    return TrainResult(
        model=model,
        records=records,
        final_eval=report,
        best_snapshot=best_snapshot,
        best_metric=best_metric,
        steps_run=total_steps,
    )


# -- checkpoint file IO ------------------------------------------------------------


def save_checkpoint(model: MetaModel, path, cfg: Optional[RunConfig] = None,
                     step: int = 0) -> None:
    cfg_hash = config_hash(config_to_dict(cfg)) if cfg is not None else ""
    payload = checkpoint_payload(model, cfg_hash=cfg_hash, step=step)
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path, cfg: Optional[RunConfig] = None) -> MetaModel:
    """The checkpoint's model; with ``cfg``, its geometry must be ``build_model(cfg)``'s."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed checkpoint file {path}: {exc}") from exc
    if cfg is not None and payload.get("config_hash"):
        expect = config_hash(config_to_dict(cfg))
        if payload["config_hash"] != expect:
            warnings.warn(
                f"checkpoint config hash {payload['config_hash']} does not match the "
                f"current config ({expect}); proceeding anyway"
            )
    model = model_from_payload(payload)
    want = model if cfg is None else build_model(cfg)
    for attr, key in (("mode", "mode"), ("k", "fewshot.k"), ("d_x", "fewshot.d_x"), ("d_f", "d_f")):
        if getattr(model, attr) != getattr(want, attr):
            raise ValueError(f"checkpoint {attr} {getattr(model, attr)!r} does not match "
                             f"the config's {key} {getattr(want, attr)!r}")
    return model
