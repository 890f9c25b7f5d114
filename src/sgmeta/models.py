"""Learnable networks: feature map, initialization, the synthetic-gradient
network's parameters, the prior, and the task heads.

A MetaModel is a named bag of Tensors plus static geometry and the task head
of its mode (``HEADS``). The modes share the meta-model and differ only in
the head, which sets the likelihood and answers every question the mode
decides (``ToyHead``, ``CosineHead``), with ``diffcore``'s fused ops.

The synthetic gradient network consumes predictions only (a three-layer ReLU
MLP whose hidden width is eight times the prediction dimension,
``sg_layers``). Its final layer is zero-initialized so that, at the start of
meta-training, inner steps are no-ops and unrolled runs coincide with the
no-adaptation baseline.
"""

from __future__ import annotations

import hashlib
import json
import operator
from types import SimpleNamespace
from typing import Optional

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor
from .distributions import DiagGaussian
from .rules import BOOL, check_fields, int_at_least, one_of
from .tasks import true_posterior, true_prior


class MetaModel:
    """Meta-parameters: feature map, init net, synthetic-gradient net, prior;
    and the mode's task head."""

    def __init__(self, mode: str, k: int, d_x: int, d_f: int, params: dict,
                 train_f: bool = False):
        self.mode = mode
        self.k = k
        self.d_x = d_x
        self.d_f = d_f
        self.train_f = bool(train_f)
        self.params = params
        if "classifier_scale" in params and params["classifier_scale"].data <= 0:
            raise ValueError("classifier_scale must be positive")
        self.head = HEADS[mode](self)

    def meta(self) -> dict:
        """The geometry a checkpoint records and a copy is built from."""
        return {key: getattr(self, key) for key in _META_RULES}

    def trainable(self) -> dict:
        return {name: t for name, t in self.params.items() if t.requires_grad}

    def sg_layers(self) -> list:
        """(weight, bias) of each layer of the synthetic-gradient network."""
        return [(self.params[f"xi_w{i}"], self.params[f"xi_b{i}"]) for i in (1, 2, 3)]

    def clone_data(self) -> dict:
        return {name: t.data.copy() for name, t in self.params.items()}


def _he_uniform(rng, fan_in: int, shape) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _xi_params(rng, p: int, hidden: int) -> dict:
    return {
        "xi_w1": dc.param(_he_uniform(rng, p, (p, hidden))),
        "xi_b1": dc.param(np.zeros(hidden)),
        "xi_w2": dc.param(_he_uniform(rng, hidden, (hidden, hidden))),
        "xi_b2": dc.param(np.zeros(hidden)),
        "xi_w3": dc.param(np.zeros((hidden, p))),  # zero: first inner step is a no-op
        "xi_b3": dc.param(np.zeros(p)),
    }


def build_toy_model(seed: int = 0) -> MetaModel:
    rng = np.random.Generator(np.random.Philox(key=seed))
    params = _xi_params(rng, p=1, hidden=8)
    params["lambda_global"] = dc.param(np.zeros(1))
    params["psi_mean"] = dc.param(np.zeros(1))
    params["psi_log_var"] = dc.param(np.zeros(1))
    return MetaModel("toy", k=1, d_x=1, d_f=1, params=params)


def build_fewshot_model(k: int, d_x: int, d_f: Optional[int] = None, seed: int = 0,
                        train_f: bool = False) -> MetaModel:
    d_f = d_x if d_f is None else d_f
    rng = np.random.Generator(np.random.Philox(key=seed ^ 0xF00D))
    params = _xi_params(rng, p=k, hidden=8 * k)
    # nonzero rows: the cosine head's geometry degenerates at zero weights
    lam = rng.normal(size=(k, d_f))
    lam /= np.linalg.norm(lam, axis=1, keepdims=True)
    params["lambda_global"] = dc.param(lam)
    params["lambda_scale"] = dc.param(np.ones(d_f))
    params["psi_mean"] = dc.param(np.zeros(k * d_f))
    params["psi_log_var"] = dc.param(np.zeros(k * d_f))
    params["classifier_scale"] = dc.param(10.0)
    # a random linear map, frozen unless train_f; orthonormal columns keep
    # the feature scale
    if d_f <= d_x:
        q_mat, _ = np.linalg.qr(rng.normal(size=(d_x, d_x)))
        f_w = q_mat[:, :d_f]
    else:
        f_w = rng.normal(size=(d_x, d_f)) / np.sqrt(d_x)
    params["f_weight"] = Tensor(f_w, requires_grad=train_f)
    return MetaModel("fewshot", k=k, d_x=d_x, d_f=d_f, params=params, train_f=train_f)


# -- feature map -----------------------------------------------------------


def apply_features(model: MetaModel, inputs: np.ndarray) -> Tensor:
    """Map raw inputs to feature space."""
    return dc.matmul(dc.constant(inputs), model.params["f_weight"])


# -- initialization --------------------------------------------------------


def init_theta0_proto(model: MetaModel, support_feats: Tensor, support_labels) -> Tensor:
    """Per-class feature means, scaled per dimension by a learnable vector.

    ``support_feats`` is (..., S, d) with labels (..., S); the means are one
    matmul by a (..., k, S) class-averaging matrix.
    """
    labels = np.asarray(support_labels, dtype=np.int64)
    if support_feats.ndim < 2 or support_feats.shape[-2] == 0:
        raise ValueError("prototype initialization requires a non-empty support set")
    onehot = (labels[..., None, :] == np.arange(model.k)[:, None]).astype(np.float64)
    counts = onehot.sum(axis=-1, keepdims=True)
    if np.any(counts == 0):
        missing = int(np.nonzero(counts[..., 0] == 0)[-1][0])
        raise ValueError(f"support set is missing class {missing}")
    proto = dc.matmul(dc.constant(onehot / counts), support_feats)
    return proto * model.params["lambda_scale"]


def prior_dist(model: MetaModel) -> DiagGaussian:
    return DiagGaussian(model.params["psi_mean"], model.params["psi_log_var"])


def frozen_copy(model: MetaModel) -> MetaModel:
    """The same parameter values as constants: graphs built on it keep no tape."""
    params = {name: dc.constant(t.data) for name, t in model.params.items()}
    return MetaModel(**model.meta(), params=params)


# -- task heads: inputs (..., n, d_x) and labels (..., n) broadcast against
# the leading axes (draws, episodes) of weights ``w`` in front of theta_shape.


def accuracy_value(logits_data: np.ndarray, labels):
    """Share of rows whose argmax is the label, per leading index."""
    return np.mean(logits_data.argmax(axis=-1) == np.asarray(labels), axis=-1)


def cross_entropy_seed(logits: Tensor, labels) -> Tensor:
    """The mean cross entropy's gradient in (..., n, k) logits of integer
    label arrays (..., n): (softmax(logits) - onehot(labels)) / n."""
    one_hot = (labels[..., None] == np.arange(logits.shape[-1])).astype(np.float64)
    return dc.scale(dc.softmax(logits) - dc.constant(one_hot), 1.0 / logits.shape[-2])


def mean_over_draws(values: Tensor, eps: Optional[np.ndarray]) -> Tensor:
    """The mean over the leading axis of weight draws ``eps``; ``None``: no draws."""
    if eps is None:
        return values
    return dc.scale(dc.tsum(values, axis=0), 1.0 / len(eps))


class ToyHead:
    """The regression slope: predictions w * x of raw scalar inputs, and a
    squared-error likelihood. A lower query MSE is better."""

    primary = loss_metric = "query_mse"
    improves = staticmethod(operator.lt)

    def __init__(self, model: MetaModel):
        self.model = model
        self.theta_shape = (1,)

    def flat(self, theta: Tensor) -> Tensor:
        """Task weights as vectors; a slope is one."""
        return theta

    def inner_inputs(self, inputs: np.ndarray):
        """The raw inputs (..., n), and no per-unroll constant."""
        return dc.constant(inputs[..., 0]), None

    def direction(self, x: Tensor, _, sum_convention: bool):
        """The rule (1/n) sum_i net(w * x_i) * x_i at slopes w, the sum under
        ``sum_convention``: with y_hat = w * x, dy_hat_i/dw = x_i, so it is
        exactly the surrogate's gradient in w. Returns the array-level rule
        ``diffcore.descent`` steps along, and the parameters it reads."""
        return dc._linear_sg_direction(x, self.model.sg_layers(), not sum_convention)

    def query_loss(self, inputs: np.ndarray, labels, w: Tensor) -> Tensor:
        """The per-point mean squared error."""
        return dc.linear_squared_error(w, None, inputs[..., 0], labels, True)

    def loss_gradient(self, w: Tensor, x: Tensor, labels) -> Tensor:
        """``query_loss``' gradient in w at inner inputs ``x``: the mean of
        2 (w x_i - y_i) x_i, under ``sum_convention`` too, as the loss is."""
        r = w.data * x.data - labels
        return dc.constant((2.0 * r * x.data).mean(axis=-1, keepdims=True))

    def data_term(self, episodes, theta: Tensor, posterior, eps, sum_convention: bool) -> Tensor:
        """One node with the draws' offsets inside it."""
        return dc.linear_squared_error(theta, posterior.offsets(eps),
                                       episodes.query_inputs[..., 0], episodes.query_labels,
                                       not sum_convention)

    def episode_metrics(self, episodes, theta_k: Tensor, cfg, inner) -> dict:
        """Query MSE and the KL to the closed-form true posterior."""
        truth = true_posterior(episodes, cfg.toy)
        return {"query_mse": self.query_loss(episodes.query_inputs, episodes.query_labels,
                                             theta_k).data,
                "kl_to_true_posterior": inner.posterior.divergence(theta_k, truth).data}

    def prior_metrics(self, cfg) -> dict:
        """The learned prior's KL to the true prior."""
        prior, truth = prior_dist(self.model), true_prior(cfg.toy)
        kl = dc.prior_divergence(prior.mean, truth.mean, truth.log_var, prior.log_var.data)
        return {"prior_kl_to_true": kl.item()}


class CosineHead:
    """The cosine classifier on the feature map's output, and a
    cross-entropy likelihood. A higher query accuracy is better."""

    primary = "query_accuracy"
    loss_metric = "query_loss"
    improves = staticmethod(operator.gt)

    def __init__(self, model: MetaModel):
        self.model = model
        self.theta_shape = (model.k, model.d_f)

    def flat(self, theta: Tensor) -> Tensor:
        """Task weights as vectors: (..., k, d) -> (..., k*d)."""
        return theta.reshape(theta.shape[:-2] + (theta.shape[-2] * theta.shape[-1],))

    def inner_inputs(self, inputs: np.ndarray):
        """The feature map's output, detached so no gradient reaches the
        feature network from an adaptation path, and its row norms, which
        every step's cosine terms read."""
        features = dc.detach(apply_features(self.model, inputs))
        return features, dc.row_norms(features.data)

    def direction(self, features: Tensor, norms: np.ndarray, sum_convention: bool):
        """The synthetic-gradient rule at weights w, the seed net(logits)
        pushed through the head's VJP, as ``ToyHead.direction`` returns its
        own: with the scale and layers it reads."""
        seed_scale = 1.0 if sum_convention else 1.0 / features.shape[-2]
        return dc._cosine_sg_direction(features, self.model.params["classifier_scale"],
                                       self.model.sg_layers(), seed_scale, norms)

    def logits(self, inputs: np.ndarray, w: Tensor) -> Tensor:
        return dc.cosine_logits(apply_features(self.model, inputs), w,
                                self.model.params["classifier_scale"])

    def query_loss(self, inputs: np.ndarray, labels, w: Tensor) -> Tensor:
        return dc.softmax_cross_entropy(self.logits(inputs, w), labels)

    def loss_gradient(self, w: Tensor, features: Tensor, labels) -> Tensor:
        """``query_loss``' gradient in w at the inner inputs' ``features``:
        the cross-entropy seed pushed through the cosine head."""
        scale = self.model.params["classifier_scale"]
        seed = cross_entropy_seed(dc.cosine_logits(features, w, scale), labels)
        return dc.cosine_vjp(features, w, scale, seed)

    def data_term(self, episodes, theta: Tensor, posterior, eps, sum_convention: bool) -> Tensor:
        loss = self.query_loss(episodes.query_inputs, episodes.query_labels,
                               posterior.draw(theta, eps))
        return mean_over_draws(loss, eps)

    def episode_metrics(self, episodes, theta_k: Tensor, cfg, inner) -> dict:
        """Query cross entropy and accuracy."""
        logits = self.logits(episodes.query_inputs, theta_k)
        return {"query_loss": dc.softmax_cross_entropy(logits, episodes.query_labels).data,
                "query_accuracy": accuracy_value(logits.data, episodes.query_labels)}

    def prior_metrics(self, cfg) -> dict:
        return {}


# the modes, and the head each one builds
HEADS = {"toy": ToyHead, "fewshot": CosineHead}


# -- checkpoint format --------------------------------------------------------


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def checkpoint_payload(model: MetaModel, cfg_hash: str = "", step: int = 0) -> dict:
    return {
        "format_version": 1,
        "config_hash": cfg_hash,
        "step": int(step),
        "meta": model.meta(),
        "params": {
            name: {"shape": list(t.shape), "values": t.data.reshape(-1).tolist()}
            for name, t in sorted(model.params.items())
        },
    }


def _field(section, key: str, where: str):
    if not isinstance(section, dict) or key not in section:
        raise ValueError(f"{where} is missing {key!r}")
    return section[key]


_META_RULES = {"mode": one_of(*HEADS), "k": int_at_least(1), "d_x": int_at_least(1),
               "d_f": int_at_least(1), "train_f": BOOL}


def model_from_payload(payload: dict) -> MetaModel:
    """Rebuild a model from a checkpoint payload. A missing or mistyped
    section, meta key or parameter field, values that do not fit their shape
    or are not finite, and parameters other than the ones the builder creates
    for the meta geometry raise ValueError naming them."""
    if _field(payload, "format_version", "checkpoint") != 1:
        raise ValueError(f"unsupported checkpoint version {payload['format_version']!r}")
    meta_section = _field(payload, "meta", "checkpoint")
    meta = {key: _field(meta_section, key, "checkpoint meta") for key in _META_RULES}
    check_fields(SimpleNamespace(**meta), _META_RULES, "checkpoint meta ")
    entries = _field(payload, "params", "checkpoint")
    if not isinstance(entries, dict):
        raise ValueError("checkpoint params must be an object")
    arrays = {}
    for name, entry in entries.items():
        where = f"checkpoint parameter {name}"
        values, shape = _field(entry, "values", where), _field(entry, "shape", where)
        try:
            arrays[name] = np.asarray(values, dtype=np.float64).reshape(shape)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{where} has values that do not fit its shape {shape!r}") from None
        if not np.all(np.isfinite(arrays[name])):
            raise ValueError(f"{where} has non-finite values")
    # a built model's dimensions are axes of its parameters; checked before
    # they size the template, so a corrupt one cannot exhaust memory
    geometry = {key: meta[key] for key in ("k", "d_x", "d_f")}
    axes = {n for arr in arrays.values() for n in arr.shape}
    for key, value in geometry.items():
        if value not in axes:
            raise ValueError(f"checkpoint meta {key}={value} is no axis of its parameters")
    template = build_toy_model() if meta["mode"] == "toy" else \
        build_fewshot_model(**geometry, train_f=meta["train_f"])
    built = {key: getattr(template, key) for key in geometry}
    if geometry != built:
        raise ValueError(f"checkpoint meta {geometry} is not the {meta['mode']} model's {built}")
    missing = sorted(set(template.params) - set(arrays))
    unknown = sorted(set(arrays) - set(template.params))
    if missing or unknown:
        raise ValueError(f"checkpoint params: missing {missing}, unknown {unknown}")
    for name, arr in arrays.items():
        if arr.shape != template.params[name].shape:
            raise ValueError(f"checkpoint parameter {name} has shape {list(arr.shape)}; the meta "
                             f"geometry needs {list(template.params[name].shape)}")
        template.params[name].data = arr
    return MetaModel(**meta, params=template.params)
