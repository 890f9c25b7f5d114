"""Learnable networks: feature map, initialization, synthetic-gradient MLP,
cosine classifier head, and the toy linear predictor.

A MetaModel is a named bag of Tensors plus static geometry. The synthetic
gradient network consumes predictions only (a three-layer ReLU MLP whose
hidden width is eight times the prediction dimension); its final layer is
zero-initialized so that, at the start of meta-training, inner steps are
no-ops and unrolled runs coincide with the no-adaptation baseline.
"""

from __future__ import annotations

import hashlib
import json
from types import SimpleNamespace
from typing import Optional

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor
from .rules import BOOL, check_fields, int_at_least, one_of

COSINE_EPS = 1e-12


class MetaModel:
    """Meta-parameters: feature map, init net, synthetic-gradient net, prior."""

    def __init__(self, mode: str, k: int, d_x: int, d_f: int, params: dict,
                 train_f: bool = False):
        if mode not in ("toy", "fewshot"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.k = k
        self.d_x = d_x
        self.d_f = d_f
        self.head_dim = 1 if mode == "toy" else k
        self.train_f = bool(train_f)
        self.params = params
        if "classifier_scale" in params and params["classifier_scale"].data <= 0:
            raise ValueError("classifier_scale must be positive")

    def trainable(self) -> dict:
        return {name: t for name, t in self.params.items() if t.requires_grad}

    def theta_shape(self):
        return (1,) if self.mode == "toy" else (self.k, self.d_f)

    def clone_data(self) -> dict:
        return {name: t.data.copy() for name, t in self.params.items()}

    def load_data(self, snapshot: dict) -> None:
        for name, arr in snapshot.items():
            self.params[name].data = np.array(arr, dtype=np.float64)


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
                        train_f: bool = False, identity_features: bool = False) -> MetaModel:
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
    if not identity_features:
        # frozen random map by default; orthonormal columns keep feature scale
        if d_f <= d_x:
            q_mat, _ = np.linalg.qr(rng.normal(size=(d_x, d_x)))
            f_w = q_mat[:, :d_f]
        else:
            f_w = rng.normal(size=(d_x, d_f)) / np.sqrt(d_x)
        params["f_weight"] = Tensor(f_w, requires_grad=train_f)
    model = MetaModel("fewshot", k=k, d_x=d_x, d_f=d_f, params=params, train_f=train_f)
    return model


# -- feature map -----------------------------------------------------------


def apply_features(model: MetaModel, inputs: np.ndarray) -> Tensor:
    """Map raw inputs to feature space (identity when no map is configured)."""
    x = dc.constant(inputs)
    if "f_weight" not in model.params:
        return x
    return dc.matmul(x, model.params["f_weight"])


# -- initialization --------------------------------------------------------


def init_theta0_global(model: MetaModel) -> Tensor:
    """Data-independent start: the learnable global initialization itself."""
    return model.params["lambda_global"]


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


# -- synthetic gradient network ---------------------------------------------


def synth_grad(model: MetaModel, y_hat: Tensor) -> Tensor:
    """Three-layer ReLU MLP mapping predictions to a gradient surrogate; the
    leading axes of (..., head_dim) inputs are folded into the MLP's rows."""
    if y_hat.ndim < 2 or y_hat.shape[-1] != model.head_dim:
        raise dc.ShapeError("synth_grad", y_hat.shape, (None, model.head_dim))
    p = model.params
    rows = y_hat if y_hat.ndim == 2 else y_hat.reshape(-1, model.head_dim)
    h = dc.relu(dc.linear(rows, p["xi_w1"], p["xi_b1"]))
    h = dc.relu(dc.linear(h, p["xi_w2"], p["xi_b2"]))
    out = dc.linear(h, p["xi_w3"], p["xi_b3"])
    return out if y_hat.ndim == 2 else out.reshape(y_hat.shape)


# -- prediction heads --------------------------------------------------------


def cosine_parts(features: Tensor, theta: Tensor, scale: Tensor):
    """Common sub-expressions of the cosine head.

    ``features`` is (..., n, d) and ``theta`` (..., k, d); leading axes
    broadcast. Returns (logits, raw_dots, inv_denom, feat_norms,
    theta_norms) so the closed-form update direction can reuse them.
    """
    if features.ndim < 2 or theta.ndim < 2 or features.shape[-1] != theta.shape[-1]:
        raise dc.ShapeError("cosine_parts", features.shape, theta.shape)
    a = dc.row_norm(features)  # (..., n, 1)
    b = dc.row_norm(theta)  # (..., k, 1)
    dots = dc.matmul(features, dc.transpose(theta))  # (..., n, k)
    inv_denom = 1.0 / (dc.matmul(a, dc.transpose(b)) + COSINE_EPS)  # (..., n, k)
    logits = scale * (dots * inv_denom)
    return logits, dots, inv_denom, a, b


def linear_predict_toy(theta: Tensor, x: Tensor) -> Tensor:
    """Toy head: predictions are slope times input; ``theta`` is (..., 1)
    against inputs (..., n)."""
    return theta * x


def frozen_copy(model: MetaModel) -> MetaModel:
    """The same parameter values as constants: graphs built on it keep no tape."""
    params = {name: dc.constant(t.data) for name, t in model.params.items()}
    return MetaModel(model.mode, k=model.k, d_x=model.d_x, d_f=model.d_f,
                     params=params, train_f=model.train_f)


# -- checkpoint format --------------------------------------------------------


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def checkpoint_payload(model: MetaModel, cfg_hash: str = "", step: int = 0) -> dict:
    return {
        "format_version": 1,
        "config_hash": cfg_hash,
        "step": int(step),
        "meta": {
            "mode": model.mode,
            "k": model.k,
            "d_x": model.d_x,
            "d_f": model.d_f,
            "train_f": model.train_f,
        },
        "params": {
            name: {"shape": list(t.shape), "values": t.data.reshape(-1).tolist()}
            for name, t in sorted(model.params.items())
        },
    }


def _field(section, key: str, where: str):
    if not isinstance(section, dict) or key not in section:
        raise ValueError(f"{where} is missing {key!r}")
    return section[key]


_META_RULES = {"mode": one_of("toy", "fewshot"), "k": int_at_least(1), "d_x": int_at_least(1),
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
    return MetaModel(meta["mode"], **geometry, params=template.params, train_f=meta["train_f"])
