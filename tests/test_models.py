"""Model components: init networks, synthetic-gradient net, cosine head."""

import ast
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgmeta import diffcore as dc
from sgmeta.diffcore import ShapeError, check_gradients, constant
from sgmeta.models import (
    MetaModel,
    apply_features,
    build_fewshot_model,
    build_toy_model,
    checkpoint_payload,
    config_hash,
    init_theta0_proto,
    model_from_payload,
    prior_dist,
)
from sgmeta.tasks import ToyConfig, derive_task_seed, gen_spinning_lines, true_prior
from sgmeta.trainer import default_config, make_theta0
from test_distributions import SRC, vocabulary_sites
from test_fused import kl_diag_gaussian, tmean


def identity_map_model(k, d_x, seed):
    """A few-shot model whose feature map is the identity."""
    model = build_fewshot_model(k=k, d_x=d_x, seed=seed)
    model.params["f_weight"].data = np.eye(d_x)
    return model


def test_global_init_is_data_independent():
    model = build_toy_model(seed=1)
    cfg = ToyConfig()
    ep_a = gen_spinning_lines(cfg, [derive_task_seed(0, "train", 0)])
    ep_b = gen_spinning_lines(cfg, [derive_task_seed(0, "train", 1)])
    assert not np.array_equal(ep_a.query_inputs, ep_b.query_inputs)
    run = default_config("toy")
    assert run.theta_init == "global"
    for ep in (ep_a, ep_b):
        np.testing.assert_array_equal(make_theta0(model, ep, run).data,
                                      model.params["lambda_global"].data[None])


def test_proto_init_one_shot_equals_support_features():
    model = identity_map_model(k=3, d_x=4, seed=0)
    feats = np.arange(12, dtype=float).reshape(3, 4)
    theta = init_theta0_proto(model, constant(feats), [0, 1, 2])
    np.testing.assert_array_equal(theta.data, feats)  # lambda_scale starts at ones


def test_proto_init_duplication_invariance():
    model = identity_map_model(k=2, d_x=3, seed=0)
    feats = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    once = init_theta0_proto(model, constant(feats), [0, 1])
    doubled = init_theta0_proto(model, constant(np.tile(feats, (2, 1))), [0, 1, 0, 1])
    np.testing.assert_allclose(once.data, doubled.data, atol=1e-15)


def test_proto_init_two_shot_hand_value():
    model = identity_map_model(k=1, d_x=2, seed=0)
    model.params["lambda_scale"].data[:] = [2.0, 0.5]
    u, v = np.array([1.0, 4.0]), np.array([3.0, 2.0])
    theta = init_theta0_proto(model, constant(np.stack([u, v])), [0, 0])
    np.testing.assert_allclose(theta.data, [[2.0 * 2.0, 0.5 * 3.0]])


def test_proto_init_permutation_invariance():
    rng = np.random.default_rng(2)
    model = identity_map_model(k=4, d_x=5, seed=3)
    feats = rng.normal(size=(8, 5))
    labels = np.array([0, 1, 2, 3, 0, 1, 2, 3])
    perm = rng.permutation(8)
    a = init_theta0_proto(model, constant(feats), labels)
    b = init_theta0_proto(model, constant(feats[perm]), labels[perm])
    np.testing.assert_allclose(a.data, b.data, atol=1e-15)


def test_proto_init_missing_class_errors():
    model = identity_map_model(k=3, d_x=2, seed=0)
    with pytest.raises(ValueError, match="missing class"):
        init_theta0_proto(model, constant(np.ones((2, 2))), [0, 1])
    with pytest.raises(ValueError, match="non-empty support"):
        init_theta0_proto(model, constant(np.ones((0, 2))), [])


def test_synth_grad_hidden_widths():
    five_way = build_fewshot_model(k=5, d_x=8, seed=0)
    assert five_way.params["xi_w1"].shape == (5, 40)
    assert five_way.params["xi_w2"].shape == (40, 40)
    toy = build_toy_model()
    assert toy.params["xi_w1"].shape == (1, 8)


def fewshot_direction(model, features, theta, seed_scale=0.25):
    """The synthetic-gradient direction of the cosine head at theta."""
    rule, _ = dc._cosine_sg_direction(constant(features), model.params["classifier_scale"],
                                      model.sg_layers(), seed_scale, dc.row_norms(features))
    return rule(theta)[0]


def test_synth_grad_zero_weights_outputs_bias():
    """A net of zero weights outputs its last bias on every row, so the
    direction is the head's VJP of that bias."""
    model = build_fewshot_model(k=3, d_x=4, seed=1)
    for name in ("xi_w1", "xi_b1", "xi_w2", "xi_b2", "xi_w3"):
        model.params[name].data[:] = 0.0
    model.params["xi_b3"].data[:] = [0.5, -1.0, 2.0]
    rows = np.random.default_rng(0).normal(size=(6, 3))
    out = dc._relu_mlp(rows, model.sg_layers(), False)[-1]
    np.testing.assert_array_equal(out, np.tile([0.5, -1.0, 2.0], (6, 1)))
    features, theta = rows @ np.ones((3, 4)) + np.eye(6, 4), constant(np.eye(3, 4) + 0.5)
    vjp = dc.cosine_vjp(constant(features), theta, model.params["classifier_scale"],
                        constant(0.25 * np.tile([0.5, -1.0, 2.0], (6, 1))))
    np.testing.assert_array_equal(fewshot_direction(model, features, theta), vjp.data)


def test_synth_grad_is_zero_at_init():
    """The last layer starts at zero: every direction is zero, in both heads."""
    model = build_fewshot_model(k=4, d_x=4, seed=9)
    rng = np.random.default_rng(1)
    out = fewshot_direction(model, rng.normal(size=(2, 5, 4)), constant(rng.normal(size=(2, 4, 4))))
    np.testing.assert_array_equal(out, np.zeros((2, 4, 4)))
    toy = build_toy_model(seed=2)
    rule, _ = dc._linear_sg_direction(constant(rng.normal(size=(3, 7))), toy.sg_layers(), True)
    out, _ = rule(constant(rng.normal(size=(3, 1))))
    np.testing.assert_array_equal(out, np.zeros((3, 1)))


def test_synth_grad_width_mismatch_errors():
    """Weights of other than k rows do not fit the k-way net."""
    model = build_fewshot_model(k=3, d_x=4, seed=0)
    with pytest.raises(ShapeError, match="cosine_sg_direction"):
        fewshot_direction(model, np.ones((5, 4)), constant(np.ones((4, 4))))


def cosine_logits(model, features, theta):
    return dc.cosine_logits(features, theta, model.params["classifier_scale"])


def test_cosine_parallel_gives_scale():
    model = identity_map_model(k=1, d_x=3, seed=0)
    v = np.array([[1.0, 2.0, 2.0]])
    logits = cosine_logits(model, constant(3.0 * v), constant(v))
    assert logits.data[0, 0] == pytest.approx(10.0, abs=1e-9)


def test_cosine_feature_scale_invariance():
    model = identity_map_model(k=2, d_x=4, seed=5)
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(6, 4))
    theta = constant(rng.normal(size=(2, 4)))
    base = cosine_logits(model, constant(feats), theta)
    scaled = cosine_logits(model, constant(7.3 * feats), theta)
    np.testing.assert_allclose(scaled.data, base.data, atol=1e-9)


def test_cosine_orthogonal_gives_zero():
    model = identity_map_model(k=1, d_x=2, seed=0)
    logits = cosine_logits(model, constant([[1.0, 0.0]]), constant([[0.0, 5.0]]))
    assert logits.data[0, 0] == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), c=st.floats(0.1, 50.0))
def test_cosine_argmax_invariant_to_positive_rescaling(seed, c):
    rng = np.random.default_rng(seed)
    model = identity_map_model(k=3, d_x=4, seed=0)
    feats = rng.normal(size=(5, 4))
    theta = rng.normal(size=(3, 4))
    base = cosine_logits(model, constant(feats), constant(theta)).data.argmax(axis=1)
    row = int(rng.integers(5))
    feats2 = feats.copy()
    feats2[row] *= c
    scaled_feats = cosine_logits(model, constant(feats2), constant(theta)).data.argmax(axis=1)
    np.testing.assert_array_equal(scaled_feats, base)
    theta2 = theta.copy()
    theta2[int(rng.integers(3))] *= c
    # rescaling one class weight preserves that row's cosine, hence argmax rows
    rescaled = cosine_logits(model, constant(feats), constant(theta2)).data
    np.testing.assert_allclose(
        rescaled, cosine_logits(model, constant(feats), constant(theta)).data, atol=1e-9
    )


def test_linear_toy_predictions():
    """The toy head predicts slope times input: its squared error is that of
    those predictions, and vanishes at the slope of noiseless labels."""
    x = np.array([1.0, 2.0, 3.0])
    mse = dc.linear_squared_error(constant([0.0]), None, x, x, True)
    assert mse.item() == pytest.approx(14.0 / 3.0, abs=1e-15)
    assert dc.linear_squared_error(constant([1.0]), None, x, x, True).item() == 0.0
    assert dc.linear_squared_error(constant([2.0]), None, x, x, False).item() == 14.0
    ep = gen_spinning_lines(ToyConfig(), [derive_task_seed(1, "test", 5)])
    at_truth = dc.linear_squared_error(constant(ep.truth[:, None]), None,
                                       ep.query_inputs[..., 0], ep.query_labels, True)
    assert at_truth.data[0] == pytest.approx(0.0, abs=1e-28)


@pytest.mark.parametrize("mean, log_var", [(1.0, 0.0), (0.3, math.log(0.5)), (-2.5, -6.0)],
                         ids=["unit", "half", "narrow"])
def test_toy_prior_metric_is_the_kl_chain_bitwise(mean, log_var):
    """The learned prior's KL to the true prior, one node, bitwise the
    elementary-op KL on priors whose log-variance is not the truth's."""
    cfg = default_config("toy")
    model = build_toy_model(seed=3)
    model.params["psi_mean"].data[:] = mean
    model.params["psi_log_var"].data[:] = log_var
    truth = true_prior(cfg.toy)
    assert not np.array_equal(truth.log_var.data, model.params["psi_log_var"].data)
    expected = kl_diag_gaussian(prior_dist(model), truth).item()
    assert model.head.prior_metrics(cfg) == {"prior_kl_to_true": expected}


def test_model_pieces_are_differentiable():
    model = identity_map_model(k=2, d_x=3, seed=7)
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(4, 3))
    labels = [0, 1, 0, 1]
    target, g_target = rng.normal(size=(4, 2)), rng.normal(size=(2, 3))
    model.params["xi_w3"].data[:] = rng.normal(size=model.params["xi_w3"].shape)

    def loss():
        theta = init_theta0_proto(model, constant(feats), labels)
        logits = cosine_logits(model, constant(feats), theta)
        # one unit step along the head's direction: theta - g
        step = model.head.direction(constant(feats), dc.row_norms(feats), False)
        theta_1 = dc.descent(theta.reshape((1,) + theta.shape), step, 1.0, [None])[-1]
        r, r_g = logits - constant(target), theta_1 - constant(g_target)
        return tmean(r * r) + tmean(r_g * r_g)

    params = [model.params[n] for n in ("lambda_scale", "classifier_scale", "xi_w1", "xi_b3")]
    errors = check_gradients(loss, params, h=1e-6, tol=1e-6)
    assert max(errors) < 1e-6


def test_feature_map_is_frozen_by_default():
    model = build_fewshot_model(k=2, d_x=4, d_f=3, seed=0)
    assert not model.params["f_weight"].requires_grad
    feats = apply_features(model, np.ones((2, 4)))
    assert feats.shape == (2, 3)
    trainable = build_fewshot_model(k=2, d_x=4, d_f=3, seed=0, train_f=True)
    assert trainable.params["f_weight"].requires_grad


def test_checkpoint_payload_round_trip_bit_exact():
    model = build_fewshot_model(k=3, d_x=5, seed=11)
    model.params["psi_mean"].data[:] = np.random.default_rng(3).normal(size=15)
    payload = checkpoint_payload(model, cfg_hash=config_hash({"a": 1}), step=42)
    text = json.dumps(payload, sort_keys=True)
    restored = model_from_payload(json.loads(text))
    assert restored.k == model.k and restored.mode == model.mode
    for name, t in model.params.items():
        np.testing.assert_array_equal(restored.params[name].data, t.data)
        assert restored.params[name].requires_grad == t.requires_grad
    text2 = json.dumps(checkpoint_payload(restored, cfg_hash=config_hash({"a": 1}), step=42),
                       sort_keys=True)
    assert text2 == text


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_checkpoint_parameter_is_rejected_by_name(bad):
    payload = json.loads(json.dumps(checkpoint_payload(build_fewshot_model(k=3, d_x=5, seed=1))))
    payload["params"]["xi_w1"]["values"][0] = bad
    with pytest.raises(ValueError, match="xi_w1"):
        model_from_payload(payload)


def _setting(*keys, value):
    def mutate(payload):
        section = payload
        for key in keys[:-1]:
            section = section[key]
        section[keys[-1]] = value
    return mutate


def _reshaped_xi_b1(payload):
    # its 16 values as a (4, 4) array, which only the geometry rejects
    payload["params"]["xi_b1"]["shape"] = [4, 4]


@pytest.mark.parametrize("mode, mutate, named", [
    ("fewshot", lambda p: p["params"].pop("xi_w1"), "missing ['xi_w1']"),
    ("fewshot", lambda p: p["params"].update(extra=p["params"]["xi_b1"]), "unknown ['extra']"),
    ("fewshot", _setting("params", value=[]), "checkpoint params must be an object"),
    ("fewshot", _setting("meta", "k", value="2"), "checkpoint meta k must be an integer"),
    ("fewshot", _setting("meta", "mode", value="zeroshot"), "checkpoint meta mode must be one"),
    ("fewshot", _setting("meta", "train_f", value=1), "checkpoint meta train_f must be"),
    ("fewshot", _setting("meta", "k", value=10**9), "meta k=1000000000 is no axis"),
    ("fewshot", _setting("meta", "d_f", value=2), "f_weight has shape [3, 4]"),
    ("fewshot", _reshaped_xi_b1, "xi_b1 has shape [4, 4]"),
    ("toy", _setting("meta", "k", value=8), "is not the toy model's"),
], ids=["no-param", "unknown-param", "params-list", "k-text", "bad-mode", "train-f-int",
        "huge-k", "d_f-geometry", "shape-geometry", "toy-k"])
def test_malformed_checkpoint_is_rejected_naming_the_field(mode, mutate, named):
    model = build_toy_model() if mode == "toy" else build_fewshot_model(k=2, d_x=3, d_f=4)
    payload = json.loads(json.dumps(checkpoint_payload(model)))
    mutate(payload)
    with pytest.raises(ValueError) as err:
        model_from_payload(payload)
    assert named in str(err.value)


_PAYLOADS = [json.dumps(checkpoint_payload(model)) for model in (
    build_toy_model(seed=1), build_fewshot_model(k=2, d_x=3, seed=1))]
_WRONG_TYPED = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
                | st.lists(st.integers(), max_size=3)
                | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


def _key_paths(node, prefix=()):
    """Every key path into the nested objects of a payload."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from _key_paths(value, prefix + (key,))


@st.composite
def _mutated_payloads(draw):
    """A checkpoint payload with keys dropped, sections or values given the
    wrong type, and parameter values truncated."""
    payload = json.loads(draw(st.sampled_from(_PAYLOADS)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_key_paths(payload))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        section = payload
        for parent in parents:
            section = section[parent]
        kind = draw(st.sampled_from(["drop", "retype", "truncate"]))
        if kind == "drop":
            del section[key]
        elif kind == "retype":
            section[key] = draw(_WRONG_TYPED)
        elif isinstance(section[key], list):
            del section[key][draw(st.integers(0, len(section[key]))):]
    return payload


@settings(max_examples=300, deadline=None)
@given(payload=_mutated_payloads())
def test_model_from_payload_returns_a_model_or_raises_value_error(payload):
    try:
        model = model_from_payload(payload)
    except ValueError:
        return
    assert isinstance(model, MetaModel)


def test_classifier_scale_must_be_positive():
    model = build_fewshot_model(k=2, d_x=2, seed=0)
    model.params["classifier_scale"].data = np.array(-1.0)
    with pytest.raises(ValueError):
        MetaModel("fewshot", 2, 2, 2, model.params)


# The mode is read, and compared with a mode name, only where a command
# chooses it (``cli``), where a config is defaulted and checked, where the
# model is built and a checkpoint rebuilt, and where the episodes are
# generated. Everything else asks the model's task head.
MODE_EXEMPT = {("trainer", name) for name in (
    "RunConfig", "default_config", "config_from_dict", "model_geometry", "build_model",
    "episodes_for", "episode_pool", "train")} | {("models", "model_from_payload")}


def test_only_config_data_and_checkpoints_read_the_mode():
    found = vocabulary_sites({"mode"}, {"toy", "fewshot"}, "cli", MODE_EXEMPT)
    assert not found, "mode read outside its exemptions: " + ", ".join(found)


# Names that only tests reach, until a command reaches them: ``maml_inner``
# waits for an ``eval`` route to the inductive baseline.
UNREACHED_EXEMPT = {("sibcore", "maml_inner")}


def test_every_src_definition_is_referenced_by_src():
    """Each top-level function and class of ``src/sgmeta``, and each method
    other than a dunder, is named somewhere in ``src/sgmeta`` (as a name or
    an attribute), so no public API exists only for tests. An exemption
    whose name is referenced has outlived its reason."""
    defined, referenced = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.add((path.stem, top.name))
            if isinstance(top, ast.ClassDef):
                defined |= {(path.stem, method.name) for method in top.body
                            if isinstance(method, ast.FunctionDef)
                            and not method.name.startswith("__")}
        referenced |= {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)}
    unreached = {(module, name) for module, name in defined if name not in referenced}
    assert unreached - UNREACHED_EXEMPT == set(), "only tests reach these"
    assert UNREACHED_EXEMPT - unreached == set(), "exempt but referenced"


def test_every_top_level_import_is_read():
    """Each name a ``src/sgmeta`` module imports at top level is read in that
    module (``from __future__ import annotations`` aside), so no import
    outlives the code that used it."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for top in tree.body:
            if isinstance(top, (ast.Import, ast.ImportFrom)) and \
                    getattr(top, "module", None) != "__future__":
                unread += [f"{path.name}:{top.lineno} {alias.asname or alias.name}"
                           for alias in top.names
                           if (alias.asname or alias.name).split(".")[0] not in read]
    assert not unread, "imported but never read: " + ", ".join(unread)


# The entry point's ``argv`` defaults to the command line; only tests pass it.
DEFAULTED_EXEMPT = {("cli", "main", "argv")}


def _defaulted_parameters(path):
    """``(module, function, parameter, position, call names)`` of each
    defaulted parameter of the functions and methods defined in ``path``.
    ``position`` counts the call's positional arguments (a method's ``self``
    not among them), ``None`` for a keyword-only parameter. A method is
    called by its name, ``__init__`` by its class's."""
    tree = ast.parse(path.read_text())
    owners = {method: node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
              for method in node.body}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        params = fn.args.posonlyargs + fn.args.args
        if fn in owners and not any(getattr(d, "id", None) == "staticmethod"
                                    for d in fn.decorator_list):
            params = params[1:]
        names = {owners[fn].name} if fn.name == "__init__" and fn in owners else {fn.name}
        first = len(params) - len(fn.args.defaults)
        for position, param in enumerate(params[first:], start=first):
            yield path.stem, fn.name, param.arg, position, names
        for param, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield path.stem, fn.name, param.arg, None, names


def _call_arguments(tree):
    """``(called name, positional count, keyword names)`` of each call in
    ``tree``; a starred argument or ``**`` mapping passes every parameter."""
    every = float("inf")
    for call in ast.walk(tree):
        if isinstance(call, ast.Call):
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            keywords = {k.arg for k in call.keywords}
            yield name, every if starred else len(call.args), keywords


def test_every_defaulted_parameter_is_passed_by_some_src_call():
    """Each defaulted parameter of a ``src/sgmeta`` function or method is
    passed, by position or by keyword, by some call in ``src/sgmeta``, so
    no default hides a setting that only tests change."""
    paths = sorted(SRC.glob("*.py"))
    calls = [c for path in paths for c in _call_arguments(ast.parse(path.read_text()))]
    unpassed = set()
    for module, fn, param, position, names in (p for path in paths
                                               for p in _defaulted_parameters(path)):
        if not any(name in names and ((position is not None and count > position)
                                      or param in keywords or None in keywords)
                   for name, count, keywords in calls):
            unpassed.add((module, fn, param))
    assert unpassed - DEFAULTED_EXEMPT == set(), "no src call passes these"
    assert DEFAULTED_EXEMPT <= unpassed, "exempt but passed"
