"""Model components: init networks, synthetic-gradient MLP, cosine head."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgmeta import diffcore as dc
from sgmeta.diffcore import ShapeError, check_gradients, constant, grad
from sgmeta.models import (
    MetaModel,
    apply_features,
    build_fewshot_model,
    build_toy_model,
    checkpoint_payload,
    config_hash,
    cosine_parts,
    init_theta0_global,
    init_theta0_proto,
    linear_predict_toy,
    model_from_payload,
    synth_grad,
)
from sgmeta.tasks import ToyConfig, derive_task_seed, gen_spinning_lines


def test_global_init_is_data_independent():
    model = build_toy_model(seed=1)
    cfg = ToyConfig()
    ep_a = gen_spinning_lines(cfg, derive_task_seed(0, "train", 0))
    ep_b = gen_spinning_lines(cfg, derive_task_seed(0, "train", 1))
    assert not np.array_equal(ep_a.query_inputs, ep_b.query_inputs)
    assert init_theta0_global(model) is init_theta0_global(model)
    np.testing.assert_array_equal(init_theta0_global(model).data, model.params["lambda_global"].data)


def test_proto_init_one_shot_equals_support_features():
    model = build_fewshot_model(k=3, d_x=4, seed=0, identity_features=True)
    feats = np.arange(12, dtype=float).reshape(3, 4)
    theta = init_theta0_proto(model, constant(feats), [0, 1, 2])
    np.testing.assert_array_equal(theta.data, feats)  # lambda_scale starts at ones


def test_proto_init_duplication_invariance():
    model = build_fewshot_model(k=2, d_x=3, seed=0, identity_features=True)
    feats = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    once = init_theta0_proto(model, constant(feats), [0, 1])
    doubled = init_theta0_proto(model, constant(np.tile(feats, (2, 1))), [0, 1, 0, 1])
    np.testing.assert_allclose(once.data, doubled.data, atol=1e-15)


def test_proto_init_two_shot_hand_value():
    model = build_fewshot_model(k=1, d_x=2, seed=0, identity_features=True)
    model.params["lambda_scale"].data[:] = [2.0, 0.5]
    u, v = np.array([1.0, 4.0]), np.array([3.0, 2.0])
    theta = init_theta0_proto(model, constant(np.stack([u, v])), [0, 0])
    np.testing.assert_allclose(theta.data, [[2.0 * 2.0, 0.5 * 3.0]])


def test_proto_init_permutation_invariance():
    rng = np.random.default_rng(2)
    model = build_fewshot_model(k=4, d_x=5, seed=3, identity_features=True)
    feats = rng.normal(size=(8, 5))
    labels = np.array([0, 1, 2, 3, 0, 1, 2, 3])
    perm = rng.permutation(8)
    a = init_theta0_proto(model, constant(feats), labels)
    b = init_theta0_proto(model, constant(feats[perm]), labels[perm])
    np.testing.assert_allclose(a.data, b.data, atol=1e-15)


def test_proto_init_missing_class_errors():
    model = build_fewshot_model(k=3, d_x=2, seed=0, identity_features=True)
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


def test_synth_grad_zero_weights_outputs_bias():
    model = build_fewshot_model(k=3, d_x=4, seed=1)
    for name in ("xi_w1", "xi_b1", "xi_w2", "xi_b2", "xi_w3"):
        model.params[name].data[:] = 0.0
    model.params["xi_b3"].data[:] = [0.5, -1.0, 2.0]
    out = synth_grad(model, constant(np.random.default_rng(0).normal(size=(6, 3))))
    np.testing.assert_array_equal(out.data, np.tile([0.5, -1.0, 2.0], (6, 1)))


def test_synth_grad_is_zero_at_init():
    model = build_fewshot_model(k=4, d_x=4, seed=9)
    out = synth_grad(model, constant(np.random.default_rng(1).normal(size=(5, 4))))
    np.testing.assert_array_equal(out.data, np.zeros((5, 4)))


def test_synth_grad_width_mismatch_errors():
    model = build_fewshot_model(k=3, d_x=4, seed=0)
    with pytest.raises(ShapeError):
        synth_grad(model, constant(np.ones((5, 4))))


def cosine_logits(model, features, theta):
    return cosine_parts(features, theta, model.params["classifier_scale"])[0]


def test_cosine_parallel_gives_scale():
    model = build_fewshot_model(k=1, d_x=3, seed=0, identity_features=True)
    v = np.array([[1.0, 2.0, 2.0]])
    logits = cosine_logits(model, constant(3.0 * v), constant(v))
    assert logits.data[0, 0] == pytest.approx(10.0, abs=1e-9)


def test_cosine_feature_scale_invariance():
    model = build_fewshot_model(k=2, d_x=4, seed=5, identity_features=True)
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(6, 4))
    theta = constant(rng.normal(size=(2, 4)))
    base = cosine_logits(model, constant(feats), theta)
    scaled = cosine_logits(model, constant(7.3 * feats), theta)
    np.testing.assert_allclose(scaled.data, base.data, atol=1e-9)


def test_cosine_orthogonal_gives_zero():
    model = build_fewshot_model(k=1, d_x=2, seed=0, identity_features=True)
    logits = cosine_logits(model, constant([[1.0, 0.0]]), constant([[0.0, 5.0]]))
    assert logits.data[0, 0] == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), c=st.floats(0.1, 50.0))
def test_cosine_argmax_invariant_to_positive_rescaling(seed, c):
    rng = np.random.default_rng(seed)
    model = build_fewshot_model(k=3, d_x=4, seed=0, identity_features=True)
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
    x = constant([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(linear_predict_toy(constant([0.0]), x).data, np.zeros(3))
    np.testing.assert_array_equal(linear_predict_toy(constant([1.0]), x).data, [1.0, 2.0, 3.0])
    ep = gen_spinning_lines(ToyConfig(), derive_task_seed(1, "test", 5))
    pred = linear_predict_toy(constant([ep.truth["w"]]), constant(ep.query_inputs[:, 0]))
    assert np.mean((pred.data - ep.query_labels) ** 2) == pytest.approx(0.0, abs=1e-28)


def test_model_pieces_are_differentiable():
    model = build_fewshot_model(k=2, d_x=3, seed=7, identity_features=True)
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(4, 3))
    labels = [0, 1, 0, 1]
    target = rng.normal(size=(4, 2))

    def loss():
        theta = init_theta0_proto(model, constant(feats), labels)
        logits = cosine_logits(model, constant(feats), theta)
        g = synth_grad(model, logits)
        return dc.tmean(dc.square(logits + g - constant(target)))

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
