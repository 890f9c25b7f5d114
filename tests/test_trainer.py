"""Outer loop: optimizer oracles, determinism, evaluation, checkpoints."""

import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sgmeta.trainer as trainer
from sgmeta.tasks import FewShotConfig, ToyConfig
from sgmeta.distributions import (
    DETERMINISTIC,
    GAUSSIAN_FIXED_VAR,
    REGIMES,
    Deterministic,
    GaussianFixedVar,
)
from sgmeta.sibcore import (
    InnerLoopConfig,
    prior_term,
    sib_unroll,
)
from sgmeta.trainer import (
    SECTIONS,
    MetricsRow,
    RunConfig,
    TrainingDiverged,
    adam_init,
    adam_step,
    build_model,
    clip_global_norm,
    config_from_dict,
    config_to_dict,
    default_config,
    episode_objective,
    episodes_for,
    evaluate,
    load_checkpoint,
    make_theta0,
    metric_records,
    save_checkpoint,
    sgd_step,
    train,
    write_metrics_csv,
)


def tiny_toy_config(**overrides):
    cfg = default_config("toy")
    cfg.toy = ToyConfig(n=8, n_train_tasks=16, n_test_tasks=8)
    cfg.inner.posterior.log_var = 2 * math.log(cfg.toy.sigma_w)
    cfg.epochs = 2
    cfg.batch_tasks = 4
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


def tiny_fewshot_config(**overrides):
    cfg = default_config("fewshot")
    cfg.fewshot = FewShotConfig(
        k=3, n_shot=1, n_query_per_class=4, d_x=6,
        class_pool={"train": 8, "val": 4, "test": 4},
    )
    cfg.total_steps = 4
    cfg.batch_tasks = 2
    cfg.val_pool_size = 4
    cfg.eval_every = 2
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


# -- adam ---------------------------------------------------------------------


def test_adam_zero_gradient_leaves_params_and_decays_moments():
    params = [np.array([1.0, -2.0])]
    fresh = adam_init([p.shape for p in params])
    new_params, _ = adam_step(params, [np.zeros(2)], fresh, lr=0.1)
    np.testing.assert_array_equal(new_params[0], params[0])
    # with accumulated moments, zero gradients decay them geometrically
    state = {"t": 5, "m": np.array([0.5, 0.5]), "v": np.array([0.25, 0.25])}
    _, new_state = adam_step(params, [np.zeros(2)], state, lr=0.1)
    assert np.all(new_state["m"] < state["m"])
    assert np.all(new_state["v"] < state["v"])


def _adam_step_per_parameter(params, grads, state, lr, beta1, beta2, eps):
    """The per-parameter Adam loop that the flat update replaced, with its
    moments held as one array per parameter."""
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


def test_flat_adam_is_bitwise_the_per_parameter_loop():
    rng = np.random.default_rng(3)
    # a 0-d scale like classifier_scale, a (d, d) matrix, vectors and a column
    shapes = [(), (5, 5), (5,), (1,), (4, 1)]
    params = [rng.normal(size=s) for s in shapes]
    ref = list(params)
    state = adam_init(shapes)
    assert state["m"].shape == state["v"].shape == (sum(math.prod(s) for s in shapes),)
    ref_state = {"t": 0, "m": [np.zeros(s) for s in shapes], "v": [np.zeros(s) for s in shapes]}
    lr, b1, b2, eps = 3e-3, 0.9, 0.98, 1e-8
    for _ in range(100):
        # gradients over many scales, exact zeros included
        grads = [rng.normal(size=s) * 10.0 ** rng.integers(-6, 3) for s in shapes]
        grads[2][rng.integers(5)] = 0.0
        new_params, state = adam_step(params, grads, state, lr, b1, b2, eps)
        ref, ref_state = _adam_step_per_parameter(ref, grads, ref_state, lr, b1, b2, eps)
        for new, old, want in zip(new_params, params, ref):
            assert np.shape(new) == np.shape(old)
            np.testing.assert_array_equal(new, want)
            for other in [old, state["m"], state["v"]]:
                assert not np.shares_memory(new, other)
        for key in ("m", "v"):
            flat_ref = np.concatenate([np.ravel(a) for a in ref_state[key]])
            np.testing.assert_array_equal(state[key], flat_ref)
        params = new_params
    assert state["t"] == ref_state["t"] == 100


def test_adam_constant_gradient_approaches_signed_step():
    params = [np.zeros(3)]
    g = np.array([0.3, -4.0, 11.0])
    state = adam_init([p.shape for p in params])
    prev = params
    for _ in range(500):
        new, state = adam_step(prev, [g], state, lr=1e-2)
        step = new[0] - prev[0]
        prev = new
    np.testing.assert_allclose(step, -1e-2 * np.sign(g), rtol=1e-4)


def test_adam_matches_naive_reference_over_100_steps():
    rng = np.random.default_rng(0)
    shapes = [(3,), (2, 2)]
    params = [rng.normal(size=s) for s in shapes]
    state = adam_init(shapes)
    # independent reference with explicit scalars
    ref = [p.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    lr, b1, b2, eps = 7e-3, 0.9, 0.999, 1e-8
    for t in range(1, 101):
        grads = [rng.normal(size=s) for s in shapes]
        params, state = adam_step(params, grads, state, lr, b1, b2, eps)
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g**2
            ref[i] = ref[i] - lr * (m[i] / (1 - b1**t)) / (np.sqrt(v[i] / (1 - b2**t)) + eps)
    for a, b in zip(params, ref):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)


def test_sgd_and_clipping():
    out = sgd_step([np.array([1.0])], [np.array([0.5])], lr=0.2)
    np.testing.assert_allclose(out[0], [0.9])
    grads, norm = clip_global_norm([np.array([3.0, 4.0])], max_norm=1.0)
    assert norm == pytest.approx(5.0)
    np.testing.assert_allclose(grads[0], [0.6, 0.8])


# -- training loop -----------------------------------------------------------------


def test_zero_learning_rate_leaves_parameters_bitwise():
    cfg = tiny_toy_config(learning_rate=0.0)
    before = build_model(cfg).clone_data()
    result = train(cfg)
    after = result.model.clone_data()
    assert set(before) == set(after)
    for name in before:
        np.testing.assert_array_equal(before[name], after[name])


def test_training_is_bitwise_deterministic():
    cfg_a = tiny_toy_config()
    cfg_b = tiny_toy_config()
    res_a = train(cfg_a)
    res_b = train(cfg_b)
    assert res_a.records == res_b.records
    for name, arr in res_a.model.clone_data().items():
        np.testing.assert_array_equal(arr, res_b.model.clone_data()[name])


def test_fewshot_training_runs_and_freezes_features():
    cfg = tiny_fewshot_config()
    model_before = build_model(cfg)
    f_before = model_before.params["f_weight"].data.copy()
    result = train(cfg)
    np.testing.assert_array_equal(result.model.params["f_weight"].data, f_before)
    assert result.steps_run == 4
    assert any(r[2] == "query_accuracy" for r in result.records)


def test_a_fewshot_step_holds_one_steps_graph(monkeypatch):
    """``backward`` frees each step's graph, so the next step's forward does
    not build its graph beside it: at the reference few-shot sizes, the peak
    traced memory of each step after the first is within 10% of the first
    step's (holding the previous graph too adds about 50%: 3.3 to 4.9 MB)."""
    cfg = default_config("fewshot")
    cfg.total_steps, cfg.eval_every, cfg.val_pool_size = 4, 4, 2
    peaks = []

    def measured(*args):
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return episode_objective(*args)

    monkeypatch.setattr(trainer, "episode_objective", measured)
    tracemalloc.start()
    try:
        train(cfg)
    finally:
        tracemalloc.stop()
    # peaks[s + 1] spans step s from its forward to the next batch; the last
    # step, which evaluates, is not read
    steps = peaks[1:]
    assert len(steps) == 3
    assert max(steps[1:]) <= 1.1 * steps[0]


def test_divergence_aborts_with_last_good_restored(monkeypatch):
    cfg = tiny_toy_config(learning_rate=1e12)  # blows up within a few steps
    cfg.inner.eta_inner = 1e6
    cfg.inner.sum_convention = True
    before = []  # each update's input parameters, copied

    def recording_adam_step(params, *args, **kwargs):
        before.append([p.copy() for p in params])
        return adam_step(params, *args, **kwargs)

    monkeypatch.setattr(trainer, "adam_step", recording_adam_step)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged) as exc:
            train(cfg)
    # the carried model holds the last finite parameter values: bitwise the
    # ones from before the update that diverged, which had exc.step updates
    model = exc.value.model
    assert model is not None and len(before) == exc.value.step + 1
    for arr in model.clone_data().values():
        assert np.all(np.isfinite(arr))
    for (name, t), arr in zip(sorted(model.trainable().items()), before[exc.value.step]):
        np.testing.assert_array_equal(t.data, arr, err_msg=name)


def test_fewshot_ssl_init_trains():
    cfg = default_config("fewshot")
    cfg.fewshot = FewShotConfig(
        k=3, n_shot=1, n_query_per_class=4, d_x=6,
        class_pool={"train": 8, "val": 4, "test": 4},
    )
    cfg.theta_init = "ssl"
    cfg.total_steps = 3
    cfg.batch_tasks = 2
    cfg.val_pool_size = 3
    cfg.eval_every = 3
    result = train(cfg)
    assert result.steps_run == 3
    assert any(r[2] == "query_accuracy" for r in result.records)
    assert cfg.theta_init == "ssl"


# -- evaluation ---------------------------------------------------------------------


def test_evaluate_all_correct_gives_perfect_accuracy():
    cfg = tiny_fewshot_config()
    cfg.fewshot.cluster_spread = 0.0  # queries equal prototypes
    cfg.inner.steps = 0
    model = build_model(cfg)
    eps = episodes_for(cfg, "test", range(5))
    report = evaluate(model, cfg, "test", eps)
    assert report.row.query_accuracy == pytest.approx(1.0)
    assert report.ci95["query_accuracy"] == pytest.approx(0.0)


def test_evaluate_single_episode_is_degenerate():
    cfg = tiny_fewshot_config()
    model = build_model(cfg)
    with pytest.warns(UserWarning, match="degenerate"):
        report = evaluate(model, cfg, "test", episodes_for(cfg, "test", [0]))
    assert report.degenerate
    assert all(v == 0.0 for v in report.ci95.values())


def test_evaluate_ci_matches_direct_recomputation():
    cfg = tiny_fewshot_config()
    model = build_model(cfg)
    eps = episodes_for(cfg, "val", range(6))
    report = evaluate(model, cfg, "val", eps)
    acc = report.per_episode["query_accuracy"]
    expect = 1.96 * acc.std(ddof=1) / math.sqrt(len(acc))
    assert report.ci95["query_accuracy"] == pytest.approx(expect, rel=1e-12)
    assert report.row.query_accuracy == pytest.approx(acc.mean(), rel=1e-12)


@pytest.mark.parametrize("regime", [GAUSSIAN_FIXED_VAR, DETERMINISTIC])
def test_toy_kl_to_prior_is_the_mean_prior_term(regime):
    """``kl_to_prior`` is the objective's KL to the prior (``prior_term``) at
    the pool's adapted weights, in either posterior regime."""
    cfg = tiny_toy_config()
    if regime == DETERMINISTIC:
        cfg.inner.posterior = Deterministic()
    model = build_model(cfg)
    rng = np.random.default_rng(2)
    for name in ("xi_w3", "lambda_global", "psi_mean", "psi_log_var"):
        model.params[name].data[:] = rng.normal(size=model.params[name].shape) * 0.5
    pool = episodes_for(cfg, "test", range(cfg.toy.n_test_tasks))
    theta_k, _ = sib_unroll(make_theta0(model, pool, cfg), pool, model, cfg.inner)
    expected = float(np.mean(prior_term(theta_k, model, cfg.inner).data))
    measured = evaluate(model, cfg, "test", pool).row.kl_to_prior
    assert measured == pytest.approx(expected, rel=1e-12, abs=0)


def test_evaluate_requires_episodes():
    cfg = tiny_toy_config()
    with pytest.raises(ValueError):
        evaluate(build_model(cfg), cfg, "test", [])


# -- checkpoints -----------------------------------------------------------------------


def test_checkpoint_save_load_save_identical_bytes(tmp_path):
    cfg = tiny_fewshot_config()
    model = build_model(cfg)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_checkpoint(model, p1, cfg, step=7)
    restored = load_checkpoint(p1, cfg)
    save_checkpoint(restored, p2, cfg, step=7)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_of_other_settings_warns_naming_each_key(tmp_path):
    cfg = tiny_fewshot_config()
    path = tmp_path / "ck.json"
    save_checkpoint(build_model(cfg), path, cfg, step=1)
    assert json.loads(path.read_text())["config"] == config_to_dict(cfg)
    other = tiny_fewshot_config(run_seed=99, eval_episodes=5)
    with pytest.warns(UserWarning) as caught:
        load_checkpoint(path, other)
    assert [str(w.message) for w in caught] == [
        f"checkpoint {path} was trained with other settings: "
        "eval_episodes: 2000 in the checkpoint, 5 now; run_seed: 0 in the checkpoint, 99 now"]


def test_a_checkpoint_that_stores_a_hash_loads_with_its_geometry_checked(tmp_path):
    """The earlier form stores ``config_hash`` and no config: it loads under
    any config of its geometry without a warning, and another geometry
    still exits with the geometry's error."""
    cfg = tiny_fewshot_config()
    path = tmp_path / "ck.json"
    save_checkpoint(build_model(cfg), path, cfg, step=1)
    payload = json.loads(path.read_text())
    del payload["config"]
    path.write_text(json.dumps({**payload, "config_hash": "0123456789abcdef"}))
    model = load_checkpoint(path, tiny_fewshot_config(run_seed=99, eval_episodes=5))
    assert model.meta() == build_model(cfg).meta()
    cfg.fewshot.k = 2
    with pytest.raises(ValueError, match="the config's fewshot.k 2"):
        load_checkpoint(path, cfg)


@pytest.mark.parametrize("text, named", [("{not json", "malformed JSON in"),
                                         ("[]", "must be a JSON object")],
                         ids=["not-json", "list"])
def test_checkpoint_malformed_errors(tmp_path, text, named):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=named) as err:
        load_checkpoint(path, tiny_fewshot_config())
    assert str(path) in str(err.value)


def test_metrics_identical_before_and_after_checkpoint_round_trip(tmp_path):
    cfg = tiny_fewshot_config()
    result = train(cfg)
    eps = episodes_for(cfg, "test", range(5))
    before = evaluate(result.model, cfg, "test", eps)
    path = tmp_path / "ck.json"
    save_checkpoint(result.model, path, cfg, step=result.steps_run)
    restored = load_checkpoint(path, cfg)
    after = evaluate(restored, cfg, "test", eps)
    assert before.row.query_accuracy == after.row.query_accuracy
    assert before.row.query_loss == after.row.query_loss


# -- config round trip --------------------------------------------------------------------


def test_config_round_trip_through_dict():
    cfg = tiny_fewshot_config()
    cfg.outer_kl_weight = 0.25
    data = config_to_dict(cfg)
    rebuilt = config_from_dict(json.loads(json.dumps(data)))
    assert config_to_dict(rebuilt) == data


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config key 'learningrate'"):
        config_from_dict({"mode": "toy", "learningrate": 0.1})
    with pytest.raises(ValueError, match="inner.K"):
        config_from_dict({"mode": "toy", "inner": {"K": 3}})
    with pytest.raises(ValueError, match="inner.record_trajectory"):
        config_from_dict({"mode": "toy", "inner": {"record_trajectory": True}})


@pytest.mark.parametrize("key,value", [
    ("batch_tasks", True),
    ("batch_tasks", 2.0),
    ("total_steps", 0),
    ("val_pool_size", "many"),
    ("adam_beta2", 1.0),
    ("adam_eps", 0.0),
    ("learning_rate", float("nan")),
    ("grad_clip_norm", -1.0),
    ("outer_kl_weight", "high"),
    ("train_f", 1),
    ("theta_init", "random"),
    ("mode", "fewshot-zeroshot"),
])
def test_config_rejects_bad_scalar_values_naming_the_key(key, value):
    with pytest.raises(ValueError, match=key):
        config_from_dict({"mode": "fewshot", key: value})


@pytest.mark.parametrize("section,key,value", [
    ("fewshot", "class_pool", 5),
    ("toy", "sigma_w", "x"),
    ("inner.posterior", "log_var", [1]),
    ("inner.posterior", "inner_draws", "2"),
    ("fewshot", "k", "5"),
    ("inner", "steps", 1.5),
    ("toy", "n", 2.5),
    ("inner.posterior", "objective_draws", -3),
    ("inner.posterior", "inner_draws", -1),
    ("inner.posterior", "objective_draws", 0),
    ("inner.posterior", "regime", "gaussian"),
    ("inner", "kl_in_inner", "yes"),
])
def test_config_rejects_bad_nested_values_naming_the_key(section, key, value):
    mode = "fewshot" if section == "fewshot" else "toy"
    data = {key: value}
    for part in reversed(section.split(".")):
        data = {part: data}
    with pytest.raises(ValueError, match=re.escape(f"{section}.{key} must be")):
        config_from_dict({"mode": mode, **data})


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


def _section(cls, values=_JSON):
    names = st.sampled_from([f.name for f in dataclasses.fields(cls)])
    return st.dictionaries(names, values, max_size=4) | _JSON


# a posterior section of either regime's keys, naming a regime or not
_POSTERIOR = _section(GaussianFixedVar, _JSON | st.sampled_from(sorted(REGIMES)))
_CONFIG_DICTS = st.fixed_dictionaries({}, optional={
    "mode": st.sampled_from(["toy", "fewshot"]) | _JSON,
    "inner": _section(InnerLoopConfig) | st.fixed_dictionaries({"posterior": _POSTERIOR}),
    "toy": _section(ToyConfig),
    "fewshot": _section(FewShotConfig),
    **{f.name: _JSON for f in dataclasses.fields(RunConfig) if f.name not in SECTIONS},
}) | st.dictionaries(st.text(max_size=8), _JSON, max_size=3) | _JSON


@settings(max_examples=300, deadline=None)
@given(data=_CONFIG_DICTS)
def test_config_from_dict_returns_a_config_or_raises_value_error(data):
    try:
        cfg = config_from_dict(data)
    except ValueError:
        return
    assert isinstance(cfg, RunConfig)


def test_config_mode_defaults():
    toy = default_config("toy")
    assert (toy.outer_kl_weight, toy.theta_init, toy.epochs, toy.total_steps) == \
        (0.05, "global", 150, None)
    assert (toy.eval_every, toy.val_pool_size, toy.d_f, toy.train_f) == (0, None, None, False)
    assert toy.inner.sum_convention
    fs = default_config("fewshot")
    assert (fs.outer_kl_weight, fs.theta_init, fs.epochs, fs.total_steps) == \
        (1.0, "proto", None, 3000)
    assert (fs.eval_every, fs.val_pool_size) == (250, 200)
    assert fs.inner.posterior == Deterministic()
    # the posterior of toy, and of a bare inner section
    assert toy.inner.posterior == GaussianFixedVar(log_var=2 * math.log(0.1), inner_draws=0,
                                                   objective_draws=8)
    assert InnerLoopConfig().posterior == GaussianFixedVar(log_var=2 * math.log(0.1),
                                                           inner_draws=1, objective_draws=1)


def test_metric_records_exclude_wall_time(tmp_path):
    row = MetricsRow(step=3, split="val", query_accuracy=0.5)
    recs = metric_records(row, {"query_accuracy": 0.01})
    assert recs == [(3, "val", "query_accuracy", 0.5, 0.01)]
    path = tmp_path / "m.csv"
    write_metrics_csv(path, recs)
    assert path.read_text() == "step,split,metric,value,ci95\n3,val,query_accuracy,0.5,0.01\n"
