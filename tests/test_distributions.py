"""Distribution oracles: Monte-Carlo and quadrature checks of closed forms,
and the posterior regime's one owner."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgmeta import diffcore as dc
from sgmeta.diffcore import ShapeError, Tensor, backward, check_gradients, param, zero_grad
from sgmeta.distributions import (
    DETERMINISTIC,
    GAUSSIAN_FIXED_VAR,
    REGIMES,
    DiagGaussian,
)
from sgmeta.trainer import config_from_dict
from test_fused import dirac_prior_term, exp, kl_diag_gaussian


def standard(dim):
    return DiagGaussian(np.zeros(dim), np.zeros(dim))


def gaussian(mean, var):
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    var = np.atleast_1d(np.asarray(var, dtype=float))
    return DiagGaussian(mean, np.log(var))


def kl(q, p):
    """KL(q || p) as the one node, q's log-variance a constant array."""
    return dc.prior_divergence(q.mean, p.mean, p.log_var, q.log_var.data)


def test_kl_identical_is_zero():
    q = standard(3)
    assert kl(q, standard(3)).item() == pytest.approx(0.0, abs=1e-15)


def test_kl_mean_shift():
    assert kl(gaussian(1.0, 1.0), gaussian(0.0, 1.0)).item() == pytest.approx(0.5)


def test_kl_variance_case_against_monte_carlo():
    # Closed form: 0.5 * (0.25 - 1 - ln 0.25) = 0.3181471805599453
    closed = kl(gaussian(0.0, 0.25), gaussian(0.0, 1.0)).item()
    assert closed == pytest.approx(0.3181471805599453, abs=1e-12)

    # Monte-Carlo oracle: E_q[log q - log p], 1e7 samples, agree within 3 SE.
    rng = np.random.default_rng(12345)
    n = 10_000_000
    w = rng.normal(0.0, 0.5, size=n)
    log_q = -0.5 * (math.log(2 * math.pi * 0.25) + w**2 / 0.25)
    log_p = -0.5 * (math.log(2 * math.pi) + w**2)
    diffs = log_q - log_p
    se = diffs.std(ddof=1) / math.sqrt(n)
    assert abs(diffs.mean() - closed) < 3 * se


def posterior(regime=GAUSSIAN_FIXED_VAR, **knobs):
    """The posterior section of ``regime`` with ``knobs``."""
    return REGIMES[regime](**knobs)


def test_draw_zero_noise_returns_mean():
    w = posterior(log_var=math.log(4.0)).draw(Tensor([1.0, -2.0]), np.zeros(2))
    np.testing.assert_array_equal(w.data, [1.0, -2.0])


def test_draw_jacobian_in_theta_is_identity():
    mean = param([0.3, -0.7])
    for i in range(2):
        zero_grad([mean])
        w = posterior(log_var=0.1).draw(mean, np.array([0.5, -1.5]))
        expected = np.zeros(2)
        expected[i] = 1.0
        backward((w * Tensor(expected)).sum())
        np.testing.assert_allclose(mean.grad, expected, atol=0)


def test_draw_moments_match():
    mean = Tensor([1.0, -1.0])
    rng = np.random.default_rng(99)
    n = 1_000_000
    for var in (0.25, 4.0):
        # n independent draws on one leading axis
        draws = posterior(log_var=math.log(var)).draw(mean, rng.normal(size=(n, 2))).data
        se_mean = np.sqrt(var / n)
        assert np.all(np.abs(draws.mean(axis=0) - mean.data) < 3 * se_mean)
        # variance of the sample variance for a Gaussian: 2 sigma^4 / (n - 1)
        se_var = np.sqrt(2 * var**2 / (n - 1))
        assert np.all(np.abs(draws.var(axis=0) - var) < 3 * se_var)


# -- the posterior regime ----------------------------------------------------------------

# The three draw formulas ``GaussianFixedVar.draw`` replaced, kept as references:
# the tape's reparameterized sample, the gap's per-trial draw and σ's stacked
# draw.


def tape_draw_reference(theta, log_var, eps):
    """theta + exp(log_var / 2) * eps on the tape, log_var a constant of theta's shape."""
    log_var = dc.constant(np.full(theta.shape, log_var))
    return theta + exp(dc.scale(log_var, 0.5)) * Tensor(eps)


def gap_draw_reference(theta_data, log_var, noise):
    std = math.exp(log_var / 2.0)
    return theta_data.reshape(-1) + std * noise


def sigma_draw_reference(w, log_var, noise):
    std = math.exp(log_var / 2.0)
    return w + std * noise


# every log_var in configs/, the goldens and the tests
LOG_VARS = [2 * math.log(0.1), 2 * math.log(0.05), 2 * math.log(0.2), -4.0, 0.0]


@pytest.mark.parametrize("log_var", LOG_VARS)
@pytest.mark.parametrize("shape", [(4, 3, 5, 2), (4, 3, 1)])
def test_draw_is_the_tape_draw_bitwise(log_var, shape):
    rng = np.random.default_rng(11)
    theta, eps = Tensor(rng.normal(size=shape[1:])), rng.normal(size=shape)
    np.testing.assert_array_equal(posterior(log_var=log_var).draw(theta, eps).data,
                                  tape_draw_reference(theta, log_var, eps).data)


@pytest.mark.parametrize("log_var", LOG_VARS)
def test_draw_is_the_gap_and_sigma_draws_bitwise(log_var):
    rng = np.random.default_rng(12)
    theta, noise = rng.normal(size=(6, 10)), rng.normal(size=(6, 10))
    drawn = posterior(log_var=log_var).draw(dc.constant(theta), noise).data
    np.testing.assert_array_equal(
        drawn, np.stack([gap_draw_reference(t, log_var, e) for t, e in zip(theta, noise)]))
    np.testing.assert_array_equal(drawn, sigma_draw_reference(theta, log_var, noise))


def test_point_mass_draw_is_theta_itself():
    theta = Tensor(np.ones((3, 2)))
    assert posterior(DETERMINISTIC).draw(theta, np.ones((2, 3, 2))) is theta
    assert posterior().draw(theta, None) is theta


@pytest.mark.parametrize("log_var", [-4.0, 0.3])
def test_divergence_is_the_regime_term(log_var):
    rng = np.random.default_rng(13)
    theta = Tensor(rng.normal(size=(3, 4)))
    target = DiagGaussian(rng.normal(size=4), rng.normal(size=4))
    gaussian_q = DiagGaussian(theta, np.full((3, 4), log_var))
    np.testing.assert_array_equal(
        posterior(log_var=log_var).divergence(theta, target).data,
        kl_diag_gaussian(gaussian_q, target).data)
    np.testing.assert_array_equal(
        posterior(DETERMINISTIC).divergence(theta, target).data,
        dirac_prior_term(theta, target).data)


@pytest.mark.parametrize("section, expected", [
    ({"regime": GAUSSIAN_FIXED_VAR, "inner_draws": 3, "objective_draws": 3}, (3, 3, True)),
    ({"regime": GAUSSIAN_FIXED_VAR, "inner_draws": 0, "objective_draws": 8}, (0, 8, True)),
    ({"regime": GAUSSIAN_FIXED_VAR}, (1, 1, True)),  # a bare section's
    ({}, (0, 8, True)),  # toy's
    ({"regime": DETERMINISTIC}, (0, 0, False)),
])
def test_draw_counts_and_bound(section, expected):
    post = config_from_dict({"mode": "toy", "inner": {"posterior": section}}).inner.posterior
    assert (post.inner_draws, post.objective_draws, post.has_bound) == expected
    assert post.random == post.has_bound


SRC = Path(__file__).resolve().parents[1] / "src" / "sgmeta"


def _of_section(node, section):
    """Whether ``node`` is the name ``section`` or an attribute of that name."""
    return getattr(node, "id", None) == section or getattr(node, "attr", None) == section


def _sites(tree, knobs, names, section_knobs):
    """(top-level definition, line) of every attribute read of a knob, every
    read of a ``section_knobs`` knob off a section (``{section: knobs}``:
    ``section.knob`` or ``x.section.knob``), and every comparison against a
    knob or a name."""
    for top in tree.body:
        name = getattr(top, "name", None) or getattr(getattr(top, "targets", [None])[0], "id", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and (
                    node.attr in knobs or any(node.attr in owned and _of_section(node.value, s)
                                              for s, owned in section_knobs.items())):
                yield name, node.lineno
            elif isinstance(node, ast.Compare):
                named = {getattr(n, "id", getattr(n, "value", None))
                         for n in [node.left, *node.comparators]}
                if named & (names | knobs | set().union(*section_knobs.values())):
                    yield name, node.lineno


def vocabulary_sites(knobs, names, home, exempt, section_knobs=None):
    """``file:line (definition)`` of each site of the vocabulary (``_sites``)
    in a module of ``src/sgmeta`` other than ``home``, outside the
    ``(module, top-level definition)`` pairs of ``exempt``; and each
    exemption that has no site, so none outlives its reason."""
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem != home:
            tree = ast.parse(path.read_text())
            sites |= {(path.stem, top, line)
                      for top, line in _sites(tree, knobs, names, section_knobs or {})}
    found = [f"{module}.py:{line} ({top})" for module, top, line in sorted(sites, key=str)
             if (module, top) not in exempt]
    unused = exempt - {(module, top) for module, top, _ in sites}
    return found + [f"exempt {module}.{top} has none" for module, top in sorted(unused)]


# Attribute reads of the posterior section's keys, and comparisons against
# them or a regime name, are made in ``distributions`` only. ``log_var`` is
# also a ``DiagGaussian``'s, so only its reads off a posterior section count.
# The defaults and gradcheck's config set them (keywords and dict keys, none
# of them a read). ``config_from_dict`` tests whether a JSON posterior
# section names ``log_var`` before ``toy.sigma_w`` sets it; sibcore's
# ``_step_noise``, ``data_term`` and ``objective_noise`` size the weight
# noise by the section's draw counts.
REGIME_KNOBS = {"regime", "inner_draws", "objective_draws"}
SECTION_KNOBS = {"posterior": {"log_var"}}
REGIME_NAMES = {"GAUSSIAN_FIXED_VAR", "DETERMINISTIC", "gaussian_fixed_var", "deterministic"}
EXEMPT = {("trainer", "config_from_dict"), ("sibcore", "_step_noise"),
          ("sibcore", "objective_noise")}


def test_only_distributions_reads_the_posterior_regime():
    found = vocabulary_sites(REGIME_KNOBS, REGIME_NAMES, "distributions", EXEMPT, SECTION_KNOBS)
    assert not found, "regime read outside distributions.py: " + ", ".join(found)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 5),
)
def test_kl_nonnegative_and_zero_iff_equal(seed, dim):
    rng = np.random.default_rng(seed)
    q = DiagGaussian(rng.normal(size=dim), rng.normal(size=dim))
    p = DiagGaussian(rng.normal(size=dim), rng.normal(size=dim))
    assert kl(q, p).item() >= -1e-12
    same = DiagGaussian(q.mean.data.copy(), q.log_var.data.copy())
    assert abs(kl(q, same).item()) <= 1e-12


def test_kl_gradient_wrt_mean_matches_finite_differences():
    """In q's mean and in both of p's parameters; q's log-variance is a constant."""
    rng = np.random.default_rng(42)
    mean = param(rng.normal(size=4))
    log_var = rng.normal(size=4) * 0.3
    p_mean, p_log_var = param(rng.normal(size=4)), param(rng.normal(size=4) * 0.3)

    def f():
        return kl(DiagGaussian(mean, log_var), DiagGaussian(p_mean, p_log_var))

    errors = check_gradients(f, [mean, p_mean, p_log_var], h=1e-6, tol=1e-8)
    assert max(errors) < 1e-8


def test_kl_grad_closed_form_matches_autodiff():
    rng = np.random.default_rng(5)
    mean = param(rng.normal(size=3))
    p = DiagGaussian(rng.normal(size=3), rng.normal(size=3))
    q = DiagGaussian(mean, Tensor(np.full(3, -2.0)))
    backward(kl(q, p))
    # the pull of one unit step from the mean, with a zero direction
    zero = (lambda w: (np.zeros_like(w.data), None), [])
    theta_1 = dc.descent(Tensor(mean.data[None]), zero, 1.0, [None], (p.mean, p.log_var))[-1]
    np.testing.assert_allclose(mean.data - theta_1.data[0], mean.grad, rtol=1e-12)


def test_expected_nll_converges_to_cross_entropy():
    # E_q[-log p(w)] has closed form 0.5*(log(2 pi vp) + (vq + (mq-mp)^2)/vp).
    q = gaussian(0.5, 0.8)
    p = gaussian(-0.2, 1.5)
    closed = 0.5 * (math.log(2 * math.pi * 1.5) + (0.8 + 0.7**2) / 1.5)
    rng = np.random.default_rng(17)
    n = 200_000
    eps = rng.normal(size=n)
    w = 0.5 + math.sqrt(0.8) * eps
    nll = 0.5 * (math.log(2 * math.pi * 1.5) + (w - (-0.2)) ** 2 / 1.5)
    se = nll.std(ddof=1) / math.sqrt(n)
    assert abs(nll.mean() - closed) < 3 * se


def test_dirac_prior_term_gradient_and_moment_matching():
    """The point-mass posterior's divergence: gradients, and a stationary
    prior at the moments of the posteriors' means."""
    rng = np.random.default_rng(8)
    theta = param(rng.normal(size=4))
    p_mean = param(rng.normal(size=4))
    p_log_var = param(np.zeros(4))

    def point_mass_term(t, target):
        return posterior(DETERMINISTIC).divergence(t, target)

    def f():
        return point_mass_term(theta, DiagGaussian(p_mean, p_log_var))

    check_gradients(f, [theta, p_mean, p_log_var], h=1e-6, tol=1e-7)

    # Stationary prior given theta draws: mean of thetas, variance of spread.
    thetas = rng.normal(size=(500, 4)) * 2.0 + 1.0
    mu = thetas.mean(axis=0)
    var = ((thetas - mu) ** 2).mean(axis=0)
    zero_grad([p_mean, p_log_var])
    total = None
    for t in thetas[:50]:
        term = point_mass_term(Tensor(t), DiagGaussian(p_mean, p_log_var))
        total = term if total is None else total + term
    mu50 = thetas[:50].mean(axis=0)
    var50 = ((thetas[:50] - mu50) ** 2).mean(axis=0)
    p_mean.data[:] = mu50
    p_log_var.data[:] = np.log(var50)
    backward(sum(
        (point_mass_term(Tensor(t), DiagGaussian(p_mean, p_log_var)) for t in thetas[:50]),
        start=dc.constant(0.0),
    ))
    np.testing.assert_allclose(p_mean.grad, 0.0, atol=1e-10)
    np.testing.assert_allclose(p_log_var.grad, 0.0, atol=1e-10)


def test_dimension_mismatch_errors():
    with pytest.raises(ShapeError):
        kl(standard(2), standard(3))
    with pytest.raises(ShapeError):
        posterior().draw(Tensor(np.zeros(2)), np.zeros(3))
    with pytest.raises(ShapeError):
        DiagGaussian(np.zeros(2), np.zeros(3))
