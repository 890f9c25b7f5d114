"""Distribution oracles: Monte-Carlo and quadrature checks of closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgmeta import diffcore as dc
from sgmeta.diffcore import ShapeError, Tensor, check_gradients, grad, param, zero_grad
from sgmeta.distributions import (
    DiagGaussian,
    dirac_prior_term,
    kl_diag_gaussian,
    kl_grad_wrt_mean,
    sample_reparam,
)


def standard(dim):
    return DiagGaussian(np.zeros(dim), np.zeros(dim))


def gaussian(mean, var):
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    var = np.atleast_1d(np.asarray(var, dtype=float))
    return DiagGaussian(mean, np.log(var))


def test_kl_identical_is_zero():
    q = standard(3)
    assert kl_diag_gaussian(q, standard(3)).item() == pytest.approx(0.0, abs=1e-15)


def test_kl_mean_shift():
    assert kl_diag_gaussian(gaussian(1.0, 1.0), gaussian(0.0, 1.0)).item() == pytest.approx(0.5)


def test_kl_variance_case_against_monte_carlo():
    # Closed form: 0.5 * (0.25 - 1 - ln 0.25) = 0.3181471805599453
    closed = kl_diag_gaussian(gaussian(0.0, 0.25), gaussian(0.0, 1.0)).item()
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


def test_sample_reparam_zero_noise_returns_mean():
    q = gaussian([1.0, -2.0], [4.0, 9.0])
    w = sample_reparam(q, np.zeros(2))
    np.testing.assert_array_equal(w.data, [1.0, -2.0])


def test_sample_reparam_mean_jacobian_is_identity():
    mean = param([0.3, -0.7])
    q = DiagGaussian(mean, Tensor([0.1, 0.2]))
    for i in range(2):
        zero_grad([mean])
        w = sample_reparam(q, np.array([0.5, -1.5]))
        (g,) = grad(dc.take_per_row(w.reshape(1, 2), [i]).sum(), [mean])
        expected = np.zeros(2)
        expected[i] = 1.0
        np.testing.assert_allclose(g, expected, atol=0)


def test_sample_reparam_moments_match():
    q = gaussian([1.0, -1.0], [0.25, 4.0])
    rng = np.random.default_rng(99)
    n = 1_000_000
    # vectorized equivalent of n calls to sample_reparam (spot-check a few)
    eps = rng.normal(size=(n, 2))
    draws = q.mean.data + np.exp(q.log_var.data / 2) * eps
    for row in eps[:3]:
        np.testing.assert_array_equal(
            sample_reparam(q, row).data, q.mean.data + np.exp(q.log_var.data / 2) * row
        )
    se_mean = np.sqrt(np.exp(q.log_var.data) / n)
    assert np.all(np.abs(draws.mean(axis=0) - q.mean.data) < 3 * se_mean)
    # variance of the sample variance for a Gaussian: 2 sigma^4 / (n - 1)
    se_var = np.sqrt(2 * np.exp(2 * q.log_var.data) / (n - 1))
    assert np.all(np.abs(draws.var(axis=0) - np.exp(q.log_var.data)) < 3 * se_var)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 5),
)
def test_kl_nonnegative_and_zero_iff_equal(seed, dim):
    rng = np.random.default_rng(seed)
    q = DiagGaussian(rng.normal(size=dim), rng.normal(size=dim))
    p = DiagGaussian(rng.normal(size=dim), rng.normal(size=dim))
    assert kl_diag_gaussian(q, p).item() >= -1e-12
    same = DiagGaussian(q.mean.data.copy(), q.log_var.data.copy())
    assert abs(kl_diag_gaussian(q, same).item()) <= 1e-12


def test_kl_gradient_wrt_mean_matches_finite_differences():
    rng = np.random.default_rng(42)
    mean = param(rng.normal(size=4))
    log_var = param(rng.normal(size=4) * 0.3)
    p = DiagGaussian(rng.normal(size=4), rng.normal(size=4) * 0.3)

    def f():
        return kl_diag_gaussian(DiagGaussian(mean, log_var), p)

    errors = check_gradients(f, [mean, log_var], h=1e-6, tol=1e-8)
    assert max(errors) < 1e-8


def test_kl_grad_closed_form_matches_autodiff():
    rng = np.random.default_rng(5)
    mean = param(rng.normal(size=3))
    p = DiagGaussian(rng.normal(size=3), rng.normal(size=3))
    q = DiagGaussian(mean, Tensor(np.full(3, -2.0)))
    (auto,) = grad(kl_diag_gaussian(q, p), [mean])
    closed = kl_grad_wrt_mean(mean, p)
    np.testing.assert_allclose(closed.data, auto, rtol=1e-12)


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
    rng = np.random.default_rng(8)
    theta = param(rng.normal(size=4))
    p_mean = param(rng.normal(size=4))
    p_log_var = param(np.zeros(4))

    def f():
        return dirac_prior_term(theta, DiagGaussian(p_mean, p_log_var))

    check_gradients(f, [theta, p_mean, p_log_var], h=1e-6, tol=1e-7)

    # Stationary prior given theta draws: mean of thetas, variance of spread.
    thetas = rng.normal(size=(500, 4)) * 2.0 + 1.0
    mu = thetas.mean(axis=0)
    var = ((thetas - mu) ** 2).mean(axis=0)
    zero_grad([p_mean, p_log_var])
    total = None
    for t in thetas[:50]:
        term = dirac_prior_term(Tensor(t), DiagGaussian(p_mean, p_log_var))
        total = term if total is None else total + term
    mu50 = thetas[:50].mean(axis=0)
    var50 = ((thetas[:50] - mu50) ** 2).mean(axis=0)
    p_mean.data[:] = mu50
    p_log_var.data[:] = np.log(var50)
    g_mu, g_lv = grad(
        sum(
            (dirac_prior_term(Tensor(t), DiagGaussian(p_mean, p_log_var)) for t in thetas[:50]),
            start=dc.constant(0.0),
        ),
        [p_mean, p_log_var],
    )
    np.testing.assert_allclose(g_mu, 0.0, atol=1e-10)
    np.testing.assert_allclose(g_lv, 0.0, atol=1e-10)


def test_dimension_mismatch_errors():
    with pytest.raises(ShapeError):
        kl_diag_gaussian(standard(2), standard(3))
    with pytest.raises(ShapeError):
        sample_reparam(standard(2), np.zeros(3))
    with pytest.raises(ShapeError):
        DiagGaussian(np.zeros(2), np.zeros(3))
