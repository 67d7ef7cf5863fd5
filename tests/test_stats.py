"""Tests for non-parametric statistics: quantiles, CDFs, Wasserstein-1,
Rician ML fit, DKW bands. Monte-Carlo checks use frozen seeds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statmap.errors import DegenerateInputError, InsufficientSamplesError
from statmap.stats import (
    EmpiricalDistribution,
    capacity_from_power,
    dkw_band,
    empirical_quantile,
    fit_rician_ml,
    wasserstein1,
)


def dist(samples):
    return EmpiricalDistribution.from_samples(samples)


def sample_rician(K, omega, n, rng):
    """n Rician envelope samples with Rician factor K and mean power omega."""
    nu = math.sqrt(K * omega / (1.0 + K))
    sigma = math.sqrt(omega / (2.0 * (1.0 + K)))
    return np.hypot(rng.normal(nu, sigma, size=n),
                    rng.normal(0.0, sigma, size=n))


# ---------------------------------------------------------------- capacity

def test_capacity_zero_power():
    assert capacity_from_power(0.0, 1.0) == 0.0


def test_capacity_unit_snr():
    assert capacity_from_power(1.0, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_capacity_snr_three():
    assert capacity_from_power(3.0, 1.0) == pytest.approx(2.0, abs=1e-15)


def test_capacity_rejects_bad_noise():
    with pytest.raises(ValueError):
        capacity_from_power(1.0, 0.0)
    with pytest.raises(ValueError):
        capacity_from_power(1.0, -1.0)


# ---------------------------------------------------------------- quantile

def test_quantile_order_statistic():
    d = dist(np.arange(1, 101))
    assert empirical_quantile(d, 0.05) == 5.0


def test_quantile_constant_samples():
    d = dist(np.full(200, 3.25))
    for eps in (0.01, 0.1, 0.5, 0.9):
        assert empirical_quantile(d, eps) == 3.25


def test_quantile_requires_enough_samples():
    d = dist(np.arange(100))
    with pytest.raises(InsufficientSamplesError) as exc:
        empirical_quantile(d, 0.01)  # n must exceed 1/eps = 100
    assert exc.value.required == 101
    # one more sample is admissible: k = ceil(1.01) = 2
    assert empirical_quantile(dist(np.arange(101)), 0.01) == 1.0


def test_quantile_float_fuzz_at_integer_index():
    # 0.05 * 100 is slightly above 5 in floating point; index must stay 5
    d = dist(np.arange(1, 101))
    assert empirical_quantile(d, 0.05) == 5.0
    assert empirical_quantile(dist(np.arange(1, 1001)), 0.002) == 2.0


def test_quantile_mean_matches_order_statistic_oracle():
    # k-th order statistic of n uniforms has mean k/(n+1); here k=2, n=1000
    rng = np.random.default_rng(7)
    n, eps, reps = 1000, 2e-3, 10_000
    u = rng.random((reps, n))
    u.sort(axis=1)
    vals = u[:, 1]  # oracle: direct 2nd order statistic per replication
    est = np.mean([
        empirical_quantile(dist(u[i]), eps) for i in range(0, reps, 250)
    ])
    oracle = 2.0 / (n + 1)
    assert abs(np.mean(vals) - oracle) < 0.1 * oracle
    assert abs(est - oracle) < 0.1 * oracle


@given(
    eps1=st.floats(min_value=0.02, max_value=0.5),
    eps2=st.floats(min_value=0.02, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=60, deadline=None)
def test_quantile_monotone_in_epsilon(eps1, eps2, seed):
    d = dist(np.random.default_rng(seed).normal(size=128))
    lo, hi = sorted((eps1, eps2))
    assert empirical_quantile(d, lo) <= empirical_quantile(d, hi)


def test_quantile_equivariant_under_increasing_transform():
    rng = np.random.default_rng(3)
    x = rng.exponential(size=500)
    d = dist(x)
    for eps in (0.01, 0.1, 0.3):
        q = empirical_quantile(d, eps)
        assert empirical_quantile(dist(np.log1p(x)), eps) == np.log1p(q)
        assert empirical_quantile(dist(3.0 * x - 1.0), eps) == 3.0 * q - 1.0


def test_capacity_quantile_commutes_exactly():
    rng = np.random.default_rng(11)
    p = rng.exponential(size=700)
    noise = 0.35
    eps = 0.02
    q_power = empirical_quantile(dist(p), eps)
    q_cap = empirical_quantile(dist(capacity_from_power(p, noise)), eps)
    assert q_cap == capacity_from_power(q_power, noise)


# ---------------------------------------------------------------- CDF

def test_cdf_two_samples():
    d = dist([2.0, 1.0])
    assert d.sorted_samples.tolist() == [1.0, 2.0]
    assert d.cdf([0.5, 1.0, 1.5, 2.0, 2.5]).tolist() == [0.0, 0.5, 0.5, 1.0,
                                                         1.0]


def test_cdf_max_is_one():
    d = dist(np.random.default_rng(0).normal(size=57))
    assert float(d.cdf(d.sorted_samples[-1])) == 1.0
    np.testing.assert_array_equal(d.cdf(d.sorted_samples),
                                  np.arange(1, 58) / 57)


def test_cdf_within_dkw_band_of_exponential():
    rng = np.random.default_rng(21)
    n = 1_000_000
    d = dist(rng.exponential(size=n))
    band = dkw_band(n, 0.99)
    truth = 1.0 - math.exp(-1.0)
    assert abs(float(d.cdf(1.0)) - truth) < band


# ---------------------------------------------------------------- W1

def test_w1_identical_multisets():
    a = dist([3.0, 1.0, 2.0])
    b = dist([1.0, 2.0, 3.0])
    assert wasserstein1(a, b) == 0.0


def test_w1_singletons():
    assert wasserstein1(dist([2.5]), dist([-1.0])) == 3.5


def quantile_integral_oracle(a, b, grid=1_000_000):
    """Discretized integral of |Fa^-1(u) - Fb^-1(u)| du."""
    u = (np.arange(grid) + 0.5) / grid
    xa = a.sorted_samples[np.minimum(np.ceil(u * a.n).astype(int), a.n) - 1]
    xb = b.sorted_samples[np.minimum(np.ceil(u * b.n).astype(int), b.n) - 1]
    return float(np.mean(np.abs(xa - xb)))


def test_w1_unequal_sizes_against_grid_oracle():
    a = dist([0.0, 2.0])
    b = dist([1.0])
    assert wasserstein1(a, b) == pytest.approx(1.0, abs=1e-12)
    assert quantile_integral_oracle(a, b) == pytest.approx(1.0, abs=1e-5)

    rng = np.random.default_rng(5)
    for _ in range(10):
        a = dist(rng.normal(size=rng.integers(1, 40)))
        b = dist(rng.normal(size=rng.integers(1, 40)))
        assert wasserstein1(a, b) == pytest.approx(
            quantile_integral_oracle(a, b), abs=2e-5)


def test_w1_matches_scipy():
    from scipy.stats import wasserstein_distance

    rng = np.random.default_rng(17)
    for _ in range(20):
        x = rng.normal(size=rng.integers(1, 200))
        y = rng.normal(size=rng.integers(1, 200))
        assert wasserstein1(dist(x), dist(y)) == pytest.approx(
            wasserstein_distance(x, y), rel=1e-10, abs=1e-12)


def test_w1_metric_properties():
    rng = np.random.default_rng(23)
    sets = [dist(rng.normal(size=rng.integers(2, 30))) for _ in range(40)]
    idx = rng.integers(0, len(sets), size=(1000, 3))
    for i, j, k in idx:
        dij = wasserstein1(sets[i], sets[j])
        assert dij == wasserstein1(sets[j], sets[i])  # symmetry exact
        dik = wasserstein1(sets[i], sets[k])
        dkj = wasserstein1(sets[k], sets[j])
        assert dij <= dik + dkj + 1e-12  # triangle inequality
    # zero iff equal multisets
    x = rng.normal(size=25)
    assert wasserstein1(dist(x), dist(x.copy())) == 0.0
    y = x.copy()
    y[0] += 0.5
    assert wasserstein1(dist(x), dist(y)) > 0.0


# ---------------------------------------------------------------- Rician

def test_rician_sampler_moment_identities():
    # E[R^2] = omega, E[R^4] = omega^2 (K^2 + 4K + 2) / (1+K)^2
    rng = np.random.default_rng(101)
    K, omega = 4.0, 1.7
    r = sample_rician(K, omega, 2_000_000, rng)
    m2 = np.mean(r**2)
    m4 = np.mean(r**4)
    assert m2 == pytest.approx(omega, rel=5e-3)
    assert m4 == pytest.approx(omega**2 * (K * K + 4 * K + 2) / (1 + K) ** 2,
                               rel=2e-2)


def test_rician_fit_recovers_parameters():
    rng = np.random.default_rng(42)
    r = sample_rician(4.0, 1.0, 1_000_000, rng)
    fit = fit_rician_ml(r)
    assert fit.K == pytest.approx(4.0, rel=0.05)
    assert fit.omega == pytest.approx(1.0, rel=0.01)


def test_rician_fit_rayleigh_limit():
    rng = np.random.default_rng(43)
    r = sample_rician(0.0, 2.0, 200_000, rng)
    fit = fit_rician_ml(r)
    assert fit.K < 0.05


def test_rician_fit_rejects_constant_samples():
    with pytest.raises(DegenerateInputError):
        fit_rician_ml(np.full(500, 1.3))


def test_rician_power_cdf_consistency():
    # fitted CDF should match an MC estimate from the sampler
    rng = np.random.default_rng(44)
    fit = fit_rician_ml(sample_rician(2.0, 1.0, 400_000, rng))
    r = sample_rician(fit.K, fit.omega, 2_000_000, np.random.default_rng(45))
    p = np.sort(r * r)
    for y in (0.05, 0.2, 1.0):
        mc = np.searchsorted(p, y) / p.size
        assert float(fit.power_cdf(y)) == pytest.approx(mc, abs=2e-3)


# ---------------------------------------------------------------- DKW

def test_dkw_algebraic_inversion():
    eps = 0.07
    n = math.log(2.0 / 0.5) / (2 * eps * eps)
    # n is rounded to an integer, which perturbs the band slightly
    assert dkw_band(int(round(n)), 0.5) == pytest.approx(eps, rel=5e-3)


def test_dkw_vanishes():
    assert dkw_band(10**12, 0.99) < 2e-6


def test_dkw_high_precision_value():
    import mpmath

    got = dkw_band(1_000_000, 0.99)
    want = float(mpmath.sqrt(mpmath.log(2 / mpmath.mpf("0.01")) / (2 * 10**6)))
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(1.6276e-3, abs=1e-6)


# ---------------------------------------------------------------- estimates

def test_outage_capacity_estimate_validation():
    # n * eps <= 1 is refused; one sample more is admitted
    with pytest.raises(InsufficientSamplesError):
        empirical_quantile(dist(np.ones(1000)), 0.001)
    assert empirical_quantile(dist(np.ones(1001)), 0.001) == 1.0
