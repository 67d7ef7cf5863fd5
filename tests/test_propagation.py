"""Tests for the synthetic propagation environment: random-field statistics,
Thomas sampling, power/CSI draws, and the capacity oracle."""

import functools
import math

import numpy as np
import pytest
from scipy.stats import spearmanr

from statmap.errors import ConfigurationError, NumericalError
from statmap.harness import DEMO_AMPLITUDES
from statmap.propagation import (
    KLUYVER_CONVERGENCE_TOL,
    KLUYVER_FIRST_TERMS,
    KLUYVER_TERMS,
    KLUYVER_ROOT_TOL,
    CosineField,
    Location,
    PointProcessConfig,
    Scenario,
    ScenarioConfig,
    draw_csi,
    draw_power_samples,
    generate_scenario,
    multipath_power_cdf,
    multipath_power_samples,
    sample_locations_thomas,
    true_outage_capacities,
    _illinois,
    _j0_products,
    _kluyver_cdf,
    _kluyver_grid,
    _kluyver_quantiles,
)
from statmap.stats import (
    EmpiricalDistribution,
    capacity_from_power,
    dkw_band,
    empirical_quantile,
    wasserstein1,
)

LOC = Location(20.0, -35.0, 1.5)
BANDWIDTH = 5e6     # the CSI grid's bandwidth, Hz


def make_scenario(seed=1, **overrides):
    return generate_scenario(ScenarioConfig(**overrides), seed)


def path_power_sum(s):
    """Mean single-antenna received power at LOC: the sum of a_p^2."""
    return float(np.sum(s.path_amplitudes(LOC.as_array()) ** 2))


def oracle_truth(s, loc, eps, rates, oracle_seed, outage_seed):
    """The oracle's truth at one location: a block of one."""
    (truth,) = true_outage_capacities(s, [loc], eps, [rates], [oracle_seed],
                                      [outage_seed])
    return truth


def oracle_capacity(s, eps, seed):
    """The oracle's eps-outage capacity at LOC, with no rates to measure."""
    return oracle_truth(s, LOC, eps, (), seed, 0)[0]


def exact_quantile(amplitudes, level):
    """The exact oracle's search for one amplitude row: its root (NaN where
    no series converges) and its J0 products on the series it settled on."""
    a = np.asarray(amplitudes, dtype=float)
    roots, ((_, weighted),) = _kluyver_quantiles((a / a.sum())[None], level)
    return roots[0], weighted


def exact_root(s, loc, eps):
    return exact_quantile(s.path_amplitudes(loc.as_array())[0], eps)[0]


@functools.lru_cache(maxsize=None)
def series(n_terms):
    """The n_terms series, whose zeros of J0 take ~20 ms at 16384 terms."""
    return _kluyver_grid(n_terms)


def j0_row(amplitudes, n_terms):
    """One amplitude row's J0 products on the n_terms series."""
    a = np.asarray(amplitudes, dtype=float)
    return _j0_products((a / a.sum())[None], *series(n_terms))


def cdf_at(weighted, radii):
    """(values, spreads) of one row's Kluyver CDF at radii, from its J0
    products on a series of weighted.shape[1] terms."""
    values, spreads = _kluyver_cdf(np.atleast_1d(radii)[None],
                                   series(weighted.shape[1])[0], weighted)
    return values[0], spreads[0]


def mc_truth(s, loc, eps, rates, oracle_n, n_mc, oracle_seed, outage_seed):
    """The Monte-Carlo oracle written out: eps-quantile of oracle_n capacity
    draws, outage as the fraction of n_mc draws below each rate."""
    noise = s.config.noise_power
    oracle = capacity_from_power(
        draw_power_samples(s, loc, oracle_n, oracle_seed), noise)
    true_c = empirical_quantile(EmpiricalDistribution.from_samples(oracle), eps)
    caps = capacity_from_power(draw_power_samples(s, loc, n_mc, outage_seed),
                               noise)
    return true_c, [float(np.count_nonzero(caps < r)) / caps.size
                    for r in rates]


# ---------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ConfigurationError):
        ScenarioConfig(num_paths=0)
    with pytest.raises(ConfigurationError):
        ScenarioConfig(shadowing_decorrelation_m=-1.0)
    with pytest.raises(ConfigurationError):
        ScenarioConfig(field_components=0)
    with pytest.raises(ConfigurationError):
        Location(0.0, 0.0, -2.0)


# ---------------------------------------------------------------- fields

def test_scenario_deterministic_bit_exact():
    a = make_scenario(seed=1)
    b = make_scenario(seed=1)
    pts = np.array([[0.0, 0.0, 1.5], [33.3, -71.2, 1.5]])
    np.testing.assert_array_equal(a.path_amplitudes(pts), b.path_amplitudes(pts))
    np.testing.assert_array_equal(a.path_angles(pts), b.path_angles(pts))
    np.testing.assert_array_equal(
        draw_power_samples(a, LOC, 64, sample_seed=9),
        draw_power_samples(b, LOC, 64, sample_seed=9))
    # different seed decorrelates
    c = make_scenario(seed=2)
    assert not np.array_equal(a.path_amplitudes(pts), c.path_amplitudes(pts))


def test_field_correlation_at_decorrelation_distance():
    # Monte-Carlo correlogram over 2e4 independent field draws: the ensemble
    # correlation at d = decorrelation length must be close to exp(-1).
    rng = np.random.default_rng(77)
    decorr = 40.0
    pts = np.array([[0.0, 0.0], [decorr, 0.0]])
    draws = np.empty((20_000, 2))
    for i in range(draws.shape[0]):
        draws[i] = CosineField(1.7, decorr, 8, rng).evaluate(pts)
    corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
    assert abs(corr - math.exp(-1.0)) < 0.05


def test_single_component_field_spatial_variance():
    # M=1: field is one cosine; spatial variance equals the configured variance
    std = 1.3
    f = CosineField(std, 25.0, 1, np.random.default_rng(5))
    k = np.linalg.norm(f.wavevectors[0])
    span = 400.0 * np.pi / max(k, 1e-6)  # many periods along the wavevector
    t = np.linspace(0.0, span, 200_001)
    direction = f.wavevectors[0] / max(k, 1e-12)
    vals = f.evaluate(np.outer(t, direction))
    assert np.var(vals) == pytest.approx(std * std, rel=0.03)


def test_field_zero_mean_and_variance():
    rng = np.random.default_rng(11)
    vals = np.array([CosineField(2.0, 30.0, 16, rng).evaluate([[3.0, 4.0]])[0]
                     for _ in range(20_000)])
    assert abs(np.mean(vals)) < 0.05
    assert np.var(vals) == pytest.approx(4.0, rel=0.05)


def test_field_values_do_not_depend_on_how_many_points_share_the_call():
    # so a location's amplitudes, and the oracle's truth there, are the same
    # in any block of locations
    s = make_scenario(seed=1)
    xy = np.random.default_rng(12).uniform(-100.0, 100.0, (300, 2))
    for f in (s.shadow_field,) + s.path_amp_fields + s.angle_fields:
        assert np.array_equal(f.evaluate(xy),
                              [f.evaluate(point)[0] for point in xy])
    locs = np.column_stack([xy, np.full(len(xy), 1.5)])
    assert np.array_equal(s.path_amplitudes(locs),
                          [s.path_amplitudes(loc)[0] for loc in locs])


@pytest.mark.parametrize("antennas", [1, 2])
def test_draws_from_batched_rays_equal_per_location_draws(antennas):
    s = make_scenario(seed=13, num_antennas=antennas)
    xy = np.random.default_rng(36).uniform(-100.0, 100.0, (60, 2))
    locs = [Location(float(x), float(y), 1.5) for x, y in xy]
    rays = s.path_rays(locs)
    assert len(rays) == len(locs)
    for i, (loc, (a, theta)) in enumerate(zip(locs, rays)):
        assert a.tobytes() == s.path_amplitudes(loc.as_array())[0].tobytes()
        assert theta.tobytes() == s.path_angles(loc.as_array())[0].tobytes()
        assert draw_power_samples(s, loc, 200, i, (a, theta)).tobytes() == \
            draw_power_samples(s, loc, 200, i).tobytes()
        assert draw_csi(s, loc, i, antennas, 4, BANDWIDTH,
                        (a, theta)).tobytes() == \
            draw_csi(s, loc, i, antennas, 4, BANDWIDTH).tobytes()


def test_draws_from_batched_rays_still_refuse_a_location_outside_the_cell():
    s = make_scenario(seed=1)
    outside = Location(500.0, 0.0, 1.5)
    (rays,) = s.path_rays([outside])
    with pytest.raises(ValueError, match="outside the cell"):
        draw_power_samples(s, outside, 4, 0, rays)
    with pytest.raises(ValueError, match="outside the cell"):
        draw_csi(s, outside, 0, 1, 1, BANDWIDTH, rays)


# ---------------------------------------------------------------- thomas

def test_thomas_zero_spread_offspring_on_parents():
    pp = PointProcessConfig(parent_intensity=1.5e-4, mean_cluster_size=30.0,
                            offspring_std=0.0)
    locs = sample_locations_thomas(pp, (-100, 100, -100, 100), 1.5, seed=4)
    assert len(locs) > 30
    assert all(l.z == 1.5 for l in locs)
    xy = np.array([[l.x, l.y] for l in locs])
    uniq = np.unique(xy, axis=0)
    # every offspring sits exactly on a parent, so positions collapse
    assert uniq.shape[0] < len(locs) / 5
    counts = [np.sum(np.all(xy == u, axis=1)) for u in uniq]
    assert max(counts) > 1


def test_thomas_mean_count_matches_intensity():
    # lambda_p * mu * |A| = 500; offspring_std=0 avoids boundary clipping
    pp = PointProcessConfig(parent_intensity=5e-4, mean_cluster_size=25.0,
                            offspring_std=0.0)
    bounds = (-100, 100, -100, 100)
    counts = [len(sample_locations_thomas(pp, bounds, 1.5, seed=s))
              for s in range(1000)]
    assert abs(np.mean(counts) - 500.0) < 25.0


def test_thomas_clustering_exceeds_poisson_ripley_k():
    pp = PointProcessConfig(parent_intensity=5e-4, mean_cluster_size=25.0,
                            offspring_std=5.0)
    bounds = (-100, 100, -100, 100)
    locs = sample_locations_thomas(pp, bounds, 1.5, seed=12)
    xy = np.array([[l.x, l.y] for l in locs])
    n = len(xy)
    r = 2 * pp.offspring_std

    def ripley_k(points, radius):
        d2 = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=-1)
        close = np.count_nonzero(d2 <= radius * radius) - len(points)
        return 4e4 * close / (len(points) * (len(points) - 1))

    k_thomas = ripley_k(xy, r)
    # homogeneous Poisson oracle with the same point count
    rng = np.random.default_rng(13)
    uniform = rng.uniform(-100, 100, size=(n, 2))
    k_poisson = ripley_k(uniform, r)
    assert k_thomas > 2 * math.pi * r * r
    assert k_thomas > 2 * k_poisson
    assert k_poisson < 2 * math.pi * r * r  # sanity: oracle near pi r^2


def test_thomas_empty_result_is_allowed():
    pp = PointProcessConfig(parent_intensity=1e-9, mean_cluster_size=1.0,
                            offspring_std=1.0)
    locs = sample_locations_thomas(pp, (-10, 10, -10, 10), 1.5, seed=0)
    assert locs == []


# ---------------------------------------------------------------- channel

def test_single_path_siso_has_constant_magnitude():
    s = make_scenario(seed=6, num_paths=1)
    a1 = s.path_amplitudes(LOC.as_array())[0, 0]
    for seed in range(5):    # one antenna, one subcarrier
        h = draw_csi(s, LOC, seed, 1, 1, BANDWIDTH)[:, 0]
        assert h.shape == (1,)
        assert abs(abs(h[0]) - a1) < 1e-12 * a1


def test_mean_power_matches_sum_of_squared_amplitudes():
    s = make_scenario(seed=7)
    p = draw_power_samples(s, LOC, 100_000, sample_seed=0)
    expect = path_power_sum(s)
    assert np.mean(p) == pytest.approx(expect, rel=0.01)


def test_mrc_power_two_antennas_single_path():
    s = make_scenario(seed=8, num_paths=1, num_antennas=2)
    a1 = s.path_amplitudes(LOC.as_array())[0, 0]
    p = draw_power_samples(s, LOC, 50, sample_seed=3)
    # single path: per-antenna magnitudes are both a1, so MRC power is 2*a1^2
    assert np.allclose(p, 2.0 * a1 * a1, rtol=1e-12)


def complex_exp_draws(s, loc, n, sample_seed):
    """draw_power_samples written with the complex exponential."""
    a = s.path_amplitudes(loc.as_array())[0]
    theta = s.path_angles(loc.as_array())[0]
    steering = np.exp(-1j * math.pi * np.outer(
        np.sin(theta), np.arange(s.config.num_antennas)))
    phases = s._phase_rng(loc, "power", sample_seed).uniform(
        0.0, 2.0 * math.pi, (n, a.size))
    h = (a * np.exp(1j * phases)) @ steering
    return np.sum(np.abs(h) ** 2, axis=1)


def complex_exp_csi(s, loc, sample_seed, antennas, subcarriers):
    """draw_csi written with the complex exponential."""
    a, steering = s._geometry(loc, antennas)
    phases = s._phase_rng(loc, "csi", sample_seed).uniform(
        0.0, 2.0 * math.pi, a.size)
    freqs = BANDWIDTH / subcarriers * np.arange(subcarriers)
    ramps = np.exp(-1j * 2.0 * math.pi * np.outer(s.delays, freqs))
    return np.einsum("p,pa,ps->as", a * np.exp(1j * phases), steering, ramps)


@pytest.mark.parametrize("antennas", [1, 2])
def test_power_draws_equal_complex_exponential_bit_for_bit(antennas):
    # power draws and CSI snapshots share one phasor kernel
    s = make_scenario(seed=11, num_antennas=antennas)
    for i, loc in enumerate([LOC, Location(-60.0, 80.0), Location(99.0, 5.0)]):
        got = draw_power_samples(s, loc, 10_000, sample_seed=i)
        assert got.tobytes() == complex_exp_draws(s, loc, 10_000, i).tobytes()
        assert draw_csi(s, loc, i, antennas, 4, BANDWIDTH).tobytes() == \
            complex_exp_csi(s, loc, i, antennas, 4).tobytes()


def test_multipath_samples_equal_complex_exponential_bit_for_bit():
    from statmap.harness import DEMO_AMPLITUDES

    a = np.asarray(DEMO_AMPLITUDES)
    got = multipath_power_samples(a, 100_000, np.random.default_rng(12))
    phases = np.random.default_rng(12).uniform(0.0, 2.0 * math.pi,
                                               (100_000, a.size))
    want = np.abs((a * np.exp(1j * phases)).sum(axis=1)) ** 2
    assert got.tobytes() == want.tobytes()


def test_equal_seven_paths_near_exponential_with_tail_deficit():
    # Parametric-mismatch phenomenon: bulk close to exponential, deep tail departs.
    # Thresholds calibrated against a 1e7-sample run (tail ratio ~0.93).
    rng = np.random.default_rng(123)
    a = np.ones(7) / math.sqrt(7.0)
    n = 4_000_000
    s = np.sort(multipath_power_samples(a, n, rng))
    grid = np.linspace(0.05, 3.0, 200)
    bulk_dev = np.max(np.abs(np.searchsorted(s, grid) / n - (1 - np.exp(-grid))))
    assert bulk_dev < 0.025
    q_tail = -math.log1p(-1e-3)  # exponential oracle quantile at 1e-3
    tail_ratio = (np.searchsorted(s, q_tail) / n) / 1e-3
    assert 0.84 < tail_ratio < 0.98
    # the relative deviation grows toward the tail
    q_mid = -math.log1p(-0.5)
    mid_ratio = (np.searchsorted(s, q_mid) / n) / 0.5
    assert abs(1 - tail_ratio) > abs(1 - mid_ratio)


def test_location_outside_cell_rejected():
    s = make_scenario(seed=1)
    with pytest.raises(ValueError):
        draw_power_samples(s, Location(500.0, 0.0, 1.5), 4, sample_seed=0)
    with pytest.raises(ValueError, match="outside the cell"):   # exact oracle
        oracle_truth(s, Location(500.0, 0.0, 1.5), 0.01, (), 0, 0)


# ---------------------------------------------------------------- CSI

def test_csi_shape_and_determinism():
    s = make_scenario(seed=9)
    c1 = draw_csi(s, LOC, 5, 4, 16, BANDWIDTH)
    c2 = draw_csi(s, LOC, 5, 4, 16, BANDWIDTH)
    assert c1.shape == (4, 16)
    np.testing.assert_array_equal(c1, c2)
    c3 = draw_csi(s, LOC, 6, 4, 16, BANDWIDTH)
    assert not np.array_equal(c1, c3)


def test_csi_frobenius_norm_distribution_stable_across_seeds():
    s = make_scenario(seed=10)
    expect = 4 * 8 * path_power_sum(s)
    means = []
    for offset in (0, 10_000):
        sq = [np.sum(np.abs(draw_csi(s, LOC, offset + i, 4, 8,
                                     BANDWIDTH)) ** 2)
              for i in range(1000)]
        means.append(np.mean(sq))
    assert means[0] == pytest.approx(expect, rel=0.1)
    assert means[1] == pytest.approx(expect, rel=0.1)
    assert means[0] == pytest.approx(means[1], rel=0.15)


def test_csi_single_path_is_rank_one():
    s = make_scenario(seed=11, num_paths=1)
    c = draw_csi(s, LOC, 1, 6, 12, BANDWIDTH)
    sv = np.linalg.svd(c, compute_uv=False)
    assert sv[1] < 1e-10 * sv[0]


# ---------------------------------------------------------------- oracles

def test_true_outage_capacity_deterministic_channel():
    s = make_scenario(seed=12, num_paths=1)
    a1 = s.path_amplitudes(LOC.as_array())[0, 0]
    # the fields do not depend on the noise: SNR exactly 1
    s_unit = make_scenario(seed=12, num_paths=1, noise_power=float(a1 * a1))
    for eps in (0.001, 0.01, 0.2):
        # one path fails the series' convergence test: Monte Carlo
        assert np.isnan(exact_root(s_unit, LOC, eps))
        c = oracle_capacity(s_unit, eps, seed=0)
        assert c == pytest.approx(1.0, abs=1e-12)
        c = mc_truth(s_unit, LOC, eps, (), 200_000, 1, 0, 0)[0]
        assert c == pytest.approx(1.0, abs=1e-12)


def test_true_outage_capacity_monotone_in_epsilon():
    s = make_scenario(seed=13)
    c1 = oracle_capacity(s, 0.01, seed=5)
    c2 = oracle_capacity(s, 0.05, seed=5)
    assert c1 <= c2
    c1 = mc_truth(s, LOC, 0.01, (), 100_000, 1, 5, 0)[0]
    c2 = mc_truth(s, LOC, 0.05, (), 100_000, 1, 5, 0)[0]
    assert c1 <= c2


def test_rayleigh_limit_many_equal_paths():
    # 64 equal paths: power is near-exponential, so the eps-quantile of the
    # SNR approaches mean_snr * (-ln(1-eps))
    s = make_scenario(seed=14, num_paths=64, path_weight_decay=0.0,
                      path_amp_field_std_db=0.0, field_components=32)
    snr_mean = path_power_sum(s) / s.config.noise_power
    eps = 1e-2
    want = math.log2(1.0 + snr_mean * (-math.log1p(-eps)))
    got = oracle_capacity(s, eps, seed=3)
    assert got == pytest.approx(want, rel=0.05)
    got = mc_truth(s, LOC, eps, (), 200_000, 1, 3, 0)[0]
    assert got == pytest.approx(want, rel=0.05)


def test_true_outage_capacity_outage_edges():
    s = make_scenario(seed=15)
    a = s.path_amplitudes(LOC.as_array())[0]
    max_rate = math.log2(1.0 + float(np.sum(a)) ** 2 / s.config.noise_power)
    rates = (0.0, max_rate + 1.0)
    assert oracle_truth(s, LOC, 0.1, rates, 0, 0)[1] == [0.0, 1.0]
    assert mc_truth(s, LOC, 0.1, rates, 1000, 1000, 0, 0)[1] == [0.0, 1.0]


def test_true_outage_capacity_outage_at_capacity():
    s = make_scenario(seed=16)
    eps = 1e-2
    ci = 2.576 * math.sqrt(eps * (1 - eps) / 1_000_000)
    c = oracle_capacity(s, eps, seed=21)
    again, (out,) = oracle_truth(s, LOC, eps, (c,), 21, 22)
    assert again == c
    assert abs(out - eps) < ci
    c = mc_truth(s, LOC, eps, (), 1_000_000, 1, 21, 0)[0]
    again, (out,) = mc_truth(s, LOC, eps, (c,), 1_000_000, 1_000_000, 21, 22)
    assert again == c
    assert abs(out - eps) < ci


# ---------------------------------------------------------------- exact oracle
# With one antenna the oracle evaluates the Kluyver CDF of the received
# magnitude; Monte Carlo remains the reference it is checked against.

LEVELS = (1e-3, 1e-2, 1e-1)
# default 7-path scenario: mid-cell, far corner, next to the BS, cell edge
EXACT_LOCATIONS = (LOC, Location(-60.0, 70.0, 1.5), Location(90.0, 90.0, 1.5),
                   Location(-95.0, -5.0, 1.5))


def amplitude_cases():
    s = make_scenario(seed=1)
    cases = [pytest.param(
        s.path_amplitudes(loc.as_array())[0],
        lambda n, loc=loc: np.sqrt(draw_power_samples(s, loc, n, 31)),
        id=f"scenario{i}") for i, loc in enumerate(EXACT_LOCATIONS)]
    demo = np.asarray(DEMO_AMPLITUDES)
    cases.append(pytest.param(demo, lambda n: np.sqrt(multipath_power_samples(
        demo, n, np.random.default_rng(32))), id="demo"))
    return cases


@pytest.mark.parametrize("amplitudes, draw", amplitude_cases())
def test_exact_cdf_inside_dkw_band_of_monte_carlo(amplitudes, draw):
    n = 1_000_000
    mc = EmpiricalDistribution.from_samples(draw(n) / np.sum(amplitudes))
    band = dkw_band(n, 0.99)
    grids = []
    for level in LEVELS:
        r, weighted = exact_quantile(amplitudes, level)
        assert not np.isnan(r)
        grids.append(weighted)
        emp = float(mc.cdf(r))
        assert abs(emp - level) < band
        # pointwise, the binomial spread is far tighter than the band
        assert abs(emp - level) < 4.0 * math.sqrt(level * (1 - level) / n)
    # and across the whole support, at the sample's own deciles, on the
    # largest grid the searches needed
    deciles = np.quantile(mc.sorted_samples, np.linspace(0.1, 0.9, 9))
    widest = max(grids, key=lambda weighted: weighted.shape[1])
    assert np.max(np.abs(cdf_at(widest, deciles)[0]
                         - mc.cdf(deciles))) < band


@pytest.mark.parametrize("amplitudes, draw", amplitude_cases())
def test_kluyver_quadrature_converges(amplitudes, draw):
    # the series the oracle settles on (128 terms, doubled up to 1024 as its
    # convergence test needs) against 16384 terms: the quantile found on the
    # first series is the quantile on the second one to the tolerance of
    # the oracle's own convergence test
    fine = j0_row(amplitudes, 16384)
    for level in LEVELS:
        r = exact_quantile(amplitudes, level)[0]
        assert abs(cdf_at(fine, r)[0][0] - level) <= \
            KLUYVER_CONVERGENCE_TOL * level


@pytest.mark.parametrize("n", [KLUYVER_FIRST_TERMS, 2 * KLUYVER_FIRST_TERMS])
def test_kluyver_grid_is_a_prefix_of_the_largest(n):
    # so a growing CDF computes J0 at the new zeros only
    small, largest = _kluyver_grid(n), _kluyver_grid(KLUYVER_TERMS)
    for part, whole in zip(small, largest):
        assert np.array_equal(part, whole[:n])


@pytest.mark.parametrize("amplitudes, level, terms", [
    ([1.0, 0.7, 0.6], 1e-2, 2 * KLUYVER_FIRST_TERMS),
    ([1.0, 0.55, 0.5], 1e-3, KLUYVER_TERMS),
])
def test_grown_grid_finds_the_root_of_a_grid_built_at_its_size(
        amplitudes, level, terms):
    r, grown = exact_quantile(amplitudes, level)
    assert grown.shape[1] == terms     # no shorter series converged
    built = j0_row(amplitudes, terms)
    assert r == _illinois(_kluyver_grid(terms)[0], built, level)[0]
    assert np.array_equal(cdf_at(grown, r), cdf_at(built, r))


def test_power_cdf_refuses_a_profile_whose_quadrature_fails():
    # two paths: the power's support starts at (1 - 0.5)^2 with a hard edge,
    # and next to it the series does not converge even on all its terms
    a = (1.0, 0.5)
    inside = multipath_power_cdf(a, [0.3, 1.25, 2.2])
    assert np.all(np.diff(inside) > 0) and 0.0 < inside[0] < inside[-1] < 1.0
    for edge in (0.25, 0.2505):
        with pytest.raises(NumericalError, match=rf"^Kluyver CDF of amplitudes "
                           rf"\[1.0, 0.5\] has not converged at power {edge}$"):
            multipath_power_cdf(a, [0.3, edge, 1.25])


def test_power_cdf_is_exactly_0_at_0_and_1_from_the_peak_power_up():
    # the series holds on the support only; beyond it the CDF is 1
    a = np.asarray(DEMO_AMPLITUDES)
    peak = a.sum() ** 2
    assert multipath_power_cdf(
        a, [0.0, peak, 1.01 * peak, 2.0 * peak, 100.0 * peak]).tolist() == \
        [0.0, 1.0, 1.0, 1.0, 1.0]


def test_no_grid_up_to_the_largest_converges_for_a_dominant_path():
    r, weighted = exact_quantile([1.0, 0.5, 0.3], 1e-3)
    assert np.isnan(r)
    assert weighted.shape[1] == KLUYVER_TERMS


def test_first_grid_roots_hold_on_a_fine_grid():
    # the roots of the default 7-path channels, almost all found on the
    # first series, are roots of the 16384-term CDF to 1e-3 of eps
    s = make_scenario(seed=1)
    xy = np.random.default_rng(33).uniform(-100.0, 100.0, (200, 2))
    cases = [case.values[0] for case in amplitude_cases()]
    cases += list(s.path_amplitudes(np.column_stack([xy, np.full(200, 1.5)])))
    for amplitudes in cases:
        fine = j0_row(amplitudes, 16384)
        for level in LEVELS:
            r = exact_quantile(amplitudes, level)[0]
            assert abs(cdf_at(fine, r)[0][0] - level) <= 1e-3 * level


def two_path_cdf(a1, a2, r):
    """P(|a1 + a2 e^{j phi}| <= r) for uniform phi, in closed form."""
    cos_phi = (r * r - a1 * a1 - a2 * a2) / (2.0 * a1 * a2)
    return 1.0 - math.acos(min(1.0, max(-1.0, cos_phi))) / math.pi


@pytest.mark.parametrize("ratio", [0.2, 0.5, 0.8, 0.95])
def test_convergence_test_admits_only_accurate_two_path_quantiles(ratio):
    # two paths are the hardest case (a square-root edge in the CDF); where
    # the series passes its own convergence test it must be right
    a = np.array([1.0, ratio]) / (1.0 + ratio)
    for level in LEVELS:
        r = exact_quantile(a, level)[0]
        if not np.isnan(r):
            assert abs(two_path_cdf(*a, r) - level) <= \
                KLUYVER_CONVERGENCE_TOL * level
    assert np.isnan(exact_quantile(a, 1e-3)[0])


@pytest.mark.parametrize("ratio", [0.2, 0.5, 0.8, 0.95])
def test_power_cdf_matches_the_two_path_closed_form_next_to_its_edges(ratio):
    # a truncated series oscillates next to the hard edges of the support;
    # every value that passes the convergence test must still be right
    a1, a2 = 1.0, ratio
    low, high = (a1 - a2) ** 2, (a1 + a2) ** 2
    offsets = (high - low) * np.geomspace(1e-7, 0.3, 60)
    returned = 0
    for power in np.concatenate([low + offsets, high - offsets]):
        try:
            (value,) = multipath_power_cdf((a1, a2), [power])
        except NumericalError:
            continue
        returned += 1
        want = two_path_cdf(a1, a2, math.sqrt(power))
        assert abs(value - want) <= KLUYVER_CONVERGENCE_TOL * want
    assert returned >= 20


def test_admitted_roots_of_random_profiles_hold_on_a_long_series():
    # 2 to 7 paths, every second profile with a first path within 20% of
    # the sum of the others (a hard edge or a singularity of the density
    # next to the quantiles): each root the oracle admits is a root of the
    # 16384-term CDF to the tolerance of its own convergence test
    rng = np.random.default_rng(41)
    profiles = np.zeros((400, 7))
    for i, row in enumerate(profiles):
        paths = rng.integers(2, 8)
        row[:paths] = rng.uniform(0.05, 1.0, paths)
        if i % 2:
            row[0] = row[1:].sum() * rng.uniform(0.8, 1.2)
    levels = (1e-2, 1e-3)
    roots = np.column_stack([_kluyver_quantiles(
        profiles / profiles.sum(axis=1)[:, None], level)[0]
        for level in levels])
    admitted = np.isfinite(roots)
    assert admitted.sum() >= 600
    for row, found, ok in zip(profiles, roots, admitted):
        if ok.any():
            fine = cdf_at(j0_row(row[row > 0.0], 16384), found[ok])[0]
            for value, level in zip(fine, np.array(levels)[ok]):
                assert abs(value - level) <= KLUYVER_CONVERGENCE_TOL * level


@pytest.mark.parametrize("loc", EXACT_LOCATIONS, ids=range(4))
def test_exact_outage_at_exact_capacity_is_epsilon(loc):
    s = make_scenario(seed=1)
    for eps in LEVELS:
        c, _ = oracle_truth(s, loc, eps, (), 0, 0)
        peak = float(np.sum(s.path_amplitudes(loc.as_array())))
        assert c == math.log2(1.0 + (peak * exact_root(s, loc, eps)) ** 2
                              / s.config.noise_power)
        again, (out,) = oracle_truth(s, loc, eps, (c,), 0, 0)
        assert again == c
        assert abs(out - eps) <= 2.0 * KLUYVER_ROOT_TOL * eps


@pytest.mark.parametrize("overrides, eps", [
    ({"num_paths": 2}, 1e-2),
    ({"num_paths": 2}, 1e-3),
    ({"num_antennas": 4}, 1e-2),
], ids=["two-path-1e-2", "two-path-1e-3", "mrc-1e-2"])
def test_two_path_and_mrc_fall_back_to_monte_carlo_bit_for_bit(overrides, eps):
    s = make_scenario(seed=16, **overrides)
    if s.config.num_antennas == 1:
        assert np.isnan(exact_root(s, LOC, eps))
    rates, n = (1.0, 3.0, 6.0), math.ceil(100 / eps)
    assert oracle_truth(s, LOC, eps, rates, 21, 22) == mc_truth(
        s, LOC, eps, rates, n, n, 21, 22)


# Profiles swapped into the block below, scaled to the location's amplitude
# sum: five that need a longer series (256, 512 and 1024 terms at eps = 1e-2
# for the first three, and at eps = 1e-3 for the fourth, the first and the
# last; the grown-grid test takes the first and the last), and three whose
# dominant paths fail the series' test and fall back to Monte Carlo.
GROWN_PROFILES = ((1.0, 0.7, 0.6), (1.0, 0.3, 0.25), (1.0, 0.2, 0.1),
                  (1.0, 0.95, 0.9), (1.0, 0.55, 0.5))
DOMINANT_PROFILES = ((1.0,), (1.0, 0.5), (1.0, 0.5, 0.3))
BLOCK_RATES = (0.0, 2.0, 7.0, 1e3)   # certain, likely, rare and out of reach


def swap_in_profiles(monkeypatch, swapped):
    """Make Scenario.path_amplitudes return the profile given for a
    location's (x, y) in swapped, padded with zero paths."""
    original = Scenario.path_amplitudes

    def patched(self, locs):
        a = original(self, locs)
        for row, loc in zip(a, np.atleast_2d(np.asarray(locs, dtype=float))):
            profile = swapped.get((loc[0], loc[1]))
            if profile is not None:
                row[:] = np.pad(profile, (0, row.size - len(profile))) \
                    * row.sum()
        return a

    monkeypatch.setattr(Scenario, "path_amplitudes", patched)


def judged_in_blocks(s, locs, eps, block):
    rates = [BLOCK_RATES] * len(locs)
    seeds = list(range(len(locs)))
    return [truth for i in range(0, len(locs), block)
            for truth in true_outage_capacities(
                s, locs[i:i + block], eps, rates[i:i + block],
                seeds[i:i + block], [seed + 1000 for seed in seeds[i:i + block]])]


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_block_oracle_equals_blocks_of_one(monkeypatch, eps):
    s = make_scenario(seed=1)
    xy = np.random.default_rng(34).uniform(-100.0, 100.0, (200, 2))
    locs = [Location(float(x), float(y), 1.5) for x, y in xy]
    profiles = GROWN_PROFILES + DOMINANT_PROFILES
    swap_in_profiles(monkeypatch, {
        (locs[17 * k].x, locs[17 * k].y): profile
        for k, profile in enumerate(profiles, start=1)})
    # the block covers every path: roots found on series of 128, 256, 512
    # and 1024 terms, and Monte Carlo
    a = s.path_amplitudes([loc.as_array() for loc in locs])
    roots, grids = _kluyver_quantiles(a / a.sum(axis=1)[:, None], eps)
    assert {weighted.shape[1] for rows, weighted in grids
            if np.isfinite(roots[rows]).any()} == \
        {KLUYVER_FIRST_TERMS, 2 * KLUYVER_FIRST_TERMS,
         4 * KLUYVER_FIRST_TERMS, KLUYVER_TERMS}
    assert np.isnan(roots).sum() >= 2
    block = judged_in_blocks(s, locs, eps, len(locs))
    assert judged_in_blocks(s, locs, eps, 1) == block
    assert judged_in_blocks(s, locs, eps, 7) == block


def test_block_oracle_equals_blocks_of_one_with_mrc():
    s = make_scenario(seed=16, num_antennas=2)
    xy = np.random.default_rng(35).uniform(-100.0, 100.0, (12, 2))
    locs = [Location(float(x), float(y), 1.5) for x, y in xy]
    block = judged_in_blocks(s, locs, 1e-2, len(locs))
    assert judged_in_blocks(s, locs, 1e-2, 1) == block
    assert block[0] == mc_truth(s, locs[0], 1e-2, BLOCK_RATES, 10_000,
                                10_000, 0, 1000)


def test_block_oracle_refuses_a_location_outside_the_cell():
    s = make_scenario(seed=1)
    locs = [LOC, Location(500.0, 0.0, 1.5), Location(-60.0, 70.0, 1.5)]
    with pytest.raises(ValueError, match="outside the cell"):
        judged_in_blocks(s, locs, 1e-2, len(locs))


# ---------------------------------------------------------------- invariants

def test_spatial_consistency_w1_increases_with_distance():
    # Variogram-style check: 1e3 random pairs at random lags, W1 between
    # dB-power distributions, averaged within distance deciles. The binned
    # conditional mean must grow with distance (Spearman > 0.5; the raw
    # per-pair ranks carry irreducible half-normal spread around the trend).
    s = make_scenario(seed=17)
    rng = np.random.default_rng(18)
    n_pairs = 1000
    dists = np.empty(n_pairs)
    w1s = np.empty(n_pairs)
    i = 0
    while i < n_pairs:
        base = rng.uniform(-99, 99, 2)
        lag = rng.uniform(1.0, 140.0)
        ang = rng.uniform(0.0, 2.0 * np.pi)
        other = base + lag * np.array([np.cos(ang), np.sin(ang)])
        if not (-100 <= other[0] <= 100 and -100 <= other[1] <= 100):
            continue
        pa = draw_power_samples(s, Location(*base, 1.5), 300, sample_seed=0)
        pb = draw_power_samples(s, Location(*other, 1.5), 300, sample_seed=1)
        dists[i] = lag
        w1s[i] = wasserstein1(
            EmpiricalDistribution.from_samples(10 * np.log10(pa)),
            EmpiricalDistribution.from_samples(10 * np.log10(pb)))
        i += 1
    edges = np.quantile(dists, np.linspace(0, 1, 11))
    centers, means = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (dists >= lo) & (dists <= hi)
        centers.append(dists[mask].mean())
        means.append(w1s[mask].mean())
    rho = spearmanr(centers, means).statistic
    assert rho > 0.5


def test_phase_independence_beyond_ten_wavelengths():
    s = make_scenario(seed=19)
    gap = 4.5   # twelve wavelengths at 800 MHz
    rng = np.random.default_rng(20)
    corrs = []
    for k in range(100):
        x, y = rng.uniform(-80, 80, 2)
        la, lb = Location(x, y, 1.5), Location(x + gap, y, 1.5)
        # path_rays is bit-identical per location, so the pair's fields are
        # evaluated once instead of in each of the 400 draws
        rays_a, rays_b = s.path_rays([la, lb])
        h1 = np.array([draw_csi(s, la, i, 1, 1, BANDWIDTH, rays_a)[0, 0]
                       for i in range(200)])
        h2 = np.array([draw_csi(s, lb, i, 1, 1, BANDWIDTH, rays_b)[0, 0]
                       for i in range(200)])
        num = np.abs(np.mean(h1 * np.conj(h2)))
        den = math.sqrt(np.mean(np.abs(h1) ** 2) * np.mean(np.abs(h2) ** 2))
        corrs.append(num / den)
    assert np.mean(corrs) < 0.2
