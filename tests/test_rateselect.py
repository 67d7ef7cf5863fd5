"""Rate-selection tests: inverse normal CDF, quantile rule, nearest-neighbor
baseline, and the meta-probability calibration of the full GP pipeline."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from statmap.errors import ConfigurationError
from statmap.gpmap import (
    PREDICT_CHUNK,
    Hyperparams,
    PredictiveDistribution,
    TrainingSet,
    build_map,
    kernel_matrix,
    predict,
)
from statmap.rateselect import (
    gaussian_quantile,
    select_rate_baseline,
    select_rate_map,
)


# ------------------------------------------------------ gaussian quantile

def test_gaussian_quantile_median():
    assert gaussian_quantile(0.5) == 0.0


def test_gaussian_quantile_symmetry():
    assert gaussian_quantile(0.123) == pytest.approx(-gaussian_quantile(0.877),
                                                     abs=1e-12)


def normal_cdf_by_quadrature(x):
    val, _ = quad(lambda t: math.exp(-t * t / 2.0) / math.sqrt(2 * math.pi),
                  -40.0, x, limit=400)
    return val


def bisect_inverse_cdf(p, lo=-10.0, hi=10.0, iters=60):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if normal_cdf_by_quadrature(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_gaussian_quantile_milli_level():
    got = gaussian_quantile(1e-3)
    assert got == pytest.approx(-3.090232306, abs=1e-6)
    oracle = bisect_inverse_cdf(1e-3)
    assert got == pytest.approx(oracle, abs=1e-6)


def test_gaussian_quantile_domain():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            gaussian_quantile(bad)


# ------------------------------------------------------ map rule

def scalar_rate(mean, variance, delta):
    """The quantile rule on one query, in plain floats."""
    return max(mean + math.sqrt(variance) * gaussian_quantile(delta), 0.0)


def one_query(mean, variance):
    """The predictive distribution of a single query."""
    return PredictiveDistribution(np.array([mean]), np.array([variance]))


def test_select_rate_zero_variance():
    for delta in (1e-4, 0.3, 0.9):
        rates = select_rate_map(PredictiveDistribution(
            np.array([2.0, 0.5]), np.zeros(2)), delta)
        assert rates.tolist() == [2.0, 0.5]


def test_select_rate_median_is_mean():
    assert select_rate_map(one_query(3.0, 0.25), 0.5).tolist() == [3.0]


def test_select_rate_milli_delta():
    rate = select_rate_map(one_query(3.0, 0.25), 1e-3)
    assert rate == pytest.approx([3.0 - 0.5 * 3.090232306], abs=1e-5)


def test_select_rate_clamps_at_zero():
    assert select_rate_map(one_query(0.5, 4.0), 1e-4).tolist() == [0.0]


@pytest.mark.parametrize("delta", [1e-4, 1e-2, 0.3, 0.5, 0.9])
def test_select_rate_array_matches_scalar_formula(delta):
    # random moments, zero variances and clamped rows, bit for bit
    rng = np.random.default_rng(41)
    mean = np.concatenate([rng.uniform(-2.0, 6.0, 200), [2.5, 0.7, -1.0],
                           [0.1, 0.3]])
    variance = np.concatenate([rng.uniform(0.0, 3.0, 200), np.zeros(3),
                               [50.0, 80.0]])
    rates = select_rate_map(PredictiveDistribution(mean, variance), delta)
    want = [scalar_rate(m, v, delta) for m, v in zip(mean, variance)]
    assert np.array(want).tobytes() == rates.tobytes()
    assert rates.min() >= 0.0
    if delta < 0.5:
        assert np.count_nonzero(rates == 0.0) >= 2


def test_rate_monotone_in_delta():
    pred = one_query(1.7, 0.6)
    deltas = np.linspace(0.01, 0.99, 25)
    rates = [select_rate_map(pred, d)[0] for d in deltas]
    assert all(a <= b for a, b in zip(rates, rates[1:]))


def test_rate_conservative_below_half():
    pred = one_query(1.7, 0.6)
    for delta in (0.001, 0.1, 0.49):
        assert select_rate_map(pred, delta)[0] <= pred.mean[0]


def test_select_rate_map_validation():
    # rates are never negative, whatever the moments
    rng = np.random.default_rng(42)
    pred = PredictiveDistribution(rng.normal(0.0, 3.0, 500),
                                  rng.uniform(0.0, 10.0, 500))
    for delta in (1e-6, 0.5, 1.0 - 1e-6):
        assert select_rate_map(pred, delta).min() >= 0.0
    # the map policy needs delta in (0, 1)
    for bad in (0.0, 1.0, -0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            select_rate_map(pred, bad)
    with pytest.raises(ValueError):
        select_rate_map(PredictiveDistribution(np.ones(2),
                                               np.array([0.1, -1e-3])), 0.1)


# ------------------------------------------------------ baseline

def test_baseline_exact_match():
    train = TrainingSet.new([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]],
                            [1.0, 2.0, 3.0])
    assert select_rate_baseline(train, [1.0, 1.0]).tolist() == [2.0]


def test_baseline_single_point():
    train = TrainingSet.new([[5.0, -3.0], [5.0, -3.0]], [1.5, 1.5])
    assert select_rate_baseline(train, [[0, 0], [100, 100], [-7, 2]]
                                ).tolist() == [1.5, 1.5, 1.5]


def test_baseline_tie_breaks_to_lowest_index():
    train = TrainingSet.new([[1.0, 0.0], [-1.0, 0.0]], [7.0, 9.0])
    assert select_rate_baseline(train, [0.0, 0.0]).tolist() == [7.0]


def test_baseline_clamps_at_zero():
    train = TrainingSet.new([[0.0, 0.0], [10.0, 0.0]], [-0.5, 2.0])
    assert select_rate_baseline(train, [[1.0, 0.0], [9.0, 0.0]]
                                ).tolist() == [0.0, 2.0]


@pytest.mark.parametrize("queries", [[[math.nan, 4.0], [5.0, 5.0]],
                                     [[math.inf, 4.0]]])
def test_baseline_refuses_non_finite_queries(queries):
    # as predict does; a non-finite query has no nearest point
    train = TrainingSet.new([[0.0, 0.0], [5.0, 5.0]], [1.0, 2.0])
    with pytest.raises(ConfigurationError, match="finite"):
        select_rate_baseline(train, queries)


@pytest.mark.parametrize("queries", [np.zeros((2, 3)), np.zeros(4),
                                     [[math.nan, 1.0]]],
                         ids=["2x3", "length-4", "nan"])
def test_predict_and_baseline_refuse_the_same_queries(queries):
    # the baseline reshaped a (2, 3) array into 3 queries, and (4,) into 2
    train = TrainingSet.new([[0.0, 0.0], [5.0, 5.0]], [1.0, 2.0])
    fmap = build_map(train, Hyperparams(1.5, 0.5, 8.0, 0.05))
    with pytest.raises(ConfigurationError, match="finite 2-D points"):
        predict(fmap, queries)
    with pytest.raises(ConfigurationError, match="finite 2-D points"):
        select_rate_baseline(train, queries)


def test_baseline_matches_exhaustive_scan():
    rng = np.random.default_rng(31)
    coords = rng.uniform(-10, 10, size=(100, 2))
    targets = rng.uniform(0, 5, size=100)
    # a query equidistant from two training points; its copies straddle
    # the boundary between the first two chunks of queries
    coords[7], coords[3] = [0.0625, 1.0], [-0.0625, 1.0]
    queries = rng.uniform(-10, 10, size=(2 * PREDICT_CHUNK + 50, 2))
    queries[PREDICT_CHUNK - 1:PREDICT_CHUNK + 1] = [0.0, 1.0]
    train = TrainingSet.new(coords, targets)
    rates = select_rate_baseline(train, queries)
    assert rates.shape == (len(queries),)
    for q, rate in zip(queries, rates):
        best = min(range(100),
                   key=lambda i: ((coords[i, 0] - q[0]) ** 2
                                  + (coords[i, 1] - q[1]) ** 2))
        assert rate == max(targets[best], 0.0)
    assert rates[PREDICT_CHUNK - 1] == rates[PREDICT_CHUNK] == targets[3]


# ------------------------------------------------------ calibration

def test_meta_probability_calibration():
    # Targets drawn from the GP's own prior, observed with the modeled
    # noise: the violation fraction at 1e4 held-out points must match delta
    # within the 99% binomial interval.
    # prior mean far from 0 so the zero-rate clamp (a safe non-transmission,
    # never a violation in the experiment pipeline) stays inactive here
    rng = np.random.default_rng(77)
    hyper = Hyperparams(prior_mean=5.0, signal_var=1.0, length_scale=15.0,
                        noise_var=0.05)
    n_train, n_test, delta = 500, 10_000, 0.05
    train_xy = rng.uniform(-100, 100, size=(n_train, 2))
    test_xy = rng.uniform(-100, 100, size=(n_test, 2))

    noise_free = Hyperparams(hyper.prior_mean, hyper.signal_var,
                             hyper.length_scale, 0.0)
    k_train = kernel_matrix(train_xy, noise_free)
    k_train[np.diag_indices_from(k_train)] += 1e-10
    low = np.linalg.cholesky(k_train)
    f_train = hyper.prior_mean + low @ rng.normal(size=n_train)
    y_train = f_train + rng.normal(0.0, math.sqrt(hyper.noise_var), n_train)

    fmap = build_map(TrainingSet.new(train_xy, y_train), hyper)
    preds = predict(fmap, test_xy)
    # conditional draw of the true value at each held-out point: under the
    # prior, f_q | y is Gaussian with exactly the predictive moments
    truths = np.array([
        m + math.sqrt(v) * g
        for m, v, g in zip(preds.mean, preds.variance, rng.normal(size=n_test))
    ])
    rates = select_rate_map(preds, delta)
    violations = np.mean(rates > truths)
    half = 2.576 * math.sqrt(delta * (1 - delta) / n_test)
    assert abs(violations - delta) < half
