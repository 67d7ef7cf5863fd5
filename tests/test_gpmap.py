"""GP map tests: kernel algebra, marginal likelihood against a dense
multivariate-normal oracle, hyperparameter fitting, posterior predictions."""

import math
import os
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky, lapack, solve_triangular
from scipy.optimize import minimize

import statmap.gpmap as gm
from statmap.errors import ConfigurationError, FitError, IllConditionedError
from statmap.gpmap import (
    PREDICT_CHUNK,
    FittedMap,
    Hyperparams,
    TrainingSet,
    build_map,
    default_bounds,
    fit,
    kernel_matrix,
    predict,
)

HYPER = Hyperparams(prior_mean=0.0, signal_var=1.0, length_scale=1.0,
                    noise_var=0.0)


def map_lml(hyper, train):
    """The LML that build_map reads off its own Cholesky factor."""
    return build_map(train, hyper).diagnostics.log_marginal_likelihood


def random_train(n, rng, noise=0.1):
    coords = rng.uniform(-5, 5, size=(n, 2))
    targets = rng.normal(size=n)
    return TrainingSet.new(coords, targets), noise


# ---------------------------------------------------------------- kernel

def pair_covariance(x, x_prime, hyper):
    """Covariance of two 2-D points, read off a noise-free kernel matrix."""
    return kernel_matrix(np.array([x, x_prime], dtype=float),
                         replace(hyper, noise_var=0.0))[0, 1]


def se_covariance(d2, hyper):
    """The squared-exponential formula, written out independently."""
    return hyper.signal_var * np.exp(
        -np.asarray(d2) / (2.0 * hyper.length_scale ** 2))


def test_kernel_at_zero_distance():
    assert pair_covariance([1.0, 2.0], [1.0, 2.0], HYPER) == 1.0


def test_kernel_decays_to_zero():
    assert pair_covariance([0.0, 0.0], [1e6, 0.0], HYPER) == 0.0


def test_kernel_half_point():
    d = math.sqrt(2.0 * math.log(2.0))
    assert pair_covariance([0.0, 0.0], [d, 0.0], HYPER) == pytest.approx(
        0.5, abs=1e-12)


def test_kernel_matrix_nugget_on_diagonal_only():
    h = Hyperparams(0.0, 2.0, 1.5, 0.3)
    coords = np.array([[0.0, 0.0], [1.0, 0.0]])
    k = kernel_matrix(coords, h)
    assert k[0, 0] == pytest.approx(2.3)
    assert k[0, 1] == pytest.approx(se_covariance(1.0, h))
    assert kernel_matrix(coords, replace(h, noise_var=0.0))[0, 0] == 2.0


@pytest.mark.parametrize("n", [3, 50, 1000])
def test_kernel_matrix_bytes_match_broadcast_formula(n):
    # Saved maps carry a SHA-256 of these bytes, so the kernel must stay
    # bit-identical to the formula they were written with.
    rng = np.random.default_rng(n)
    coords = rng.uniform(-300, 300, size=(n, 2))
    h = Hyperparams(0.3, 1.7, 37.3, 0.21)
    diff = coords[:, None, :] - coords[None, :, :]
    old = h.signal_var * np.exp(
        -np.sum(diff * diff, axis=-1) / (2.0 * h.length_scale ** 2))
    assert kernel_matrix(coords, replace(h, noise_var=0.0)).tobytes() == \
        old.tobytes()
    old[np.diag_indices_from(old)] += h.noise_var
    assert kernel_matrix(coords, h).tobytes() == old.tobytes()


@pytest.mark.parametrize("field", ["prior_mean", "signal_var", "length_scale",
                                   "noise_var"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_hyperparams_reject_non_finite(field, value):
    fields = {"prior_mean": 0.0, "signal_var": 1.0, "length_scale": 1.0,
              "noise_var": 0.1, field: value}
    with pytest.raises(ConfigurationError):
        Hyperparams(**fields)


def unchecked_hyper(*values):
    """Hyperparams(*values) without its checks: the kernel that values
    would give, which no valid Hyperparams does."""
    hyper = object.__new__(Hyperparams)
    for name, value in zip(("prior_mean", "signal_var", "length_scale",
                            "noise_var"), values):
        object.__setattr__(hyper, name, value)
    return hyper


def test_hyperparams_reject_an_infinite_diagonal():
    # each value is finite, but the kernel's diagonal overflows
    with pytest.raises(ConfigurationError,
                       match=r"signal_var \+ noise_var must be finite"):
        Hyperparams(0.0, 1e308, 1.0, 1e308)
    Hyperparams(0.0, 1e308, 1.0, 0.0)


def test_hyperparams_reject_a_length_scale_whose_square_overflows():
    # the kernel divides by length_scale ** 2, which raised OverflowError
    with pytest.raises(ConfigurationError,
                       match=r"length_scale \*\* 2 must be finite"):
        Hyperparams(0.0, 1.0, 1e155, 0.0)
    Hyperparams(0.0, 1.0, 1e154, 0.0)


def test_profiled_lml_scores_theta_without_valid_hyperparameters_as_failed():
    # the fit's objective takes IllConditionedError as a failed evaluation
    train, _ = random_train(5, np.random.default_rng(18))
    d2 = gm._sq_dists(train.coords, train.coords)
    work = (np.empty_like(d2), np.empty_like(d2))
    for theta in ([1e308, 1.0, 1e308], [1.0, 1e155, 0.1]):
        with pytest.raises(IllConditionedError, match="must be finite"):
            gm._profiled_lml(np.log(theta), d2, train.targets, work)


def test_training_coordinates_whose_squared_distances_overflow():
    # the bounding box's corners are too far apart, but no pair is: refused
    # only where a pair itself overflows
    corner = 1.3e154
    TrainingSet.new([[0.0, 0.0], [corner, 0.0], [corner / 2, 0.85 * corner]],
                    [0.0, 1.0, 2.0])
    for coords in ([[0.0, 0.0], [corner, corner]], [[-1e200, 0.0], [0.0, 0.0]],
                   [[0.0, 0.0], [0.0, 1e300], [1.0, 1.0]]):
        with pytest.raises(ConfigurationError, match="too far apart"):
            TrainingSet.new(coords, np.zeros(len(coords)))


# ------------------------------------------------- marginal likelihood

def test_lml_single_gaussian_closed_form():
    # with one effective variance v, LML is the 1-D normal log-density
    h = Hyperparams(prior_mean=0.0, signal_var=0.7, length_scale=1.0,
                    noise_var=0.2)
    y = 1.3
    train = TrainingSet.new([[0.0, 0.0], [1e9, 1e9]], [y, 0.0])
    v = 0.9
    got = map_lml(h, train)
    want = (-0.5 * (y * y / v + math.log(2 * math.pi * v))
            - 0.5 * math.log(2 * math.pi * v))  # second point has target 0
    assert got == pytest.approx(want, abs=1e-9)


def test_lml_shift_invariance():
    rng = np.random.default_rng(1)
    train, _ = random_train(8, rng)
    h1 = Hyperparams(0.3, 1.0, 2.0, 0.1)
    h2 = Hyperparams(0.3 + 5.0, 1.0, 2.0, 0.1)
    shifted = TrainingSet.new(train.coords, train.targets + 5.0)
    assert map_lml(h1, train) == pytest.approx(
        map_lml(h2, shifted), abs=1e-9)


def dense_mvn_logpdf(hyper, train):
    """Brute-force oracle: dense inverse and determinant."""
    k = kernel_matrix(train.coords, hyper)
    r = train.targets - hyper.prior_mean
    sign, logdet = np.linalg.slogdet(k)
    assert sign > 0
    return float(-0.5 * r @ np.linalg.inv(k) @ r - 0.5 * logdet
                 - 0.5 * train.n * math.log(2 * math.pi))


def test_lml_matches_dense_oracle_three_points():
    rng = np.random.default_rng(2)
    for _ in range(10):
        train, _ = random_train(3, rng)
        h = Hyperparams(float(rng.normal()), float(rng.uniform(0.5, 2.0)),
                        float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.01, 0.5)))
        assert map_lml(h, train) == pytest.approx(
            dense_mvn_logpdf(h, train), abs=1e-8)


def test_lml_rejects_duplicates_without_nugget():
    train = TrainingSet.new([[0.0, 0.0], [0.0, 0.0]], [1.0, 2.0])
    h = Hyperparams(0.0, 1.0, 1.0, 0.0)
    with pytest.raises(ConfigurationError):
        map_lml(h, train)


def test_cholesky_failure_raises_ill_conditioned(monkeypatch):
    monkeypatch.setattr(gm, "_potrf", lambda a: 1)   # LAPACK's info > 0
    train = TrainingSet.new([[0.0, 0.0], [1.0, 1.0]], [0.0, 1.0])
    with pytest.raises(IllConditionedError) as exc:
        map_lml(Hyperparams(0.0, 2.0, 1.0, 0.1), train)
    assert "2" in str(exc.value)  # names the offending hyperparameters


def test_jitter_rescues_noise_free_near_duplicates():
    # correlations round to exactly 1, so the noise-free kernel is singular
    train = TrainingSet.new([[0.0, 0.0], [1e-6, 0.0], [0.0, 1e-6]],
                            [1.0, 1.0, 1.0])
    h = Hyperparams(1.0, 1.0, 1e3, 0.0)
    fmap = build_map(train, h)
    assert fmap.diagnostics.jitter_applied


@pytest.mark.parametrize("kind", ["nugget", "noise-free-jitter"])
def test_build_map_factors_and_solves_as_scipy_bit_for_bit(kind):
    # the map's factor and weights, pinned to scipy's cholesky and
    # cho_solve; noise-free near-duplicates take the jitter retry
    if kind == "nugget":
        train, hyper = prior_train(47, 200, TRUTH), TRUTH
    else:
        train = near_duplicate_train(43, 120)
        hyper = Hyperparams(0.2, 1.0, 2.0, 0.0)
    k = kernel_matrix(train.coords, hyper)
    if kind == "noise-free-jitter":
        with pytest.raises(np.linalg.LinAlgError):
            cholesky(k, lower=True)
        k[np.diag_indices_from(k)] += gm.JITTER_REL * hyper.signal_var
    want = cholesky(k, lower=True)
    fmap = build_map(train, hyper)
    assert fmap.diagnostics.jitter_applied == (kind == "noise-free-jitter")
    assert fmap.chol.flags.f_contiguous and want.flags.f_contiguous
    assert fmap.chol.tobytes(order="F") == want.tobytes(order="F")
    want_alpha = cho_solve((want, True), train.targets - hyper.prior_mean)
    assert fmap.alpha.tobytes() == want_alpha.tobytes()


# ---------------------------------------------------------------- fit

def sample_from_prior(hyper, coords, rng):
    k = kernel_matrix(coords, Hyperparams(hyper.prior_mean, hyper.signal_var,
                                          hyper.length_scale, 0.0))
    k[np.diag_indices_from(k)] += 1e-10
    low = np.linalg.cholesky(k)
    f = hyper.prior_mean + low @ rng.normal(size=coords.shape[0])
    return f + rng.normal(0.0, math.sqrt(hyper.noise_var), coords.shape[0])


def test_fit_recovers_prior_hyperparameters():
    rng = np.random.default_rng(3)
    truth = Hyperparams(prior_mean=2.0, signal_var=1.5, length_scale=0.8,
                        noise_var=0.05)
    coords = rng.uniform(-5, 5, size=(200, 2))
    y = sample_from_prior(truth, coords, rng)
    fmap = fit(TrainingSet.new(coords, y), restarts=3, seed=0)
    assert truth.length_scale / 1.5 < fmap.hyper.length_scale < truth.length_scale * 1.5
    assert truth.signal_var / 2 < fmap.hyper.signal_var < truth.signal_var * 2


def test_fit_constant_targets_degenerate():
    coords = np.random.default_rng(4).uniform(-3, 3, size=(30, 2))
    train = TrainingSet.new(coords, np.full(30, 1.75))
    fmap = fit(train, restarts=2, seed=1)
    lo_sig = default_bounds(train)["signal_var"][0]
    assert fmap.hyper.signal_var <= 10 * lo_sig
    assert fmap.hyper.prior_mean == pytest.approx(1.75, abs=1e-6)


def test_fit_never_below_init():
    rng = np.random.default_rng(5)
    train, _ = random_train(40, rng)
    init = Hyperparams(prior_mean=0.0, signal_var=1.0, length_scale=1.0,
                       noise_var=0.2)
    fmap = fit(train, init=init, restarts=2, seed=0)
    assert fmap.diagnostics.log_marginal_likelihood >= (
        map_lml(init, train) - 1e-9)


def test_fit_deterministic():
    rng = np.random.default_rng(6)
    train, _ = random_train(50, rng)
    a = fit(train, restarts=3, seed=11)
    b = fit(train, restarts=3, seed=11)
    assert a.hyper == b.hyper
    np.testing.assert_array_equal(a.alpha, b.alpha)


def test_fitted_map_arrays_are_read_only():
    # load_map hands one map to every request for the same file bytes
    rng = np.random.default_rng(7)
    train, noise = random_train(20, rng)
    for fmap in (build_map(train, replace(HYPER, noise_var=noise)),
                 fit(train, restarts=1, seed=0)):
        for array in (fmap.chol, fmap.alpha):
            with pytest.raises(ValueError):
                array[0] = 1.0


def log_theta(hyper):
    return np.log([hyper.signal_var, hyper.length_scale, hyper.noise_var])


def prior_train(seed, n, truth):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(-5, 5, size=(n, 2))
    return TrainingSet.new(coords, sample_from_prior(truth, coords, rng))


TRUTH = Hyperparams(prior_mean=1.0, signal_var=1.5, length_scale=1.2,
                    noise_var=0.1)


def workspace(d2):
    """A fresh pair of arrays for one _profiled_lml evaluation."""
    return np.empty_like(d2), np.empty_like(d2)


@pytest.mark.parametrize("n,where", [(30, "inside"), (30, "noise-bound"),
                                     (30, "long-scale"), (250, "inside")])
def test_lml_gradient_matches_central_differences(n, where):
    train = prior_train(20 + n, n, TRUTH)
    d2 = gm._sq_dists(train.coords, train.coords)
    theta = log_theta(TRUTH) + np.array([0.3, -0.2, 0.4])
    if where == "noise-bound":     # just inside the nugget's lower bound
        theta[2] = math.log(default_bounds(train)["noise_var"][0]) + 1e-3
    elif where == "long-scale":    # a near-flat, badly conditioned kernel
        theta[1] = math.log(20.0)
    lml, mean, grad = gm._profiled_lml(theta, d2, train.targets,
                                       workspace(d2))
    signal_var, length_scale, noise_var = np.exp(theta)
    assert lml == pytest.approx(map_lml(
        Hyperparams(mean, signal_var, length_scale, noise_var), train),
        abs=1e-9)
    step = 1e-6
    central = np.array([
        (gm._profiled_lml(theta + e, d2, train.targets, workspace(d2))[0]
         - gm._profiled_lml(theta - e, d2, train.targets,
                            workspace(d2))[0]) / (2 * step)
        for e in step * np.eye(3)])
    assert np.linalg.norm(grad - central) < 1e-4 * np.linalg.norm(central)


def allocating_profiled_lml(theta, d2, targets):
    """The LML evaluation with fresh arrays for the kernel, its factor, its
    inverse and K * d2, step for step as _profiled_lml computes it."""
    signal_var, length_scale, noise_var = (float(v) for v in np.exp(theta))
    k = d2 / (-2.0 * length_scale ** 2)
    np.exp(k, out=k)
    k *= signal_var
    k[np.diag_indices_from(k)] += noise_var
    try:
        low = cholesky(k, lower=True)
    except np.linalg.LinAlgError:
        raise IllConditionedError("not positive definite") from None
    ones = np.ones_like(targets)
    mean = (float(ones @ cho_solve((low, True), targets))
            / float(ones @ cho_solve((low, True), ones)))
    r = targets - mean
    alpha = cho_solve((low, True), r)
    logdet = 2.0 * np.sum(np.log(np.diag(low)))
    lml = float(-0.5 * r @ alpha - 0.5 * logdet - 0.5 * r.size * gm.LOG2PI)
    cinv, info = lapack.dpotri(low, lower=1)
    assert info == 0
    upper, inv_diag = cinv.T, np.diag(cinv)
    k[np.diag_indices_from(k)] = signal_var

    def quad_minus_trace(dc):
        trace = 2.0 * np.vdot(upper, dc) - inv_diag @ np.diag(dc)
        return alpha @ (dc @ alpha) - trace

    grad = 0.5 * np.array([
        quad_minus_trace(k),
        quad_minus_trace(k * d2) / length_scale ** 2,
        noise_var * (alpha @ alpha - inv_diag.sum())])
    return lml, mean, grad


def lml_bytes(lml, mean, grad):
    return np.array([lml, mean, *grad]).tobytes()


def near_duplicate_train(seed, n):
    # pairs of points 1e-7 apart, where the kernel is worst conditioned
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-5, 5, size=(n // 2, 2))
    coords = np.vstack([centres, centres + 1e-7])
    return TrainingSet.new(coords, rng.normal(size=len(coords)))


@pytest.mark.parametrize("kind", ["uniform", "prior", "near-duplicates"])
def test_workspace_lml_equals_allocating_evaluation_bit_for_bit(kind):
    train = {"uniform": lambda: random_train(61, np.random.default_rng(8))[0],
             "prior": lambda: prior_train(42, 120, TRUTH),
             "near-duplicates": lambda: near_duplicate_train(43, 80)}[kind]()
    d2 = gm._sq_dists(train.coords, train.coords)
    bounds = default_bounds(train)
    lo, hi = np.log([bounds[key] for key in ("signal_var", "length_scale",
                                             "noise_var")]).T
    thetas = lo + np.random.default_rng(44).uniform(size=(16, 3)) * (hi - lo)
    # one workspace for every evaluation, as in a fit, starting from garbage
    work = (np.full_like(d2, np.nan), np.full_like(d2, np.nan))
    for theta in thetas:
        want = lml_bytes(*allocating_profiled_lml(theta, d2, train.targets))
        assert lml_bytes(*gm._profiled_lml(theta, d2, train.targets,
                                           work)) == want
        assert lml_bytes(*gm._profiled_lml(theta, d2, train.targets,
                                           workspace(d2))) == want


def test_workspace_lml_raises_where_the_kernel_does_not_factor():
    # a long length scale with a negligible nugget: rounding leaves the
    # kernel indefinite, and the workspace serves again after the failure
    train, _ = random_train(40, np.random.default_rng(3))
    d2 = gm._sq_dists(train.coords, train.coords)
    work = (np.empty_like(d2), np.empty_like(d2))
    with pytest.raises(IllConditionedError):
        allocating_profiled_lml(np.array([0.0, math.log(50.0), -70.0]), d2,
                                train.targets)
    with pytest.raises(IllConditionedError):
        gm._profiled_lml(np.array([0.0, math.log(50.0), -70.0]), d2,
                         train.targets, work)
    theta = log_theta(TRUTH)
    assert lml_bytes(*gm._profiled_lml(theta, d2, train.targets, work)) == (
        lml_bytes(*allocating_profiled_lml(theta, d2, train.targets)))


def usable_cpus(monkeypatch, n):
    """Let fit() see n usable CPUs, on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def test_fit_evaluations_allocate_nothing_n_by_n(monkeypatch):
    # each start allocates its workspace once: after a start's first
    # evaluation none may allocate even one n x n array (the allocating
    # evaluation makes four). On one CPU the starts run one after the other,
    # so each traced peak is that of one evaluation.
    usable_cpus(monkeypatch, 1)
    n = 300
    train = prior_train(45, n, TRUTH)
    real = gm._profiled_lml
    peaks, workspaces = [], []

    def traced(*args):
        work = args[3]
        if not any(work is seen for seen in workspaces):
            workspaces.append(work)
            peaks.append([])
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        try:
            return real(*args)
        finally:
            peaks[-1].append(tracemalloc.get_traced_memory()[1] - before)

    monkeypatch.setattr(gm, "_profiled_lml", traced)
    tracemalloc.start()
    try:
        fit(train, restarts=2, seed=0)
    finally:
        tracemalloc.stop()
    assert len(workspaces) == 2
    assert sum(map(len, peaks)) > 10
    for start_peaks in peaks:
        assert max(start_peaks[1:]) < n * n * 8


@pytest.mark.parametrize("restarts", [1, 2, 3])
def test_a_fit_allocates_one_workspace_per_start(monkeypatch, restarts):
    usable_cpus(monkeypatch, 2)
    train = prior_train(46, 40, TRUTH)
    real = gm._profiled_lml
    workspaces = []     # kept alive, so no two can share an address

    def recorded(theta, d2, targets, work):
        if not any(work is seen for seen in workspaces):
            workspaces.append(work)
        assert [w.shape for w in work] == [d2.shape, d2.shape]
        return real(theta, d2, targets, work)

    monkeypatch.setattr(gm, "_profiled_lml", recorded)
    fit(train, restarts=restarts, seed=0)
    assert len(workspaces) == restarts
    assert len({id(w) for work in workspaces for w in work}) == 2 * restarts


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_fit_reaches_nelder_mead_optimum(seed):
    # Oracle: a tight simplex search over (prior mean, log hyperparameters)
    # on the LML itself, from the same start and within the same bounds.
    train = prior_train(seed, 40, TRUTH)
    init = Hyperparams(float(np.mean(train.targets)), 1.0, 1.0, 0.2)
    bounds = default_bounds(train)
    box = [(None, None)] + [tuple(np.log(bounds[key]))
                            for key in ("signal_var", "length_scale",
                                        "noise_var")]

    def neg_lml(x):
        return -map_lml(
            Hyperparams(x[0], *np.exp(x[1:])), train)

    oracle = minimize(neg_lml, np.r_[init.prior_mean, log_theta(init)],
                      method="Nelder-Mead", bounds=box,
                      options={"maxfev": 4000, "xatol": 1e-9, "fatol": 1e-12})
    fmap = fit(train, init=init, restarts=1, seed=0)
    assert fmap.diagnostics.log_marginal_likelihood >= -oracle.fun - 1e-6


def test_fit_rejects_fewer_than_one_start():
    train, _ = random_train(10, np.random.default_rng(14))
    for restarts in (0, -3):
        with pytest.raises(ConfigurationError):
            fit(train, restarts=restarts)


def test_fit_raises_fit_error_when_no_kernel_factors(monkeypatch):
    # the one factorization route factors no kernel
    monkeypatch.setattr(gm, "_potrf", lambda a: 1)
    train, _ = random_train(20, np.random.default_rng(15))
    for cpus in (1, 2, 4):
        usable_cpus(monkeypatch, cpus)
        for restarts in (2, 3):
            with pytest.raises(FitError):
                fit(train, restarts=restarts, seed=0)


def test_fit_backs_off_from_failed_factorizations(monkeypatch):
    # Kernels with length scales above the cap fail to factor, and the
    # unconstrained optimum lies beyond it. The search must back off from
    # the failures and climb up to the cap, not abort at the first one.
    train = prior_train(16, 60, TRUTH)
    cap = 0.7 * fit(train, restarts=1).hyper.length_scale
    real = gm._cholesky_with_jitter
    failures = []

    def flaky(kernel, buf, hyper):
        if hyper.length_scale > cap:
            failures.append(hyper.length_scale)
            raise IllConditionedError("forced")
        return real(kernel, buf, hyper)

    monkeypatch.setattr(gm, "_cholesky_with_jitter", flaky)
    init = Hyperparams(0.0, 1.0, 0.5 * cap, 0.2)
    fmap = fit(train, init=init, restarts=1)
    assert failures
    assert 0.9 * cap < fmap.hyper.length_scale <= cap
    assert fmap.diagnostics.log_marginal_likelihood > (
        map_lml(init, train) + 1.0)


# ------------------------------------------------ lock-free LAPACK shim

@pytest.mark.parametrize("n", [1, 2, 7, 64, 301])
def test_lapack_shim_equals_scipy_bit_for_bit(n):
    rng = np.random.default_rng(50 + n)
    a = rng.normal(size=(n, n))
    spd = a @ a.T + n * np.eye(n)
    b = rng.normal(size=n)
    b_bytes = b.tobytes()
    want = cholesky(spd, lower=True)
    # the F-ordered copy holds spd's upper triangle above the diagonal,
    # which the factorization must zero as scipy's does
    low = np.array(spd, order="F")
    assert gm._potrf(low) == 0
    assert np.all(np.triu(low, 1) == 0)
    assert low.tobytes() == want.tobytes()
    assert gm._potrs(low, b).tobytes() == cho_solve((want, True), b).tobytes()
    assert b.tobytes() == b_bytes
    want_inv, info = lapack.dpotri(want, lower=1)
    assert info == 0
    assert gm._potri(low) == 0
    assert low.tobytes() == want_inv.tobytes()


def test_lapack_shim_refuses_arrays_it_would_misread():
    spd = np.eye(3) + 0.5
    for bad in (np.ascontiguousarray(spd[:, ::-1]),       # C-ordered
                np.asfortranarray(spd, dtype=np.float32),
                np.asfortranarray(spd)[:2, :2],           # not contiguous
                np.asfortranarray(spd[:, :2])):           # not square
        with pytest.raises(ValueError, match="F-ordered float64"):
            gm._potrf(bad)
    frozen = np.asfortranarray(spd)
    frozen.flags.writeable = False
    with pytest.raises(ValueError):
        gm._potri(frozen)
    low = cholesky(spd, lower=True)
    for rhs in (np.ones(2), np.ones(4), np.ones((3, 1))):
        with pytest.raises(ValueError, match=r"shape \(3,\)"):
            gm._potrs(low, rhs)


def test_triangular_solve_equals_scipy_bit_for_bit():
    rng = np.random.default_rng(52)
    n = 301
    a = rng.normal(size=(n, n))
    low = np.array(cholesky(a @ a.T + n * np.eye(n), lower=True), order="F")
    low.flags.writeable = False     # a map's factor is read-only
    b = rng.normal(size=(n, PREDICT_CHUNK))
    want = solve_triangular(low, b, lower=True)
    x = np.asfortranarray(b)
    assert gm._trtrs(low, x) is x
    assert x.tobytes() == want.tobytes()


def test_triangular_solve_refuses_arrays_it_would_misread():
    low = np.asfortranarray(np.tril(np.eye(3) + 0.5))
    rhs = np.ones((3, 2), order="F")
    for bad_low in (np.ascontiguousarray(low),            # C-ordered
                    np.asfortranarray(low[:, :2])):       # not square
        with pytest.raises(ValueError, match="F-ordered float64"):
            gm._trtrs(bad_low, rhs)
    for bad_rhs in (np.ones((2, 2), order="F"),           # too few rows
                    np.ones((3, 2))):                     # C-ordered
        with pytest.raises(ValueError, match=r"shape \(3, 2\)"):
            gm._trtrs(low, bad_rhs)
    rhs.flags.writeable = False
    with pytest.raises(ValueError, match="writeable F-ordered"):
        gm._trtrs(low, rhs)
    assert (rhs == 1.0).all()


def test_lapack_shim_reports_an_indefinite_kernel():
    # the kernel of test_workspace_lml_raises_where_the_kernel_does_not_factor
    train, _ = random_train(40, np.random.default_rng(3))
    d2 = gm._sq_dists(train.coords, train.coords)
    theta = np.array([0.0, math.log(50.0), -70.0])
    hyper = Hyperparams(0.0, *np.exp(theta))
    kernel = gm._covariance(d2, hyper, with_nugget=True)
    with pytest.raises(np.linalg.LinAlgError):
        cholesky(kernel, lower=True)
    assert gm._potrf(np.array(kernel, order="F")) > 0
    work = (np.empty_like(d2), np.empty_like(d2))
    with pytest.raises(IllConditionedError, match="length_scale=50"):
        gm._cholesky_with_jitter(kernel, work[1], hyper)
    with pytest.raises(IllConditionedError):
        gm._profiled_lml(theta, d2, train.targets, work)
    good = log_theta(TRUTH)
    assert lml_bytes(*gm._profiled_lml(good, d2, train.targets, work)) == (
        lml_bytes(*allocating_profiled_lml(good, d2, train.targets)))


@pytest.mark.parametrize("n", [3, 200])
@pytest.mark.parametrize("hyper", [
    Hyperparams(0.0, 1.0, 1e-200, 0.1),     # l^2 underflows: a NaN diagonal
    unchecked_hyper(0.0, 1e308, 1.0, 1e308)],   # an infinite diagonal
    ids=["nan", "inf"])
def test_a_kernel_that_is_not_finite_does_not_factor(n, hyper):
    # scipy's cholesky refuses such a kernel; OpenBLAS's dpotrf returns a
    # factor of it with info = 0
    train, _ = random_train(n, np.random.default_rng(18))
    with np.errstate(all="ignore"):
        kernel = kernel_matrix(train.coords, hyper)
        assert not np.isfinite(kernel).all()
        with pytest.raises(ValueError, match="infs or NaNs"):
            cholesky(kernel, lower=True)
        assert gm._potrf(np.array(kernel, order="F")) > 0
        with pytest.raises(IllConditionedError):
            build_map(train, hyper)


# ------------------------------------------------------ concurrent starts

def shared_best_fit(train, restarts, seed):
    """fit() with its starts run one after the other on one workspace, all
    updating one shared best point; returns the map and the iterations and
    converged flag of its diagnostics."""
    d2 = gm._sq_dists(train.coords, train.coords)
    work = (np.empty_like(d2), np.empty_like(d2))
    bounds = default_bounds(train)
    lo, hi = np.log([bounds["signal_var"], bounds["length_scale"],
                     bounds["noise_var"]]).T
    var = max(float(np.var(train.targets)), 1e-10)
    init = Hyperparams(float(np.mean(train.targets)), var,
                       math.sqrt(float(np.median(d2[d2 > 0]))), 0.1 * var)
    best = {"neg_lml": math.inf}

    def objective(theta):
        try:
            lml, mean, grad = gm._profiled_lml(theta, d2, train.targets, work)
        except IllConditionedError:
            return gm.FAILED_NEG_LML, np.zeros(3)
        if -lml < best["neg_lml"]:
            best.update(neg_lml=-lml, theta=theta.copy(), prior_mean=mean)
        return -lml, -grad

    x0 = np.clip(np.log([init.signal_var, init.length_scale,
                         max(init.noise_var, math.exp(lo[2]))]), lo, hi)
    rng = np.random.default_rng(seed)
    starts = [x0] + [np.clip(x0 + rng.normal(0.0, 0.7, 3), lo, hi)
                     for _ in range(restarts - 1)]
    total_iter, converged = 0, False
    for start in starts:
        before = best["neg_lml"]
        res = minimize(objective, start, jac=True, method="L-BFGS-B",
                       bounds=list(zip(lo, hi)),
                       options={"maxfun": gm.FIT_MAX_EVALUATIONS,
                                "ftol": 1e-12, "gtol": 1e-6})
        total_iter += int(res.nfev)
        if best["neg_lml"] < before:
            converged = bool(res.success)
    hyper = Hyperparams(best["prior_mean"], *np.exp(best["theta"]))
    return build_map(train, hyper), total_iter, converged


def fit_bytes(fmap):
    hyper = fmap.hyper
    return (fmap.chol.tobytes(), fmap.alpha.tobytes(),
            np.array([hyper.prior_mean, hyper.signal_var, hyper.length_scale,
                      hyper.noise_var]).tobytes(),
            np.float64(fmap.diagnostics.log_marginal_likelihood).tobytes(),
            fmap.diagnostics.jitter_applied)


def diagnostics_of(fmap):
    d = fmap.diagnostics
    return d.iterations, d.restarts, d.converged


# Seeds 60, 61 and 62 take their optimum from the last, the first and the
# middle start; on seed 66 all three starts tie to the last bit, so the
# strict comparison must keep the first. Capped at 18 evaluations, the
# first start stops short of convergence and the others do not: on seed 60
# a converged later start wins, and on seed 61 the unconverged first start
# ties with the second to the last bit and wins.
@pytest.mark.parametrize("seed,max_evaluations",
                         [(60, None), (61, None), (62, None), (66, None),
                          (60, 18), (61, 18)])
@pytest.mark.parametrize("restarts", [2, 3])
def test_concurrent_starts_fit_the_shared_best_bytes(monkeypatch, seed,
                                                     max_evaluations,
                                                     restarts):
    if max_evaluations is not None:
        monkeypatch.setattr(gm, "FIT_MAX_EVALUATIONS", max_evaluations)
    train = prior_train(seed, 80, TRUTH)
    want, iterations, converged = shared_best_fit(train, restarts, seed)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)     # switch threads often
    try:
        for cpus in (1, 2, 4):
            usable_cpus(monkeypatch, cpus)
            got = fit(train, restarts=restarts, seed=seed)
            assert fit_bytes(got) == fit_bytes(want)
            assert diagnostics_of(got) == (iterations, restarts, converged)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cpus", [1, 2])
def test_starts_run_under_the_callers_numpy_error_state(monkeypatch, cpus):
    # numpy keeps its error state per thread; a start on a worker thread
    # must see the caller's, as an inline start does
    usable_cpus(monkeypatch, cpus)
    real = gm._profiled_lml
    seen = []

    def recorded(*args):
        seen.append(np.geterr())
        return real(*args)

    monkeypatch.setattr(gm, "_profiled_lml", recorded)
    train = prior_train(61, 40, TRUTH)
    with np.errstate(over="raise", divide="ignore", invalid="ignore"):
        caller = np.geterr()
        fit(train, restarts=2, seed=4)
    assert seen and all(errs == caller for errs in seen)


def failing_second_start(monkeypatch, init, failure):
    """Make every evaluation of each start but the one from init (the first)
    raise failure from the kernel factorization; build_map factors as ever."""
    marked = threading.local()
    real_minimize, real_factor = gm.minimize, gm._cholesky_with_jitter
    first = log_theta(init)

    def minimize_marked(fun, x0, **options):
        marked.fail = not np.array_equal(x0, first)
        try:
            return real_minimize(fun, x0, **options)
        finally:
            marked.fail = False

    def factor(kernel, buf, hyper):
        if getattr(marked, "fail", False):
            raise failure
        return real_factor(kernel, buf, hyper)

    monkeypatch.setattr(gm, "minimize", minimize_marked)
    monkeypatch.setattr(gm, "_cholesky_with_jitter", factor)


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_start_that_never_factors_leaves_the_first_starts_optimum(
        monkeypatch, cpus):
    usable_cpus(monkeypatch, cpus)
    train = prior_train(61, 80, TRUTH)
    init = Hyperparams(0.0, 1.0, 1.0, 0.2)
    alone = fit(train, init=init, restarts=1)
    failing_second_start(monkeypatch, init, IllConditionedError("forced"))
    got = fit(train, init=init, restarts=3, seed=4)
    assert fit_bytes(got) == fit_bytes(alone)
    assert got.diagnostics.converged == alone.diagnostics.converged
    assert got.diagnostics.restarts == 3
    assert got.diagnostics.iterations > alone.diagnostics.iterations


@pytest.mark.parametrize("cpus", [1, 2])
def test_an_exception_in_a_start_reaches_the_caller(monkeypatch, cpus):
    usable_cpus(monkeypatch, cpus)
    train = prior_train(61, 40, TRUTH)
    init = Hyperparams(0.0, 1.0, 1.0, 0.2)
    failing_second_start(monkeypatch, init, RuntimeError("start failed"))
    with pytest.raises(RuntimeError, match="start failed"):
        fit(train, init=init, restarts=2, seed=4)


# ---------------------------------------------------------------- predict

def test_predict_interpolates_noise_free():
    rng = np.random.default_rng(7)
    coords = rng.uniform(-4, 4, size=(25, 2))
    y = np.sin(coords[:, 0]) + np.cos(coords[:, 1])
    train = TrainingSet.new(coords, y)
    fmap = build_map(train, Hyperparams(0.0, 1.0, 2.0, 0.0))
    for i in (0, 7, 19):
        p = predict(fmap, coords[i])
        assert p.mean == pytest.approx([y[i]], abs=1e-8)
        assert p.variance == pytest.approx([0.0], abs=1e-8)


def test_predict_reverts_to_prior_far_away():
    train = TrainingSet.new([[0.0, 0.0], [1.0, 0.0]], [3.0, 4.0])
    fmap = build_map(train, Hyperparams(2.0, 1.5, 1.0, 0.1))
    p = predict(fmap, [1e5, 1e5])
    assert p.mean == pytest.approx([2.0], abs=1e-6)
    assert p.variance == pytest.approx([1.5], abs=1e-6)


def test_predict_one_point_closed_form():
    # k(x,q)=0.5, sigma_f^2=1, noise 0, target 2 -> mean 1.0, variance 0.75
    h = Hyperparams(0.0, 1.0, 1.0, 0.0)
    d = math.sqrt(2.0 * math.log(2.0))  # kernel = 0.5 at this distance
    train = TrainingSet.new([[0.0, 0.0], [1e9, 0.0]], [2.0, 0.0])
    fmap = build_map(train, h)
    p = predict(fmap, [d, 0.0])
    assert p.mean == pytest.approx([1.0], abs=1e-9)
    assert p.variance == pytest.approx([0.75], abs=1e-9)


def test_predict_batch_equals_single_calls():
    # A batch is not bit-equal to single calls: BLAS blocks many-column
    # solves and products differently (measured gap ~1e-14), hence the
    # tolerance. One point [x, y] is a batch of one, so that stays exact.
    rng = np.random.default_rng(8)
    train, _ = random_train(30, rng)
    fmap = build_map(train, Hyperparams(0.1, 1.2, 1.5, 0.05))
    queries = rng.uniform(-6, 6, size=(10_000, 2))
    batch = predict(fmap, queries)
    assert batch.mean.shape == batch.variance.shape == (10_000,)
    for i in range(0, 10_000, 997):
        single = predict(fmap, queries[i])
        assert single.mean.shape == single.variance.shape == (1,)
        one = predict(fmap, [queries[i]])
        assert (one.mean.tolist(), one.variance.tolist()) == \
            (single.mean.tolist(), single.variance.tolist())
        assert batch.mean[i] == pytest.approx(single.mean[0], abs=1e-12)
        assert batch.variance[i] == pytest.approx(single.variance[0],
                                                  abs=1e-12)
    # permuting queries permutes outputs
    perm = rng.permutation(200)
    permuted = predict(fmap, queries[perm])
    np.testing.assert_allclose(permuted.mean, batch.mean[perm], rtol=0,
                               atol=1e-12)
    np.testing.assert_allclose(permuted.variance, batch.variance[perm],
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("bad", [[[np.nan, 0.0]], [[0.0, np.inf]],
                                 [[1.0, 2.0], [-np.inf, 3.0]]])
def test_predict_rejects_non_finite_queries(bad):
    train = TrainingSet.new([[0.0, 0.0], [1.0, 0.0]], [3.0, 4.0])
    fmap = build_map(train, Hyperparams(2.0, 1.5, 1.0, 0.1))
    with pytest.raises(ConfigurationError):
        predict(fmap, bad)
    with pytest.raises(ConfigurationError):
        predict(fmap, bad[-1])


def test_posterior_variance_bounded_by_prior():
    rng = np.random.default_rng(9)
    train, _ = random_train(60, rng)
    h = Hyperparams(0.0, 2.0, 1.0, 0.1)
    fmap = build_map(train, h)
    grid = np.stack(np.meshgrid(np.linspace(-8, 8, 100),
                                np.linspace(-8, 8, 100)), axis=-1).reshape(-1, 2)
    variances = predict(fmap, grid).variance
    assert variances.shape == (len(grid),)
    assert np.all(variances <= h.signal_var + 1e-12)
    assert np.all(variances >= 0.0)


def dense_posterior(hyper, train, query):
    """Brute-force posterior via explicit matrix inverse."""
    k = kernel_matrix(train.coords, hyper)
    kinv = np.linalg.inv(k)
    kx = se_covariance(np.sum((train.coords - query) ** 2, axis=1), hyper)
    r = train.targets - hyper.prior_mean
    mean = hyper.prior_mean + kx @ kinv @ r
    var = hyper.signal_var - kx @ kinv @ kx
    return float(mean), float(max(var, 0.0))


@pytest.mark.parametrize("batch_size",
                         [1, 7, 128, 2 * PREDICT_CHUNK + 3, 259, 2051])
def test_predict_batch_matches_dense_inverse(batch_size):
    rng = np.random.default_rng(11)
    train, _ = random_train(40, rng)
    h = Hyperparams(0.4, 1.3, 1.1, 0.08)
    fmap = build_map(train, h)
    queries = rng.uniform(-6, 6, size=(batch_size, 2))
    got = predict(fmap, queries)
    assert got.mean.shape == got.variance.shape == (batch_size,)
    for q, got_mean, got_var in zip(queries, got.mean, got.variance):
        mean, var = dense_posterior(h, train, q)
        assert got_mean == pytest.approx(mean, abs=1e-8)
        assert got_var == pytest.approx(var, abs=1e-8)


@pytest.mark.parametrize("batch_size", [1, 63, 64, 65, 128, 2051])
def test_predict_bytes_do_not_depend_on_cpu_count(monkeypatch, batch_size):
    rng = np.random.default_rng(12)
    train, _ = random_train(400, rng)
    fmap = build_map(train, Hyperparams(0.4, 1.3, 1.1, 0.08))
    queries = rng.uniform(-6, 6, size=(batch_size, 2))
    got = []
    for cpus in (1, 2, 4):
        usable_cpus(monkeypatch, cpus)
        pred = predict(fmap, queries)
        got.append((pred.mean.tobytes(), pred.variance.tobytes()))
    assert got[1] == got[0] and got[2] == got[0]


def test_cholesky_posterior_matches_dense_inverse():
    rng = np.random.default_rng(10)
    for n in (5, 20, 50):
        train, _ = random_train(n, rng)
        h = Hyperparams(float(rng.normal()), 1.3, 1.1, 0.08)
        fmap = build_map(train, h)
        for _ in range(5):
            q = rng.uniform(-5, 5, 2)
            got = predict(fmap, q)
            mean, var = dense_posterior(h, train, q)
            assert got.mean == pytest.approx([mean], abs=1e-8)
            assert got.variance == pytest.approx([var], abs=1e-8)


def test_variance_never_increases_with_extra_point():
    rng = np.random.default_rng(12)
    h = Hyperparams(0.0, 1.0, 1.5, 0.05)
    for _ in range(10):
        coords = rng.uniform(-4, 4, size=(12, 2))
        y = rng.normal(size=12)
        base = build_map(TrainingSet.new(coords[:-1], y[:-1]), h)
        bigger = build_map(TrainingSet.new(coords, y), h)
        q = rng.uniform(-4, 4, 2)
        assert predict(bigger, q).variance[0] <= \
            predict(base, q).variance[0] + 1e-10


def test_predict_is_continuous():
    rng = np.random.default_rng(13)
    train, _ = random_train(40, rng)
    h = Hyperparams(0.0, 1.0, 2.0, 0.01)
    fmap = build_map(train, h)
    q = np.array([0.3, -0.7])
    p0 = predict(fmap, q)
    p1 = predict(fmap, q + 1e-6 * h.length_scale)
    assert abs(p1.mean[0] - p0.mean[0]) < 1e-4 * math.sqrt(h.signal_var)
