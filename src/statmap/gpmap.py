"""Gaussian-process regression over 2-D coordinates (geographic or latent).

The statistical radio map regresses per-location outage-capacity estimates
with a squared-exponential kernel plus nugget. Hyperparameters maximize the
log marginal likelihood by multi-start L-BFGS-B in log space within box
bounds, on the analytic gradient that each evaluation reads off its own
Cholesky factor; the prior mean is profiled out in closed form at every
evaluation. The pairwise training distances are computed once per fit, and
each start gets its own two-array workspace for the kernel and its factor,
so an evaluation allocates nothing n x n. The starts run concurrently, one
thread per start up to the usable CPUs: an evaluation factors, solves and
inverts through LAPACK routines called without the interpreter lock (a
small ctypes shim over scipy's cython_lapack and cython_blas). The starts'
best points are then reduced in start order, so the fit is the same
whatever the thread count. A fitted map is immutable: it freezes the
inverse of the Cholesky factor L of K + nugget*I, inverted once when the
map is built, and the solved weight vector, and prediction is pure linear
algebra: a batch of queries costs one cross-kernel product with the
weights and one triangular product v = L^-1 k* with a column per query,
in place of the slower forward substitution (GPML Alg. 2.1). Prediction
splits the batch into blocks of PREDICT_CHUNK queries that run
concurrently, their products also through the shim; each block writes its
own slice of the moments, so they are the same whatever the thread count.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cython_blas, cython_lapack

from ._threads import map_in_order
from .errors import ConfigurationError, FitError, IllConditionedError

__all__ = [
    "Hyperparams",
    "TrainingSet",
    "FittedMap",
    "PredictiveDistribution",
    "FitDiagnostics",
    "kernel_matrix",
    "fit",
    "predict",
    "default_bounds",
]

LOG2PI = math.log(2.0 * math.pi)
JITTER_REL = 1e-9  # relative jitter when a noise-free Cholesky fails
PREDICT_CHUNK = 64  # queries per block and solve; memory n * chunk per thread
FAILED_NEG_LML = 1e12  # search objective where the kernel does not factor
FIT_MAX_EVALUATIONS = 400  # L-BFGS-B objective evaluations per start


@dataclass(frozen=True)
class Hyperparams:
    """GP hyperparameters: prior mean, signal variance, length scale, nugget."""

    prior_mean: float
    signal_var: float
    length_scale: float
    noise_var: float

    def __post_init__(self):
        values = (self.prior_mean, self.signal_var, self.length_scale,
                  self.noise_var)
        if not all(math.isfinite(v) for v in values):
            raise ConfigurationError(
                f"hyperparameters must be finite, got {values}")
        if self.signal_var <= 0 or self.length_scale <= 0:
            raise ConfigurationError(
                "signal_var and length_scale must be positive, got "
                f"{self.signal_var}, {self.length_scale}")
        if self.noise_var < 0:
            raise ConfigurationError(f"noise_var must be >= 0, got {self.noise_var}")
        # the kernel's diagonal, and its denominator's square
        if not math.isfinite(self.signal_var + self.noise_var):
            raise ConfigurationError(
                "signal_var + noise_var must be finite, got "
                f"{self.signal_var} + {self.noise_var}")
        try:
            self.length_scale ** 2
        except OverflowError:
            raise ConfigurationError(
                "length_scale ** 2 must be finite, got "
                f"{self.length_scale}") from None


@dataclass(frozen=True)
class TrainingSet:
    """Paired 2-D coordinates and scalar targets (bits/s/Hz)."""

    coords: np.ndarray
    targets: np.ndarray

    @classmethod
    def new(cls, coords, targets) -> "TrainingSet":
        c = np.atleast_2d(np.asarray(coords, dtype=float))
        t = np.asarray(targets, dtype=float).ravel()
        if c.shape[1] != 2:
            raise ConfigurationError("coordinates must be 2-D points")
        if c.shape[0] != t.size:
            raise ConfigurationError(
                f"{c.shape[0]} coordinates vs {t.size} targets")
        if c.shape[0] < 2:
            raise ConfigurationError("need at least 2 training points")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(t))):
            raise ConfigurationError("coordinates and targets must be finite")
        # No pair lies farther apart than the bounding box's corners, as
        # rounding is monotone; only where those overflow are the pairs
        # themselves checked, a chunk of rows at a time.
        corners = np.array([c.min(axis=0), c.max(axis=0)])
        if not np.isfinite(_sq_dists(corners, corners)).all() and not all(
                np.isfinite(_sq_dists(c[i:i + PREDICT_CHUNK], c)).all()
                for i in range(0, len(c), PREDICT_CHUNK)):
            raise ConfigurationError(
                "training coordinates lie too far apart: their squared "
                "distances overflow")
        c.flags.writeable = False
        t.flags.writeable = False
        return cls(coords=c, targets=t)

    @property
    def n(self) -> int:
        return self.coords.shape[0]


@dataclass(frozen=True)
class PredictiveDistribution:
    """Gaussian posterior of the outage capacity at each query of a
    :func:`predict` call: arrays in query order."""

    mean: np.ndarray
    variance: np.ndarray


@dataclass(frozen=True)
class FitDiagnostics:
    log_marginal_likelihood: float
    iterations: int
    restarts: int
    converged: bool
    jitter_applied: bool


@dataclass(frozen=True)
class FittedMap:
    """Immutable GP posterior machinery; build via :func:`fit`."""

    hyper: Hyperparams
    train: TrainingSet
    chol_inv: np.ndarray        # inverse of the lower Cholesky factor of
                                # K + noise_var*I, lower-triangular
    alpha: np.ndarray           # (K + noise_var*I)^-1 (y - m0)
    diagnostics: FitDiagnostics


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared distances, (len(a), len(b)), summed per coordinate.

    dx*dx + dy*dy is bit-identical to summing a 3-D difference array over its
    last axis, without the temporary.
    A squared distance that overflows is inf, without a warning: the kernel
    is 0 there, so such a query is infinitely far from the map's points.
    """
    with np.errstate(over="ignore"):
        d2 = a[:, 0, None] - b[None, :, 0]
        dy = a[:, 1, None] - b[None, :, 1]
        d2 *= d2
        dy *= dy
        d2 += dy
    return d2


def _covariance(d2: np.ndarray, hyper: Hyperparams, with_nugget: bool,
                out: np.ndarray | None = None) -> np.ndarray:
    """signal_var * exp(-d2 / (2 l^2)) in ``out``, or in a single new array.

    Dividing by the negated denominator equals negating the numerator bit for
    bit, as IEEE rounding is symmetric in sign. A quotient that overflows is
    -inf, without a warning, and its covariance the exact limit 0.
    """
    with np.errstate(over="ignore"):
        k = np.divide(d2, -2.0 * hyper.length_scale ** 2, out=out)
    np.exp(k, out=k)
    k *= hyper.signal_var
    if with_nugget:
        k[np.diag_indices_from(k)] += hyper.noise_var
    return k


def kernel_matrix(coords: np.ndarray, hyper: Hyperparams) -> np.ndarray:
    """Dense training covariance; the nugget rides on the diagonal only."""
    return _covariance(_sq_dists(coords, coords), hyper, with_nugget=True)


# Every factorization, solve and product with a kernel's factor goes
# through this shim. scipy's f2py LAPACK and BLAS wrappers hold the
# interpreter lock while they run, so concurrent starts would factor one
# after the other. The same routines, taken from cython_lapack's and
# cython_blas's tables of function pointers and called through ctypes,
# which releases the lock, compute the same bits.
_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))
_CHAR, _ARRAY = ctypes.c_char_p, ctypes.c_void_p
_INT, _DOUBLE = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
_ZERO, _ONE = ctypes.c_double(0.0), ctypes.c_double(1.0)


def _routine(module, name: str, *argtypes):
    """The routine name of module (cython_lapack or cython_blas) as a
    ctypes function."""
    capsule = module.__pyx_capi__[name]
    return ctypes.CFUNCTYPE(None, *argtypes)(
        _capsule_pointer(capsule, _capsule_name(capsule)))


_dpotrf = _routine(cython_lapack, "dpotrf", _CHAR, _INT, _ARRAY, _INT, _INT)
_dpotrs = _routine(cython_lapack, "dpotrs", _CHAR, _INT, _INT, _ARRAY, _INT,
                   _ARRAY, _INT, _INT)
_dpotri = _routine(cython_lapack, "dpotri", _CHAR, _INT, _ARRAY, _INT, _INT)
_dtrtri = _routine(cython_lapack, "dtrtri", _CHAR, _CHAR, _INT, _ARRAY, _INT,
                   _INT)
_dlaset = _routine(cython_lapack, "dlaset", _CHAR, _INT, _INT, _DOUBLE,
                   _DOUBLE, _ARRAY, _INT)
_dtrmm = _routine(cython_blas, "dtrmm", _CHAR, _CHAR, _CHAR, _CHAR, _INT, _INT,
                  _DOUBLE, _ARRAY, _INT, _ARRAY, _INT)


def _address(a: np.ndarray, shape: tuple, written: bool = True) -> int:
    """Address of a, which must be an F-ordered float64 array of the given
    shape, and writeable where LAPACK writes it in place (written)."""
    if not (a.shape == shape and a.dtype == np.float64
            and a.flags.f_contiguous and (a.flags.writeable or not written)):
        kind = "writeable F-ordered" if written else "F-ordered"
        raise ValueError(
            f"LAPACK and BLAS need a {kind} float64 array of shape "
            f"{shape}, got {a.dtype} {a.shape}")
    return a.ctypes.data


def _potrf(a: np.ndarray) -> int:
    """Lower Cholesky factor of the (n, n) array a, in place; returns
    LAPACK's info (> 0 where a is not positive definite). The strict upper
    triangle is then zeroed, as scipy's ``cholesky`` does: one ``dlaset``
    over the columns right of the first sets their upper triangle, diagonal
    included, which is a's strict upper triangle. A factor whose diagonal
    is not finite reports info = n, as scipy's ``cholesky`` refuses a
    matrix that is not finite; OpenBLAS's dpotrf passes it through."""
    n, info = ctypes.c_int(len(a)), ctypes.c_int()
    _dpotrf(b"L", n, _address(a, (n.value, n.value)), n, info)
    if n.value > 1:
        m = ctypes.c_int(n.value - 1)
        _dlaset(b"U", m, m, _ZERO, _ZERO, a[:, 1:].ctypes.data, n)
    if info.value == 0 and not np.isfinite(np.diag(a)).all():
        return n.value
    return info.value


def _potrs(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C^-1 b in a new array, from low, the lower factor of C:
    ``cho_solve((low, True), b)`` for one right-hand side."""
    x = np.array(b, dtype=float)
    n, one, info = ctypes.c_int(len(low)), ctypes.c_int(1), ctypes.c_int()
    _dpotrs(b"L", n, one, _address(low, (n.value, n.value), written=False),
            n, _address(x, (n.value,)), n, info)
    return x


def _trtri(low: np.ndarray) -> np.ndarray:
    """low^-1 in place of low, an (n, n) lower triangle whose strict upper
    triangle is zero and stays so: ``lapack.dtrtri(low, lower=1)`` bit for
    bit. A factor that ``_potrf`` accepted has a positive diagonal, so
    LAPACK's info is always 0 here."""
    n, info = ctypes.c_int(len(low)), ctypes.c_int()
    _dtrtri(b"L", b"N", n, _address(low, (n.value, n.value)), n, info)
    return low


def _trmm(inv: np.ndarray, b: np.ndarray) -> np.ndarray:
    """inv b in place of b, an (n, k) F-ordered array, from inv, an (n, n)
    lower triangle that is only read: ``blas.dtrmm(1.0, inv, b,
    lower=1)`` bit for bit."""
    n, k = ctypes.c_int(len(inv)), ctypes.c_int(b.shape[-1])
    _dtrmm(b"L", b"L", b"N", b"N", n, k, _ONE,
           _address(inv, (n.value, n.value), written=False), n,
           _address(b, (n.value, k.value)), n)
    return b


def _potri(low: np.ndarray) -> int:
    """The lower triangle of C^-1 in place of low, the lower factor of C;
    returns LAPACK's info. The strict upper triangle is left as it was."""
    n, info = ctypes.c_int(len(low)), ctypes.c_int()
    _dpotri(b"L", n, _address(low, (n.value, n.value)), n, info)
    return info.value


def _cholesky_with_jitter(kernel: np.ndarray, buf: np.ndarray,
                          hyper: Hyperparams):
    """Lower Cholesky factor, and whether jitter was added: kernel is
    copied into buf, a C-ordered array of its shape, and factored there in
    place by ``_potrf`` via buf's F-ordered transpose (the same matrix, as
    the kernel is symmetric). When noise-free, a kernel that does not factor
    is retried once with a tiny jitter on its diagonal."""
    np.copyto(buf, kernel)
    if _potrf(buf.T) == 0:
        return buf.T, False
    if hyper.noise_var == 0.0:
        np.copyto(buf, kernel)
        buf[np.diag_indices_from(buf)] += JITTER_REL * hyper.signal_var
        if _potrf(buf.T) == 0:
            return buf.T, True
    raise IllConditionedError(
        "kernel matrix is not positive definite for hyperparameters "
        f"(signal_var={hyper.signal_var:g}, length_scale={hyper.length_scale:g}, "
        f"noise_var={hyper.noise_var:g})")


def _lml_from_factor(low: np.ndarray, r: np.ndarray,
                     alpha: np.ndarray) -> float:
    """-0.5 r^T C^-1 r - 0.5 ln det C - n/2 ln 2pi, given low = chol(C) and
    alpha = C^-1 r."""
    logdet = 2.0 * np.sum(np.log(np.diag(low)))
    return float(-0.5 * r @ alpha - 0.5 * logdet - 0.5 * r.size * LOG2PI)


def default_bounds(train: TrainingSet, pos_d2: np.ndarray) -> dict:
    """Data-driven box bounds for (signal_var, length_scale, noise_var),
    given pos_d2, the positive squared distances between train's
    coordinates."""
    var = max(float(np.var(train.targets)), 1e-12)
    if pos_d2.size == 0:
        raise ConfigurationError("all training coordinates coincide")
    dmin = math.sqrt(float(pos_d2.min()))
    dmax = math.sqrt(float(pos_d2.max()))
    return {
        "signal_var": (1e-6 * var, 1e3 * var),
        "length_scale": (0.1 * dmin, 10.0 * dmax),
        "noise_var": (1e-9 * var, 10.0 * var),
    }


def _profiled_mean(low: np.ndarray, targets: np.ndarray) -> float:
    """GLS-optimal prior mean given the Cholesky factor of C."""
    ones = np.ones_like(targets)
    return float(ones @ _potrs(low, targets)) / float(ones @ _potrs(low, ones))


def _profiled_lml(theta: np.ndarray, d2: np.ndarray, targets: np.ndarray,
                  work: tuple):
    """LML with the prior mean profiled out, at theta = (log signal_var,
    log length_scale, log noise_var), and its gradient in theta.

    Returns (lml, profiled mean, gradient). Each component of the gradient is
    0.5 * (alpha^T dC alpha - tr(C^-1 dC)) (GPML eq. 5.9) with
    alpha = C^-1 (y - mean); the profiled mean maximizes the LML, so its own
    derivative drops out. Raises IllConditionedError when C does not factor,
    or when theta gives no valid Hyperparams.

    ``work`` is a pair of C-ordered (n, n) arrays: C, then K and K * d2,
    are formed in the first, and the second takes the factor of C and then
    C^-1 in place; the arithmetic is that of fresh arrays.
    The LAPACK calls run without the interpreter lock, so evaluations on
    separate workspaces run concurrently.
    """
    signal_var, length_scale, noise_var = (float(v) for v in np.exp(theta))
    try:
        hyper = Hyperparams(0.0, signal_var, length_scale, noise_var)
    except ConfigurationError as exc:
        raise IllConditionedError(str(exc)) from None
    k = _covariance(d2, hyper, with_nugget=True, out=work[0])
    low, _ = _cholesky_with_jitter(k, work[1], hyper)
    mean = _profiled_mean(low, targets)
    r = targets - mean
    alpha = _potrs(low, r)
    lml = _lml_from_factor(low, r, alpha)
    # the lower triangle of C^-1, in place of the factor
    info = _potri(low)
    if info != 0:
        raise IllConditionedError(f"inverting the kernel failed (info={info})")
    # low is Fortran-ordered; its transpose is C-ordered, as the kernels
    # are, and holds C^-1 in the upper triangle and the factor's zeros
    # below it, which by symmetry serves the traces below equally well.
    upper, inv_diag = low.T, np.diag(low)
    # C minus the nugget, exactly: K's diagonal is signal_var * exp(0).
    k[np.diag_indices_from(k)] = signal_var

    def quad_minus_trace(dc):
        trace = 2.0 * np.vdot(upper, dc) - inv_diag @ np.diag(dc)
        return alpha @ (dc @ alpha) - trace

    grad = 0.5 * np.array([     # K, then K * d2 in place of it
        quad_minus_trace(k),
        quad_minus_trace(np.multiply(k, d2, out=k)) / length_scale ** 2,
        noise_var * (alpha @ alpha - inv_diag.sum())])
    return lml, mean, grad


def fit(train: TrainingSet, init: Hyperparams | None = None, *,
        restarts: int, seed: int = 0) -> FittedMap:
    """Maximize the log marginal likelihood and freeze the posterior solves.

    L-BFGS-B runs on the analytic gradient in (log signal_var,
    log length_scale, log noise_var) within ``default_bounds``, with the
    prior mean profiled out analytically at each evaluation. A point whose
    kernel does not factor scores FAILED_NEG_LML with a zero gradient, so the
    line search backs off from it. Multi-start jitters are seeded, so the
    whole fit is deterministic; FIT_MAX_EVALUATIONS caps the evaluations per
    start.

    The starts run concurrently (``map_in_order``). Each start reuses one
    workspace of its own (``_profiled_lml``) and keeps its own best point:
    its first evaluation to reach its lowest -LML. The bests are reduced in start order with a
    strict comparison, which picks the evaluation that one best shared by
    the starts run one after the other picks: the first, in start order, to
    reach the minimum. ``converged`` is that of the last start whose best
    beat every earlier start's, and ``iterations`` counts the evaluations
    of all starts. The map's factor is a new array.
    """
    from scipy.optimize import minimize
    if restarts < 1:
        raise ConfigurationError(f"restarts must be at least 1, got {restarts}")
    d2 = _sq_dists(train.coords, train.coords)
    pos_d2 = d2[d2 > 0]
    bounds = default_bounds(train, pos_d2)
    lo, hi = np.log([bounds["signal_var"], bounds["length_scale"],
                     bounds["noise_var"]]).T
    if init is None:
        var = max(float(np.var(train.targets)), 1e-10)
        med = math.sqrt(float(np.median(pos_d2, overwrite_input=True)))
        init = Hyperparams(prior_mean=float(np.mean(train.targets)),
                           signal_var=var, length_scale=med,
                           noise_var=0.1 * var)
    del pos_d2      # up to n^2 values: freed before the starts' workspaces
    x0 = np.clip(np.log([init.signal_var, init.length_scale,
                         max(init.noise_var, math.exp(lo[2]))]), lo, hi)
    rng = np.random.default_rng(seed)
    starts = [x0] + [np.clip(x0 + rng.normal(0.0, 0.7, 3), lo, hi)
                     for _ in range(restarts - 1)]

    def run(start):
        """The best point that L-BFGS-B from start evaluates, with its
        profiled mean, and the optimizer's result."""
        work = (np.empty_like(d2), np.empty_like(d2))
        best = {"neg_lml": math.inf}

        def objective(theta):
            try:
                lml, mean, grad = _profiled_lml(theta, d2, train.targets, work)
            except IllConditionedError:
                return FAILED_NEG_LML, np.zeros(3)
            if -lml < best["neg_lml"]:
                best.update(neg_lml=-lml, theta=theta.copy(), prior_mean=mean)
            return -lml, -grad

        return best, minimize(objective, start, jac=True, method="L-BFGS-B",
                              bounds=list(zip(lo, hi)),
                              options={"maxfun": FIT_MAX_EVALUATIONS,
                                       "ftol": 1e-12, "gtol": 1e-6})

    runs = map_in_order(run, starts)

    # The best point of all starts and its profiled mean, which build_map
    # then freezes as they are.
    best, total_iter, converged = {"neg_lml": math.inf}, 0, False
    for run_best, res in runs:
        total_iter += int(res.nfev)
        if run_best["neg_lml"] < best["neg_lml"]:
            best, converged = run_best, bool(res.success)
    if "theta" not in best:
        raise FitError("all restarts failed to factorize the kernel matrix")

    signal_var, length_scale, noise_var = np.exp(best["theta"])
    hyper = Hyperparams(prior_mean=best["prior_mean"],
                        signal_var=float(signal_var),
                        length_scale=float(length_scale),
                        noise_var=float(noise_var))
    # the kernel in place of d2, which nothing reads after it
    fmap = build_map(train, hyper,
                     _covariance(d2, hyper, with_nugget=True, out=d2))
    return replace(fmap, diagnostics=replace(
        fmap.diagnostics, iterations=total_iter, restarts=len(starts),
        converged=converged))


def build_map(train: TrainingSet, hyper: Hyperparams,
              k: np.ndarray | None = None) -> FittedMap:
    """Freeze a map at fixed hyperparameters (no optimization).

    ``k`` is ``kernel_matrix(train.coords, hyper)``, when the caller already
    holds it; the kernel is factored once, and the weight vector and the
    log marginal likelihood come from that factor. The factor is then
    inverted in place (``_trtri``), so the map holds one n x n array. The
    inverse factor and the weight vector are read-only, like the training
    arrays, so one map can be shared by many callers.
    """
    if hyper.noise_var == 0.0 and (
            len(np.unique(train.coords, axis=0)) < train.n):
        raise ConfigurationError(
            "duplicate training coordinates require a positive nugget")
    if k is None:
        k = kernel_matrix(train.coords, hyper)
    low, jit = _cholesky_with_jitter(k, np.empty(k.shape), hyper)
    r = train.targets - hyper.prior_mean
    alpha = _potrs(low, r)
    lml = _lml_from_factor(low, r, alpha)
    inv = _trtri(low)
    inv.flags.writeable = False
    alpha.flags.writeable = False
    return FittedMap(hyper=hyper, train=train, chol_inv=inv, alpha=alpha,
                     diagnostics=FitDiagnostics(lml, 0, 0, True, jit))


def check_queries(queries) -> np.ndarray:
    """The queries as a (k, 2) float array, one point [x, y] being a batch
    of one; any other shape, or a coordinate not finite, is refused."""
    q = np.atleast_2d(np.asarray(queries, dtype=float))
    if q.ndim != 2 or q.shape[1] != 2 or not np.isfinite(q).all():
        raise ConfigurationError("queries must be finite 2-D points [x, y]")
    return q


def predict(fmap: FittedMap, queries) -> PredictiveDistribution:
    """Posterior at each query point, as arrays of means and variances in
    query order.

    Queries are evaluated in blocks of up to ``PREDICT_CHUNK``, on up to
    one thread per usable CPU (``map_in_order``): per block, the (n, block)
    cross-kernel, formed F-ordered, its product with the weight vector, and
    then its product with the inverse factor in place of it (``_trmm``,
    without the interpreter lock), each written to the block's own slice of
    the results. Memory stays O(n * block) per thread whatever the batch
    size; one point [x, y] is a batch of one. A block's bits do not depend
    on the thread that runs it, so the moments do not depend on the CPU
    count. BLAS multiplies many columns in other blocks than one, so a
    query's moments may differ from those of the same query in a batch of
    another size by ~1e-14. On a well-conditioned map the product is as
    accurate as forward substitution with the factor. On an ill-conditioned
    one (points 1e-7 apart, a nugget of 1e-9 signal_var), the variances
    next to the data err up to ~2e-13 signal_var, where forward
    substitution errs ~1e-15; the factor's own rounding already makes
    errors of ~1e-12 signal_var away from the data. The frozen inverse
    factor was made from a factor checked finite and is not scanned again;
    the queries are checked by ``check_queries``.
    """
    q = check_queries(queries)
    hyper = fmap.hyper
    means, variances = np.empty(len(q)), np.empty(len(q))

    def moments(start):
        block = slice(start, start + PREDICT_CHUNK)
        # the (n, block) cross-kernel as the F-ordered transpose of the
        # (block, n) one: the same distances, bit for bit
        kx = _covariance(_sq_dists(q[block], fmap.train.coords).T, hyper,
                         with_nugget=False)
        means[block] = hyper.prior_mean + fmap.alpha @ kx   # before _trmm
        v = _trmm(fmap.chol_inv, kx)                        # overwrites kx
        variances[block] = hyper.signal_var - np.einsum("ij,ij->j", v, v)

    map_in_order(moments, range(0, len(q), PREDICT_CHUNK))
    return PredictiveDistribution(mean=means,
                                  variance=np.maximum(variances, 0.0))
