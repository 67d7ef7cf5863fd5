"""Non-parametric channel statistics: outage capacities, empirical CDFs,
Wasserstein distances, and a Rician maximum-likelihood fit.

Quantiles follow the conservative lower-order-statistic convention: the
eps-quantile of n samples is the ceil(eps*n)-th smallest sample, and the
estimate is only admitted when n > 1/eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import i0e

from .errors import (
    DegenerateInputError,
    FitError,
    InsufficientSamplesError,
)

__all__ = [
    "EmpiricalDistribution",
    "RicianFit",
    "capacity_from_power",
    "empirical_quantile",
    "wasserstein1",
    "fit_rician_ml",
    "dkw_band",
]

RICIAN_K_MAX = 1e4              # upper end of the K search
RICIAN_MIN_SAMPLES = 100        # fewest envelope samples a fit accepts
RICIAN_MAX_ITERATIONS = 500


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Immutable sorted sample set. Build with :meth:`from_samples`."""

    sorted_samples: np.ndarray

    @classmethod
    def from_samples(cls, samples) -> "EmpiricalDistribution":
        arr = np.asarray(samples, dtype=float).ravel()
        if arr.size < 1:
            raise ValueError("empirical distribution needs at least one sample")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        out = np.sort(arr)
        out.flags.writeable = False
        return cls(sorted_samples=out)

    @property
    def n(self) -> int:
        return int(self.sorted_samples.size)

    def cdf(self, x) -> np.ndarray:
        """Right-continuous empirical CDF evaluated at ``x``."""
        ranks = np.searchsorted(self.sorted_samples, np.asarray(x, dtype=float),
                                side="right")
        return ranks / self.n


@dataclass(frozen=True)
class RicianFit:
    """Rician fading parameters: K factor and mean power omega."""

    K: float
    omega: float
    log_likelihood: float

    def power_cdf(self, y) -> np.ndarray:
        """CDF of the received power ``|h|^2`` under the fitted parameters.

        The power is a scaled noncentral chi-square with 2 degrees of
        freedom: P(|h|^2 <= y) = F_ncx2(2(1+K)y/omega; df=2, nc=2K).
        """
        from scipy.stats import ncx2

        y = np.asarray(y, dtype=float)
        return ncx2.cdf(2.0 * (1.0 + self.K) * y / self.omega, df=2,
                        nc=2.0 * self.K)


def capacity_from_power(power: float, noise_power: float) -> float:
    """Shannon capacity log2(1 + power/noise_power) in bits/s/Hz.

    Accepts scalars or arrays; power must be nonnegative.
    """
    if noise_power <= 0:
        raise ValueError(f"noise power must be positive, got {noise_power}")
    p = np.asarray(power, dtype=float)
    if np.any(p < 0):
        raise ValueError("power must be nonnegative")
    out = np.log2(1.0 + p / noise_power)
    return float(out) if out.ndim == 0 else out


def _order_statistic_index(epsilon: float, n: int) -> int:
    """ceil(eps*n), computed robustly against float fuzz at integer points."""
    t = epsilon * n
    k = math.floor(t)
    if t - k > 1e-9:
        k += 1
    return max(k, 1)


def empirical_quantile(dist: EmpiricalDistribution, epsilon: float) -> float:
    """Lower eps-quantile: the ceil(eps*n)-th smallest sample.

    Requires n > 1/eps; otherwise the order statistic would sit at or below
    the first sample and carry no tail information.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0,1), got {epsilon}")
    n = dist.n
    if n * epsilon <= 1.0:
        raise InsufficientSamplesError(
            n, epsilon, required=math.floor(1.0 / epsilon) + 1)
    k = _order_statistic_index(epsilon, n)
    return float(dist.sorted_samples[k - 1])


def wasserstein1(a: EmpiricalDistribution, b: EmpiricalDistribution) -> float:
    """Exact 1-Wasserstein distance between two empirical distributions.

    Integrates |F_a^-1(u) - F_b^-1(u)| over u in (0,1) using the merged
    quantile breakpoints, so unequal sample counts are handled without
    resampling. For equal counts this reduces to the mean absolute
    difference of the sorted samples.
    """
    xs, ys = a.sorted_samples, b.sorted_samples
    n, m = xs.size, ys.size
    if n == m:
        return float(np.mean(np.abs(xs - ys)))
    # Quantile functions are constant between breakpoints i/n and j/m.
    u = np.union1d(np.arange(1, n, dtype=float) / n,
                   np.arange(1, m, dtype=float) / m)
    edges = np.concatenate([[0.0], u, [1.0]])
    mids = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    qa = xs[np.ceil(mids * n).astype(int) - 1]
    qb = ys[np.ceil(mids * m).astype(int) - 1]
    return float(np.sum(np.abs(qa - qb) * widths))


def _rician_logpdf(r: np.ndarray, K: float, omega: float) -> np.ndarray:
    """Log-density of the Rician envelope parameterized by (K, omega).

    f(r) = 2(1+K)r/omega * exp(-K - (1+K)r^2/omega) * I0(2r*sqrt(K(1+K)/omega))
    I0 is evaluated through the exponentially scaled i0e to avoid overflow:
    log I0(x) = x + log(i0e(x)).
    """
    z = 2.0 * r * math.sqrt(K * (1.0 + K) / omega)
    log_i0 = z + np.log(i0e(z))
    return (math.log(2.0 * (1.0 + K) / omega) + np.log(r)
            - K - (1.0 + K) * r * r / omega + log_i0)


def fit_rician_ml(samples) -> RicianFit:
    """Maximum-likelihood Rician fit to envelope (amplitude) samples.

    omega is profiled out as the sample mean power, reducing the problem to
    a 1-D search over the Rician factor K in [0, RICIAN_K_MAX].
    """
    r = np.asarray(samples, dtype=float).ravel()
    if r.size < RICIAN_MIN_SAMPLES:
        raise ValueError(
            f"need at least {RICIAN_MIN_SAMPLES} samples, got {r.size}")
    if np.any(r <= 0) or not np.all(np.isfinite(r)):
        raise ValueError("envelope samples must be positive and finite")
    omega = float(np.mean(r * r))
    spread = float(np.std(r * r))
    if spread < 1e-12 * omega:
        raise DegenerateInputError(
            "zero-variance samples: Rician likelihood is unbounded in K")

    def negloglik(K):
        return -float(np.sum(_rician_logpdf(r, K, omega)))

    res = minimize_scalar(negloglik, bounds=(0.0, RICIAN_K_MAX),
                          method="bounded", options={
                              "xatol": 1e-8, "maxiter": RICIAN_MAX_ITERATIONS})
    if not res.success:
        raise FitError(f"Rician ML search did not converge: {res.message} "
                       f"(iterations={res.nfev}, omega={omega:g})")
    return RicianFit(K=float(res.x), omega=omega,
                     log_likelihood=-float(res.fun))


def dkw_band(n: int, confidence: float) -> float:
    """Half-width of the DKW uniform confidence band around an empirical CDF."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0,1), got {confidence}")
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * n))
