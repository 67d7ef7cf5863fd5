"""Synthetic spatially consistent propagation environment.

A Scenario freezes a set of stationary random fields (per-path log-amplitude
fields, a shared shadowing field, per-path angle fields) realized as sums of
random cosines whose wavevectors are drawn from the spectral density of the
isotropic exponential correlation exp(-d/d_decorr). Field values at any
coordinate are therefore lazy, deterministic in (config, seed), and
approximately Gaussian for a large number of spectral components.

Fast fading comes from i.i.d. uniform path phases drawn per sample (block
fading), so received power at a fixed location is the squared magnitude of a
sum of fixed-amplitude random-phase paths. With one antenna that magnitude
has an exact CDF (Kluyver 1906), which the outage oracle sums as a Bessel
series. Everything is reproducible through seed sub-streams derived by
hashing (purpose label, location, sample seed).
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field, fields
from numbers import Integral

import numpy as np

from .errors import ConfigurationError, NumericalError
from .stats import EmpiricalDistribution, capacity_from_power, empirical_quantile

__all__ = [
    "Location",
    "ScenarioConfig",
    "PointProcessConfig",
    "CosineField",
    "Scenario",
    "generate_scenario",
    "check_finite",
    "check_seed",
    "derive_seed",
    "sample_locations_thomas",
    "draw_power_samples",
    "draw_csi",
    "true_outage_capacities",
    "multipath_power_samples",
    "multipath_power_cdf",
]

TWO_PI = 2.0 * math.pi
CELL_EDGE_TOL = 1e-9    # meters a location may lie outside the cell
# Path entries per BLAS call when power draws are combined over antennas.
# OpenBLAS splits a matrix-vector product of 4096 entries or more over its
# threads; for a product this thin the split costs more than it saves, and
# its spinning helper threads take the cores from the oracle's worker
# threads. Rows are independent, so the blocking changes no value.
GEMV_BLOCK_ENTRIES = 3584
KLUYVER_TERMS = 1024            # the longest Kluyver series: z_k up to 3216
KLUYVER_FIRST_TERMS = 128       # each CDF starts here and doubles as needed
# Convergence test: the error bound may be at most this fraction of the CDF
# level. The partial sums oscillate next to a hard edge of the support, so
# the bound spans all of them over the second half of the terms.
KLUYVER_CONVERGENCE_TOL = 5e-3
# Two or more paths give terms falling at least as k^-1.5. Where they do not
# oscillate (next to a singularity of the density), the rest of the series
# after N terms is 1 + sqrt(2) times the spread of those partial sums.
KLUYVER_TAIL_FACTOR = 1.0 + math.sqrt(2.0)
# The root search stops when the CDF is within this fraction of eps of eps.
KLUYVER_ROOT_TOL = 1e-10
KLUYVER_MAX_ITERATIONS = 100


def _entropy(data: bytes) -> int:
    """Stable 64-bit entropy word for a label or a location (never hash())."""
    return int.from_bytes(hashlib.blake2s(data, digest_size=8).digest(),
                          "little")


def _substream(*entropy) -> np.random.Generator:
    words = [e & 0xFFFFFFFFFFFFFFFF if isinstance(e, (int, np.integer))
             else _entropy(str(e).encode("utf-8")) for e in entropy]
    return np.random.default_rng(np.random.SeedSequence(words))


def check_seed(seed) -> None:
    """Refuse a root seed that derive_seed cannot pack into 16 signed
    bytes, or that is not an integer."""
    if not (isinstance(seed, Integral) and not isinstance(seed, bool)
            and -2**127 <= seed < 2**127):
        raise ConfigurationError(
            f"seed must be an integer in [-2^127, 2^127), got {seed!r}")


def check_finite(config) -> None:
    """Refuse a config dataclass that has a non-finite float field."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigurationError(f"{f.name} must be finite, got {value}")


def derive_seed(root: int, *labels) -> int:
    """Stable 64-bit sub-seed from a root seed and purpose labels."""
    h = hashlib.blake2s(digest_size=8)
    h.update(int(root).to_bytes(16, "little", signed=True))
    for lab in labels:
        h.update(str(lab).encode("utf-8") + b"\x00")
    return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True)
class Location:
    """A point in the cell; z is height above ground in meters."""

    x: float
    y: float
    z: float = 1.5

    def __post_init__(self):
        if self.z < 0:
            raise ConfigurationError(f"location height must be >= 0, got {self.z}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


@dataclass(frozen=True)
class ScenarioConfig:
    """Propagation environment parameters.

    The cell is the square [-cell_side/2, cell_side/2]^2 at user_height.
    Path amplitudes combine log-distance pathloss, a shared shadowing field,
    and independent per-path fields, all in dB, on top of a deterministic
    per-path weight profile decaying as exp(-path_weight_decay * p).
    """

    cell_side: float = 200.0
    bs_location: Location = field(default_factory=lambda: Location(-100.0, 0.0, 10.0))
    user_height: float = 1.5
    num_paths: int = 7
    pathloss_exponent: float = 3.0
    pathloss_ref_db: float = 30.0       # loss at 1 m
    shadowing_std_db: float = 4.0
    shadowing_decorrelation_m: float = 60.0
    path_amp_field_std_db: float = 2.5
    path_amp_decorrelation_m: float = 50.0
    noise_power: float = 1e-13          # linear watts
    num_antennas: int = 1
    field_components: int = 128         # spectral components per random field
    delay_spread_s: float = 5e-7        # per-path delays drawn from [0, this)
    angle_spread_rad: float = 0.6       # std of the per-path angle field
    path_weight_decay: float = 0.45

    def __post_init__(self):
        check_finite(self)
        if self.num_paths < 1:
            raise ConfigurationError("num_paths must be >= 1")
        if self.field_components < 1:
            raise ConfigurationError("field_components must be >= 1")
        if self.num_antennas < 1:
            raise ConfigurationError("num_antennas must be >= 1")
        for name in ("cell_side", "shadowing_decorrelation_m",
                     "path_amp_decorrelation_m", "noise_power"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.delay_spread_s < 0 or self.angle_spread_rad < 0:
            raise ConfigurationError("delay spread and angle spread must be >= 0")
        if self.user_height < 0:
            raise ConfigurationError("user_height must be >= 0")

    def cell_bounds(self) -> tuple[float, float, float, float]:
        h = self.cell_side / 2.0
        return (-h, h, -h, h)

    def contains(self, loc: Location) -> bool:
        xmin, xmax, ymin, ymax = self.cell_bounds()
        tol = CELL_EDGE_TOL
        return (xmin - tol <= loc.x <= xmax + tol
                and ymin - tol <= loc.y <= ymax + tol)


@dataclass(frozen=True)
class PointProcessConfig:
    """Thomas cluster process: Poisson parents, Gaussian-scattered offspring."""

    parent_intensity: float = 5e-4      # parents per m^2
    mean_cluster_size: float = 25.0     # expected offspring per parent
    offspring_std: float = 8.0          # isotropic Gaussian offset std, meters

    def __post_init__(self):
        check_finite(self)
        if self.parent_intensity <= 0 or self.mean_cluster_size <= 0:
            raise ConfigurationError("intensities must be positive")
        if self.offspring_std < 0:
            raise ConfigurationError("offspring_std must be >= 0")


class CosineField:
    """Stationary random field: sum of M weighted random cosines.

    Wavevectors are drawn from the 2-D spectral density of exp(-d/decorr)
    (radial CDF G(k) = 1 - (1+(k*L)^2)^(-1/2), direction uniform), so the
    ensemble covariance of the field is variance * exp(-d/decorr) and values
    approach Gaussianity as M grows.
    """

    __slots__ = ("wavevectors", "phases", "amplitude")

    def __init__(self, std: float, decorrelation: float, n_components: int,
                 rng: np.random.Generator):
        u = rng.random(n_components)
        radial = np.sqrt((1.0 - u) ** -2 - 1.0) / decorrelation
        direction = rng.uniform(0.0, TWO_PI, n_components)
        self.wavevectors = radial[:, None] * np.column_stack(
            [np.cos(direction), np.sin(direction)])
        self.phases = rng.uniform(0.0, TWO_PI, n_components)
        self.amplitude = std * math.sqrt(2.0 / n_components)

    def evaluate(self, xy: np.ndarray) -> np.ndarray:
        """Field values at (N, 2) planar coordinates.

        The phase x*kx + y*ky + phase is formed elementwise, not as a matrix
        product, whose rounding depends on N: a point's value is then the
        same however many points are evaluated with it.
        """
        xy = np.atleast_2d(np.asarray(xy, dtype=float))
        args = xy[:, :1] * self.wavevectors[:, 0]
        args += xy[:, 1:2] * self.wavevectors[:, 1]
        args += self.phases
        return self.amplitude * np.cos(args, out=args).sum(axis=1)


@dataclass(frozen=True)
class Scenario:
    """Frozen propagation environment; immutable and shareable across threads."""

    config: ScenarioConfig
    seed: int
    shadow_field: CosineField
    path_amp_fields: tuple
    angle_fields: tuple
    base_angles: np.ndarray     # (P,) frozen mean arrival angle per path
    delays: np.ndarray          # (P,) frozen per-path delay, seconds
    path_weights: np.ndarray    # (P,) deterministic linear weight profile

    # -------------------------------------------------- field evaluation

    def _check_inside(self, loc: Location):
        if not self.config.contains(loc):
            raise ValueError(
                f"location ({loc.x}, {loc.y}) outside the cell "
                f"{self.config.cell_bounds()}")
        bs = self.config.bs_location
        if (loc.x, loc.y, loc.z) == (bs.x, bs.y, bs.z):
            raise ValueError("user cannot be co-located with the base station")

    def path_amplitudes(self, locs: np.ndarray) -> np.ndarray:
        """Deterministic per-path linear amplitudes at (N, 3) locations."""
        locs = np.atleast_2d(np.asarray(locs, dtype=float))
        xy = locs[:, :2]
        d = np.linalg.norm(locs - self.config.bs_location.as_array(), axis=1)
        pl_db = self.config.pathloss_ref_db + 10.0 * \
            self.config.pathloss_exponent * np.log10(np.maximum(d, 1e-9))
        shadow_db = self.shadow_field.evaluate(xy)
        gains_db = np.stack(
            [(-pl_db + shadow_db + f.evaluate(xy)) for f in self.path_amp_fields],
            axis=1)
        return self.path_weights * 10.0 ** (gains_db / 20.0)

    def path_angles(self, locs: np.ndarray) -> np.ndarray:
        """Per-path arrival angles (radians) at (N, 3) locations."""
        locs = np.atleast_2d(np.asarray(locs, dtype=float))
        xy = locs[:, :2]
        wobble = np.stack([f.evaluate(xy) for f in self.angle_fields], axis=1)
        return self.base_angles + self.config.angle_spread_rad * wobble

    def path_rays(self, locs) -> list:
        """(amplitudes, angles) per location, from one path_amplitudes and
        one path_angles call over all of them. A field value does not depend
        on how many points share its evaluation (CosineField.evaluate), so
        each pair equals the per-location values bit for bit."""
        xyz = [loc.as_array() for loc in locs]
        return list(zip(self.path_amplitudes(xyz), self.path_angles(xyz)))

    # -------------------------------------------------- sampling helpers

    def _geometry(self, loc: Location, antennas: int, rays=None):
        """Per-path amplitudes at loc and its (paths, antennas) steering
        matrix; rays is loc's pair from path_rays, or None to evaluate the
        fields at loc alone."""
        if rays is None:
            (rays,) = self.path_rays([loc])
        a, theta = rays
        ant = np.arange(antennas)
        steering = np.exp(-1j * math.pi * np.outer(np.sin(theta), ant))
        return a, steering

    def _phase_rng(self, loc: Location, purpose: str, sample_seed: int):
        return _substream(self.seed, purpose,
                          _entropy(loc.as_array().tobytes()), sample_seed)


def generate_scenario(config: ScenarioConfig, seed: int) -> Scenario:
    """Realize all random fields and per-path geometry for (config, seed).

    Field sub-streams depend only on the seed and a purpose label, so two
    configs differing only in num_antennas or noise_power share identical
    large-scale fields.
    """
    if not isinstance(config, ScenarioConfig):
        raise ConfigurationError("config must be a ScenarioConfig")
    m = config.field_components
    shadow = CosineField(config.shadowing_std_db,
                         config.shadowing_decorrelation_m, m,
                         _substream(seed, "field:shadowing"))
    amp_fields = tuple(
        CosineField(config.path_amp_field_std_db,
                    config.path_amp_decorrelation_m, m,
                    _substream(seed, "field:path-amp", p))
        for p in range(config.num_paths))
    angle_fields = tuple(
        CosineField(1.0, config.path_amp_decorrelation_m, m,
                    _substream(seed, "field:path-angle", p))
        for p in range(config.num_paths))
    geom = _substream(seed, "path-geometry")
    base_angles = geom.uniform(0.0, TWO_PI, config.num_paths)
    delays = geom.uniform(0.0, config.delay_spread_s, config.num_paths)
    weights = np.exp(-config.path_weight_decay * np.arange(config.num_paths))
    weights /= np.linalg.norm(weights)
    return Scenario(config=config, seed=int(seed), shadow_field=shadow,
                    path_amp_fields=amp_fields, angle_fields=angle_fields,
                    base_angles=base_angles, delays=delays,
                    path_weights=weights)


def sample_locations_thomas(pp: PointProcessConfig,
                            bounds: tuple[float, float, float, float],
                            user_height: float, seed: int) -> list[Location]:
    """Thomas process draw on a rectangle; offspring outside are discarded."""
    xmin, xmax, ymin, ymax = bounds
    if xmax <= xmin or ymax <= ymin:
        raise ConfigurationError(f"empty sampling region {bounds}")
    rng = _substream(seed, "thomas-process")
    area = (xmax - xmin) * (ymax - ymin)
    n_parents = rng.poisson(pp.parent_intensity * area)
    parents = np.column_stack([
        rng.uniform(xmin, xmax, n_parents),
        rng.uniform(ymin, ymax, n_parents),
    ])
    counts = rng.poisson(pp.mean_cluster_size, n_parents)
    total = int(counts.sum())
    offsets = rng.normal(0.0, pp.offspring_std, (total, 2)) \
        if pp.offspring_std > 0 else np.zeros((total, 2))
    pts = np.repeat(parents, counts, axis=0) + offsets
    inside = ((pts[:, 0] >= xmin) & (pts[:, 0] <= xmax)
              & (pts[:, 1] >= ymin) & (pts[:, 1] <= ymax))
    return [Location(float(x), float(y), user_height) for x, y in pts[inside]]


def _path_phasors(a: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """a * exp(1j * phases), built in one complex array.

    libm's complex exponential at a zero real part is (cos, sin), so this
    equals the formula bit for bit (the tests pin it) without its three
    complex temporaries.
    """
    h = np.empty(phases.shape, dtype=complex)
    h.real = np.cos(phases)     # contiguous ufunc outputs take the SIMD loops
    h.imag = np.sin(phases)
    h *= a
    return h


def multipath_power_samples(amplitudes, n: int,
                            rng: np.random.Generator) -> np.ndarray:
    """|sum_p a_p e^{j phi_p}|^2 with i.i.d. uniform phases, n draws."""
    a = np.asarray(amplitudes, dtype=float)
    h = _path_phasors(a, rng.uniform(0.0, TWO_PI, (n, a.size))).sum(axis=1)
    return np.abs(h) ** 2


def draw_power_samples(scenario: Scenario, loc: Location, n: int,
                       sample_seed: int, rays=None) -> np.ndarray:
    """n effective received power samples (MRC over antennas), noiseless.
    rays is loc's (amplitudes, angles) from Scenario.path_rays, if the
    caller evaluated the fields for many locations at once."""
    if n < 1:
        raise ValueError("need n >= 1 power samples")
    scenario._check_inside(loc)
    a, steering = scenario._geometry(loc, scenario.config.num_antennas, rays)
    rng = scenario._phase_rng(loc, "power", sample_seed)
    paths = _path_phasors(a, rng.uniform(0.0, TWO_PI, (n, a.size)))
    h = np.empty((n, steering.shape[1]), dtype=complex)
    block = max(1, GEMV_BLOCK_ENTRIES // a.size)
    for start in range(0, n, block):
        np.matmul(paths[start:start + block], steering,
                  out=h[start:start + block])
    return np.sum(np.abs(h) ** 2, axis=1)


def draw_csi(scenario: Scenario, loc: Location, sample_seed: int,
             antennas: int, subcarriers: int, bandwidth_hz: float,
             rays=None) -> np.ndarray:
    """One (antennas, subcarriers) channel snapshot on a grid of subcarriers
    spaced bandwidth_hz / subcarriers apart from 0 Hz; rays as for
    draw_power_samples. The scenario's own num_antennas sets the rate band
    of the power draws and plays no part here."""
    scenario._check_inside(loc)
    a, steering = scenario._geometry(loc, antennas, rays)
    freqs = bandwidth_hz / subcarriers * np.arange(subcarriers)
    ramps = np.exp(-1j * TWO_PI * np.outer(scenario.delays, freqs))
    rng = scenario._phase_rng(loc, "csi", sample_seed)
    paths = _path_phasors(a, rng.uniform(0.0, TWO_PI, a.size))
    return np.einsum("p,pa,ps->as", paths, steering, ramps)


@functools.cache
def _kluyver_grid(n_terms=KLUYVER_TERMS) -> tuple[np.ndarray, np.ndarray]:
    """The first n_terms zeros z of J0 and the weights 2 / (z J1(z)^2),
    built on first use; read-only, as every caller shares them."""
    from scipy.special import j1, jn_zeros
    zeros = jn_zeros(0, n_terms)
    grid = zeros, 2.0 / (zeros * j1(zeros) ** 2)
    for part in grid:
        part.flags.writeable = False
    return grid


# The exact CDF of |sum_p a_p e^{j phi_p}| / sum_p a_p under i.i.d. uniform
# phases, with the amplitudes scaled to sum to 1, is 1 beyond r = 1 and
#
#     P(|h| <= r) = r * sum_k w_k J1(z_k r) prod_p J0(a_p z_k)
#
# on [0, 1] (Kluyver's integral as a Fourier-Bessel series on the unit disk:
# Watson, ch. 18; Abdi et al., IEEE Trans. Commun. 48(1), 2000). The helpers
# below work on blocks of channels, one row each. A row goes through the
# same elementwise operations and per-row sums in any block, so its results
# do not depend on the other rows, and a block of one gives them too.


def _j0_products(scaled, nodes, weights) -> np.ndarray:
    """Series weights times prod_p J0(a_p z) at the zeros z, one row per
    row of scaled amplitudes."""
    from scipy.special import j0
    out = np.empty((len(scaled), nodes.size))
    out[:] = weights
    arg = np.empty_like(out)
    for amp in np.transpose(scaled):
        out *= j0(np.multiply(amp[:, None], nodes, out=arg), out=arg)
    return out


def _kluyver_cdf(r, nodes, weighted, terms=None):
    """The CDF at each r[i, k] in [0, 1] on row i of weighted, and its
    error bound (KLUYVER_TAIL_FACTOR times the largest distance from it of a
    partial sum over the second half of the terms): (values, spreads)."""
    from scipy.special import j1
    terms = np.multiply(r[..., None], nodes, out=terms)
    j1(terms, out=terms)
    terms *= weighted[:, None]
    np.cumsum(terms, axis=-1, out=terms)
    full = terms[..., -1].copy()
    tail = terms[..., nodes.size // 2 - 1:]
    tail -= full[..., None]
    return r * full, KLUYVER_TAIL_FACTOR * r * np.abs(tail, out=tail).max(-1)


def _illinois(nodes, weighted, level) -> np.ndarray:
    """Illinois regula falsi for CDF = level on each row of weighted.

    Returns the roots in (0, 1), NaN where a search leaves its bracket,
    stops (within KLUYVER_ROOT_TOL * level) where the series fails its
    convergence test, or runs out of iterations. The rows still searching
    share one J1 evaluation per iteration.
    """
    roots = np.full(len(weighted), np.nan)
    rows = np.arange(len(weighted))
    # per row: lo, hi, the CDF minus level at each, and the last side moved
    state = np.repeat([[0.0], [1.0], [-level], [1.0 - level], [0.0]],
                      len(weighted), axis=1)
    terms = np.empty((len(weighted), 1, nodes.size))
    for _ in range(KLUYVER_MAX_ITERATIONS):
        lo, hi, g_lo, g_hi, side = state
        r = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
        value, spread = map(np.ravel, _kluyver_cdf(
            r[:, None], nodes, weighted, terms[:rows.size]))
        g = value - level
        left = ~((lo < r) & (r < hi))
        done = np.abs(g) <= KLUYVER_ROOT_TOL * level
        found = done & ~left & (spread <= KLUYVER_CONVERGENCE_TOL * level)
        roots[rows[found]] = r[found]
        below = g < 0.0
        above = ~below
        g_hi[below & (side < 0.0)] /= 2.0
        g_lo[above & (side > 0.0)] /= 2.0
        np.copyto(lo, r, where=below)
        np.copyto(g_lo, g, where=below)
        np.copyto(hi, r, where=above)
        np.copyto(g_hi, g, where=above)
        side[:] = np.where(below, -1.0, 1.0)
        searching = ~(left | done)
        if not searching.all():
            rows, state = rows[searching], state[:, searching]
            weighted = weighted[searching]
            if not rows.size:
                break
    return roots


def _kluyver_quantiles(scaled, level):
    """Where each row's CDF crosses level, on the shortest series that
    has converged there.

    All rows start on the first KLUYVER_FIRST_TERMS terms of the
    KLUYVER_TERMS-term series; the rows whose search fails run again on
    twice the terms, up to KLUYVER_TERMS. Every series is a prefix of the
    longer ones, so doubling computes J0 at the new zeros only. Returns the
    roots, NaN where no series converges, and each row's series as (row
    indices, their J0 products) pairs, one per length: the shortest that
    converged, or the longest.
    """
    all_nodes, all_weights = _kluyver_grid()
    n = KLUYVER_FIRST_TERMS
    rows = np.arange(len(scaled))
    weighted = _j0_products(scaled, all_nodes[:n], all_weights[:n])
    roots, grids = np.full(len(scaled), np.nan), []
    while True:
        found = _illinois(all_nodes[:n], weighted, level)
        ok = ~np.isnan(found)
        roots[rows[ok]] = found[ok]
        if ok.all() or n >= KLUYVER_TERMS:
            grids.append((rows, weighted))
            return roots, grids
        if ok.any():
            grids.append((rows[ok], weighted[ok]))
        rows = rows[~ok]
        weighted = np.hstack([weighted[~ok], _j0_products(
            scaled[rows], all_nodes[n:2 * n], all_weights[n:2 * n])])
        n *= 2


def multipath_power_cdf(amplitudes, powers) -> np.ndarray:
    """P(|sum_p a_p e^{j phi_p}|^2 <= power) at each power, from the exact
    Kluyver CDF on the KLUYVER_TERMS-term series, and 1 from the peak power
    (sum_p a_p)^2 up; NumericalError at the first value below the peak that
    fails the series' convergence test (see ``true_outage_capacities``)."""
    a = np.asarray(amplitudes, dtype=float)
    powers = np.asarray(powers, dtype=float)
    nodes, weights = _kluyver_grid()
    radii = np.sqrt(powers) / a.sum()
    values, spreads = map(np.ravel, _kluyver_cdf(
        radii[None], nodes, _j0_products((a / a.sum())[None], nodes, weights)))
    beyond = radii >= 1.0
    failed = np.flatnonzero(
        ~beyond & ~(spreads <= KLUYVER_CONVERGENCE_TOL * values))
    if failed.size:
        raise NumericalError(f"Kluyver CDF of amplitudes {a.tolist()} has "
                             f"not converged at power {powers[failed[0]]:.6g}")
    return np.where(beyond, 1.0, values)


def _exact_truths(scenario: Scenario, locs, epsilon: float, rates) -> list:
    """The single-antenna truth at each location from the Kluyver CDF, or
    None where its series does not converge."""
    noise = scenario.config.noise_power
    a = scenario.path_amplitudes([loc.as_array() for loc in locs])
    peaks = a.sum(axis=1)
    roots, grids = _kluyver_quantiles(a / peaks[:, None], epsilon)
    peaks, roots = peaks.tolist(), roots.tolist()
    truths = [None] * len(locs)
    for rows, weighted in grids:
        # the radius of each rate's magnitude; a rate out of reach (where
        # 2^rate may also overflow) is out at radius 1
        radii = []
        for user in rows.tolist():
            max_rate = math.log2(1.0 + peaks[user] ** 2 / noise)
            radii.append([1.0 if rate >= max_rate else math.sqrt(max(
                0.0, math.expm1(rate * math.log(2.0))) * noise) / peaks[user]
                for rate in rates[user]])
        values = _kluyver_cdf(np.array(radii),
                              _kluyver_grid()[0][:weighted.shape[1]],
                              weighted)[0].tolist()
        for user, user_radii, user_values in zip(rows.tolist(), radii, values):
            if math.isnan(roots[user]):
                continue
            truths[user] = (
                math.log2(1.0 + (peaks[user] * roots[user]) ** 2 / noise),
                [0.0 if r <= 0.0 else 1.0 if r >= 1.0 else min(1.0, max(0.0, v))
                 for r, v in zip(user_radii, user_values)])
    return truths


def true_outage_capacities(scenario: Scenario, locs, epsilon: float, rates,
                           oracle_seeds, outage_seeds) -> list:
    """Truth at each location: its eps-outage capacity and the outage
    probability of each of its rates, as (capacity, [outage per rate]) in
    location order. rates, oracle_seeds and outage_seeds have one entry per
    location, and every location has the same number of rates.

    With one antenna both come from the exact CDF of the received magnitude
    (Kluyver): the capacity at the root of CDF = eps, the outage of a rate
    as the CDF at its magnitude, both on the same Fourier-Bessel series.
    The series is trusted where its error bound (see _kluyver_cdf) at the
    root is at most KLUYVER_CONVERGENCE_TOL * eps. Each location starts on
    KLUYVER_FIRST_TERMS terms and doubles them up to KLUYVER_TERMS until
    that test passes; one or two dominant paths fail it even there and fall
    back to Monte Carlo, as do several antennas (MRC). The locations are
    searched together, and each one's truth is the same in any block of
    locations, a block of one included.

    Monte Carlo takes n = ceil(100 / eps) draws twice: the capacity is the
    lower eps-quantile of n capacity draws taken with sample seed
    oracle_seed, and the outage probability of a rate is the fraction of
    one shared set of n draws, taken with sample seed outage_seed, that
    lies strictly below it.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0,1), got {epsilon}")
    for loc in locs:
        scenario._check_inside(loc)
    truths = _exact_truths(scenario, locs, epsilon, rates) \
        if scenario.config.num_antennas == 1 else [None] * len(locs)
    noise, n = scenario.config.noise_power, math.ceil(100.0 / epsilon)
    for user, truth in enumerate(truths):
        if truth is not None:
            continue
        oracle = capacity_from_power(draw_power_samples(
            scenario, locs[user], n, oracle_seeds[user]), noise)
        true_c = empirical_quantile(
            EmpiricalDistribution.from_samples(oracle), epsilon)
        caps = capacity_from_power(draw_power_samples(
            scenario, locs[user], n, outage_seeds[user]), noise)
        truths[user] = (true_c, [float(np.count_nonzero(caps < rate))
                                 / caps.size for rate in rates[user]])
    return truths
