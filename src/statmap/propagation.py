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
has an exact CDF (Kluyver 1906), which the outage oracle evaluates by
quadrature. Everything is reproducible through seed sub-streams derived by
hashing (purpose label, location, sample seed).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import j0, j1

from .errors import ConfigurationError, NumericalError
from .stats import EmpiricalDistribution, capacity_from_power, empirical_quantile

__all__ = [
    "Location",
    "ScenarioConfig",
    "PointProcessConfig",
    "CosineField",
    "Scenario",
    "generate_scenario",
    "band_variant",
    "derive_seed",
    "sample_locations_thomas",
    "draw_power_samples",
    "draw_csi",
    "true_outage_capacity",
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
# Gauss-Legendre grid of the Kluyver integral: 16-point panels of width 4.
# With the amplitudes scaled to sum to 1 the integrand oscillates at angular
# frequency at most 2, so a panel spans under 1.3 periods.
KLUYVER_PANEL_NODES = 16
KLUYVER_PANEL_WIDTH = 4.0
KLUYVER_NODES = 4096            # the largest grid: cut at t = 1024
KLUYVER_FIRST_NODES = 1024      # each CDF starts here and doubles as needed
# Convergence test of the quadrature: cutting the integral at half the grid
# may move the CDF at the eps-quantile by at most this fraction of eps.
KLUYVER_CONVERGENCE_TOL = 1e-2
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
    num_subcarriers: int = 1
    carrier_wavelength: float = 0.375   # meters (800 MHz)
    field_components: int = 128         # spectral components per random field
    bandwidth_hz: float = 5e6           # spanned by the subcarriers
    delay_spread_s: float = 5e-7        # per-path delays drawn from [0, this)
    angle_spread_rad: float = 0.6       # std of the per-path angle field
    path_weight_decay: float = 0.45

    def __post_init__(self):
        if self.num_paths < 1:
            raise ConfigurationError("num_paths must be >= 1")
        if self.field_components < 1:
            raise ConfigurationError("field_components must be >= 1")
        if self.num_antennas < 1 or self.num_subcarriers < 1:
            raise ConfigurationError("antenna/subcarrier counts must be >= 1")
        for name in ("cell_side", "shadowing_decorrelation_m",
                     "path_amp_decorrelation_m", "noise_power",
                     "carrier_wavelength", "bandwidth_hz"):
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
        """Field values at (N, 2) planar coordinates."""
        xy = np.atleast_2d(np.asarray(xy, dtype=float))
        args = xy @ self.wavevectors.T + self.phases
        return self.amplitude * np.cos(args).sum(axis=1)


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

    # -------------------------------------------------- sampling helpers

    def _geometry(self, loc: Location):
        a = self.path_amplitudes(loc.as_array())[0]
        theta = self.path_angles(loc.as_array())[0]
        ant = np.arange(self.config.num_antennas)
        steering = np.exp(-1j * math.pi * np.outer(np.sin(theta), ant))
        return a, steering

    def _phase_rng(self, loc: Location, purpose: str, sample_seed: int):
        return _substream(self.seed, purpose,
                          _entropy(loc.as_array().tobytes()), sample_seed)

    def subcarrier_ramps(self) -> np.ndarray:
        """(P, S) phase ramps from per-path delay across the subcarrier grid."""
        spacing = self.config.bandwidth_hz / self.config.num_subcarriers
        freqs = spacing * np.arange(self.config.num_subcarriers)
        return np.exp(-1j * TWO_PI * np.outer(self.delays, freqs))


def generate_scenario(config: ScenarioConfig, seed: int) -> Scenario:
    """Realize all random fields and per-path geometry for (config, seed).

    Field sub-streams depend only on the seed and a purpose label, so two
    configs differing only in array/noise parameters (e.g. two radio bands)
    share identical large-scale fields.
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


def band_variant(scenario: Scenario, **overrides) -> Scenario:
    """Same environment on a different radio interface.

    Only array/noise parameters may change (antennas, subcarriers,
    wavelength, bandwidth, noise power); the random fields are reused as-is
    so channel statistics stay spatially consistent across bands.
    """
    allowed = {"num_antennas", "num_subcarriers", "carrier_wavelength",
               "bandwidth_hz", "noise_power"}
    bad = set(overrides) - allowed
    if bad:
        raise ConfigurationError(
            f"band variant may only override {sorted(allowed)}, got {sorted(bad)}")
    return replace(scenario, config=replace(scenario.config, **overrides))


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


def multipath_power_cdf(amplitudes, powers) -> np.ndarray:
    """P(|sum_p a_p e^{j phi_p}|^2 <= power) at each power, from the exact
    Kluyver CDF on the KLUYVER_NODES-node grid; NumericalError where a value
    fails the half-grid convergence test (see ``true_outage_capacity``)."""
    a = np.asarray(amplitudes, dtype=float)
    cdf = _KluyverCDF(a, grid=_KLUYVER_GRID)
    values = []
    for power in powers:
        value, head = cdf.truncated(math.sqrt(power) / a.sum())
        if not abs(value - head) <= KLUYVER_CONVERGENCE_TOL * value:
            raise NumericalError(f"Kluyver CDF of amplitudes {a.tolist()} has "
                                 f"not converged at power {power:.6g}")
        values.append(value)
    return np.array(values)


def draw_power_samples(scenario: Scenario, loc: Location, n: int,
                       sample_seed: int) -> np.ndarray:
    """n effective received power samples (MRC over antennas), noiseless."""
    if n < 1:
        raise ValueError("need n >= 1 power samples")
    scenario._check_inside(loc)
    a, steering = scenario._geometry(loc)
    rng = scenario._phase_rng(loc, "power", sample_seed)
    paths = _path_phasors(a, rng.uniform(0.0, TWO_PI, (n, a.size)))
    h = np.empty((n, steering.shape[1]), dtype=complex)
    block = max(1, GEMV_BLOCK_ENTRIES // a.size)
    for start in range(0, n, block):
        np.matmul(paths[start:start + block], steering,
                  out=h[start:start + block])
    return np.sum(np.abs(h) ** 2, axis=1)


def draw_csi(scenario: Scenario, loc: Location, sample_seed: int) -> np.ndarray:
    """One full antenna x subcarrier channel snapshot."""
    scenario._check_inside(loc)
    a, steering = scenario._geometry(loc)
    ramps = scenario.subcarrier_ramps()
    rng = scenario._phase_rng(loc, "csi", sample_seed)
    paths = _path_phasors(a, rng.uniform(0.0, TWO_PI, a.size))
    return np.einsum("p,pa,ps->as", paths, steering, ramps)


def _kluyver_grid(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, n_nodes / 4] in panels."""
    x, w = np.polynomial.legendre.leggauss(KLUYVER_PANEL_NODES)
    half = KLUYVER_PANEL_WIDTH / 2.0
    left = KLUYVER_PANEL_WIDTH * np.arange(n_nodes // KLUYVER_PANEL_NODES)
    return ((left[:, None] + half * (x + 1.0)).ravel(),
            np.tile(half * w, left.size))


_KLUYVER_GRID = _kluyver_grid(KLUYVER_NODES)
_KLUYVER_FIRST_GRID = tuple(g[:KLUYVER_FIRST_NODES] for g in _KLUYVER_GRID)


class _KluyverCDF:
    """Exact CDF of |sum_p a_p e^{j phi_p}| / sum_p a_p under i.i.d. uniform
    phases, on [0, 1]:

        P(|h| <= r) = r * int_0^inf J1(r t) prod_p J0(a_p t) dt

    (Kluyver 1906), with the amplitudes scaled to sum to 1. The weighted
    product of J0 is built on ``grid``, by default the first
    KLUYVER_FIRST_NODES nodes of the KLUYVER_NODES-node grid; each CDF value
    is then one dot product. ``quantile`` doubles the grid, up to
    KLUYVER_NODES, until its convergence test passes. Every ``_kluyver_grid``
    is a prefix of the larger ones, so doubling computes J0 on the new nodes
    only; a grid of KLUYVER_NODES or more never grows.
    """

    def __init__(self, amplitudes, grid=_KLUYVER_FIRST_GRID):
        a = np.asarray(amplitudes, dtype=float)
        self.scaled = a / a.sum()
        self.nodes = self.weighted = np.empty(0)
        self._extend(*grid)

    def _extend(self, nodes, weights):
        weighted = weights.copy()
        for amp in self.scaled:
            weighted *= j0(amp * nodes)
        self.nodes = np.concatenate([self.nodes, nodes])
        self.weighted = np.concatenate([self.weighted, weighted])

    def _grow(self) -> bool:
        """Double the grid within KLUYVER_NODES; False once it is full."""
        n = self.nodes.size
        if n >= KLUYVER_NODES:
            return False
        nodes, weights = _KLUYVER_GRID
        self._extend(nodes[n:2 * n], weights[n:2 * n])
        return True

    def truncated(self, r: float) -> tuple[float, float]:
        """The CDF at r with the integral cut at the end of the grid and at
        its midpoint; how far the two differ shows whether it converged."""
        terms = j1(r * self.nodes)
        terms *= self.weighted
        mid = terms.size // 2
        head = r * float(terms[:mid].sum())
        return head + r * float(terms[mid:].sum()), head

    def __call__(self, r: float) -> float:
        if r <= 0.0:
            return 0.0
        if r >= 1.0:
            return 1.0
        return min(1.0, max(0.0, self.truncated(r)[0]))

    def quantile(self, level: float):
        """The r in (0, 1) where the CDF crosses level on the shortest grid
        whose quadrature has converged there, or None when no grid up to
        KLUYVER_NODES both converges and reaches KLUYVER_ROOT_TOL. The CDF
        stays on that grid, so later values match the root.
        """
        while True:
            r = self._search(level)
            if r is not None or not self._grow():
                return r

    def _search(self, level: float):
        """Illinois regula falsi on the current grid."""
        lo, hi, g_lo, g_hi = 0.0, 1.0, -level, 1.0 - level
        side = 0
        for _ in range(KLUYVER_MAX_ITERATIONS):
            r = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
            if not lo < r < hi:
                return None
            value, head = self.truncated(r)
            g = value - level
            if abs(g) <= KLUYVER_ROOT_TOL * level:
                if abs(value - head) > KLUYVER_CONVERGENCE_TOL * level:
                    return None
                return r
            if g < 0.0:
                lo, g_lo = r, g
                if side < 0:
                    g_hi /= 2.0
                side = -1
            else:
                hi, g_hi = r, g
                if side > 0:
                    g_lo /= 2.0
                side = 1
        return None


def _exact_outage_capacity(scenario: Scenario, loc: Location, epsilon: float,
                           rates):
    """The single-antenna truth from the Kluyver CDF, or None where its
    quadrature does not converge."""
    a = scenario.path_amplitudes(loc.as_array())[0]
    cdf = _KluyverCDF(a)
    r = cdf.quantile(epsilon)
    if r is None:
        return None
    peak, noise = float(a.sum()), scenario.config.noise_power
    max_rate = math.log2(1.0 + peak ** 2 / noise)

    def outage(rate):
        if rate >= max_rate:    # out of reach; 2^rate may also overflow
            return 1.0
        return cdf(math.sqrt(max(0.0, math.expm1(rate * math.log(2.0)))
                             * noise) / peak)

    return (math.log2(1.0 + (peak * r) ** 2 / noise),
            [outage(rate) for rate in rates])


def true_outage_capacity(scenario: Scenario, loc: Location, epsilon: float,
                         rates, oracle_seed: int,
                         outage_seed: int) -> tuple[float, list[float]]:
    """Truth at a location: the eps-outage capacity and the outage
    probability of each rate.

    With one antenna both come from the exact CDF of the received magnitude
    (``_KluyverCDF``): the capacity at the root of CDF = eps, the outage of
    a rate as the CDF at its magnitude, both on the same grid. The
    quadrature is trusted when cutting its integral at half the grid moves
    the CDF at the root by at most KLUYVER_CONVERGENCE_TOL * eps. Each user
    starts on KLUYVER_FIRST_NODES nodes and doubles its grid up to
    KLUYVER_NODES until that test passes; one or two dominant paths fail it
    even there and fall back to Monte Carlo, as do several antennas (MRC).

    Monte Carlo takes n = ceil(100 / eps) draws twice: the capacity is the
    lower eps-quantile of n capacity draws taken with sample seed
    oracle_seed, and the outage probability of a rate is the fraction of
    one shared set of n draws, taken with sample seed outage_seed, that
    lies strictly below it.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0,1), got {epsilon}")
    if scenario.config.num_antennas == 1:
        scenario._check_inside(loc)
        exact = _exact_outage_capacity(scenario, loc, epsilon, rates)
        if exact is not None:
            return exact
    noise, n = scenario.config.noise_power, math.ceil(100.0 / epsilon)
    oracle = capacity_from_power(
        draw_power_samples(scenario, loc, n, oracle_seed), noise)
    true_c = empirical_quantile(EmpiricalDistribution.from_samples(oracle),
                                epsilon)
    caps = capacity_from_power(
        draw_power_samples(scenario, loc, n, outage_seed), noise)
    return true_c, [float(np.count_nonzero(caps < rate)) / caps.size
                    for rate in rates]
