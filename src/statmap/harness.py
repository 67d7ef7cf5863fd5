"""Experiment orchestration: the location-based and chart-based rate-selection
case studies and the parametric-mismatch demonstration.

Every experiment is a pure function of (config, seed): user placement, power
sampling, fitting, rate selection, and outage measurement all run on derived
sub-seeds, so reports are reproducible byte for byte. Wall-clock time is
reported on stdout only, never inside output files.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import chart as chart_mod
from ._threads import map_in_order
from .chart import ChartModel
from .dataio import Dataset, UserRecord, write_csv, write_json
from .errors import ConfigurationError
from .gpmap import FittedMap, TrainingSet, fit as gp_fit, predict
from .propagation import (
    Location,
    PointProcessConfig,
    ScenarioConfig,
    check_seed,
    derive_seed,
    draw_csi,
    draw_power_samples,
    generate_scenario,
    multipath_power_cdf,
    multipath_power_samples,
    sample_locations_thomas,
    true_outage_capacities,
)
from .rateselect import POLICY_BASELINE, POLICY_MAP, select_rate_baseline, select_rate_map
from .stats import (
    RICIAN_MIN_SAMPLES,
    EmpiricalDistribution,
    capacity_from_power,
    dkw_band,
    empirical_quantile,
    fit_rician_ml,
)

__all__ = [
    "ChartTrainingConfig",
    "ExperimentConfig",
    "MismatchDemoConfig",
    "ExperimentReport",
    "ChartFit",
    "simulate_dataset",
    "capacity_distributions",
    "estimate_capacities",
    "fit_location_map",
    "fit_chart",
    "run_location_experiment",
    "run_chart_experiment",
    "run_mismatch_demo",
    "write_report",
]

# Dominant-path profile for the mismatch demo: the reachable power set has a
# hard lower edge, which no Rician CDF can reproduce in the deep tail.
DEMO_AMPLITUDES = (1.0, 0.55, 0.08, 0.05, 0.04, 0.025, 0.015)
# Test users judged per oracle call. A block of this many at the default
# scenario allocates at most 1 MiB at its peak (tests/test_harness.py), on
# each worker thread at once; smaller blocks lose time to per-call overhead.
ORACLE_BLOCK = 128
# Training users drawn per pool task: one user a task spends ~17% more time
# on task overhead (500 users on 2 workers); 128 gains nothing over 32.
DRAW_BLOCK = 32
# Largest path-entry buffer (draws x paths, complex) that samples_per_user,
# the oracle's ceil(100 / epsilon) Monte-Carlo draws or a demo fit size may
# ask one power draw for.
MAX_DRAW_BUFFER_BYTES = 1 << 30


def _check_draw_buffer(setting: str, draws, paths: int) -> None:
    """Refuse draws x paths complex path entries beyond the buffer limit."""
    most = MAX_DRAW_BUFFER_BYTES // (paths * np.dtype(complex).itemsize)
    if draws > most:
        raise ConfigurationError(
            f"{setting} needs more draws than the {most} that a "
            f"{MAX_DRAW_BUFFER_BYTES >> 30} GiB draw buffer holds with "
            f"{paths} paths")


# Largest allocation that the chart section may ask for: one CSI snapshot,
# the mined triplets, the chart's weights or one batch's activations.
MAX_CHART_BYTES = 1 << 30


def _check_chart_bytes(setting: str, what: str, nbytes: int) -> None:
    """Refuse nbytes for what beyond the chart limit."""
    if nbytes > MAX_CHART_BYTES:
        raise ConfigurationError(
            f"{setting} needs {nbytes / (1 << 30):.3g} GiB for {what}, over "
            f"the {MAX_CHART_BYTES >> 30} GiB limit")


@dataclass(frozen=True)
class ChartTrainingConfig:
    """The CSI grid that the chart is learned from, plus chart training
    hyperparameters. The CSI is drawn on the scenario's own fields with
    csi_antennas antennas and csi_subcarriers subcarriers across
    csi_bandwidth_hz; the rates stay in the scenario's band."""

    csi_antennas: int = 16
    csi_subcarriers: int = 32
    csi_bandwidth_hz: float = 5e6
    s_red: int = 8
    hidden: tuple[int, ...] = chart_mod.DEFAULT_HIDDEN
    n_triplets: int = 8000
    close_quantile: float = 0.05
    far_quantile: float = 0.5
    margin: float = 1.0
    step_size: float = 0.01
    epochs: int = 15
    batch_size: int = 128

    def __post_init__(self):
        if any(width < 1 for width in self.hidden):
            raise ConfigurationError(
                f"hidden widths must be at least 1, got {list(self.hidden)}")
        for name in ("csi_antennas", "csi_subcarriers", "epochs",
                     "batch_size", "n_triplets"):
            if getattr(self, name) < 1:
                raise ConfigurationError(
                    f"{name} must be at least 1, got {getattr(self, name)}")
        if not 1 <= self.s_red <= chart_mod.MAX_SUBCARRIER_FEATURES:
            raise ConfigurationError(
                f"s_red must lie in [1, {chart_mod.MAX_SUBCARRIER_FEATURES}], "
                f"got {self.s_red}")
        for name in ("csi_bandwidth_hz", "step_size", "margin"):
            if not getattr(self, name) > 0:
                raise ConfigurationError(
                    f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 < self.close_quantile < self.far_quantile <= 1.0:
            raise ConfigurationError(
                "need 0 < close_quantile < far_quantile <= 1, got "
                f"{self.close_quantile} and {self.far_quantile}")
        _check_chart_bytes(
            f"csi_antennas={self.csi_antennas} with csi_subcarriers="
            f"{self.csi_subcarriers}", "a CSI snapshot",
            16 * self.csi_antennas * self.csi_subcarriers)
        # 8-byte anchors and (anchor, positive, negative) rows
        _check_chart_bytes(f"n_triplets={self.n_triplets}", "the triplets",
                           32 * self.n_triplets)
        # the length of csi_features' vector, then the layers
        step = math.ceil(self.csi_subcarriers / self.s_red)
        columns = math.ceil(self.csi_subcarriers / step)
        dims = [2 * self.csi_antennas * columns + 1, *self.hidden,
                chart_mod.LATENT_DIM]
        _check_chart_bytes(
            f"hidden={list(self.hidden)} on {dims[0]} CSI features",
            "the chart's weights",
            8 * sum(d_in * d_out for d_in, d_out in zip(dims, dims[1:])))
        # 3 rows of 8-byte activations per triplet of a batch
        _check_chart_bytes(
            f"batch_size={self.batch_size}", "one batch's activations",
            24 * min(self.batch_size, self.n_triplets) * sum(dims))


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: ScenarioConfig = dc_field(default_factory=ScenarioConfig)
    pointprocess: PointProcessConfig = dc_field(default_factory=PointProcessConfig)
    n_train_users: int = 500
    samples_per_user: int = 1000
    epsilon: float = 1e-2
    delta: float = 1e-2
    n_test_users: int = 2000
    gp_restarts: int = 2
    seed: int = 0
    chart: ChartTrainingConfig = dc_field(default_factory=ChartTrainingConfig)

    def __post_init__(self):
        check_seed(self.seed)
        if not 0.0 < self.epsilon < 1.0 or not 0.0 < self.delta < 1.0:
            raise ConfigurationError("epsilon and delta must lie in (0,1)")
        paths = self.scenario.num_paths
        _check_draw_buffer(f"samples_per_user={self.samples_per_user}",
                           self.samples_per_user, paths)
        # ceil(100 / epsilon) exceeds a count exactly when 100 / epsilon does
        _check_draw_buffer(f"epsilon={self.epsilon}", 100.0 / self.epsilon, paths)
        if self.samples_per_user * self.epsilon <= 1.0:
            raise ConfigurationError(
                f"samples_per_user={self.samples_per_user} is not enough for "
                f"epsilon={self.epsilon}; need more than {1.0 / self.epsilon:g}")
        if self.n_train_users < 3 or self.n_test_users < 1:
            raise ConfigurationError("need at least 3 training users and 1 test user")
        if self.gp_restarts < 1:
            raise ConfigurationError(
                f"gp_restarts must be at least 1, got {self.gp_restarts}")


@dataclass(frozen=True)
class MismatchDemoConfig:
    """Mismatch demo settings; the multipath profile is DEMO_AMPLITUDES."""

    fit_sizes: tuple[int, ...] = (1_000, 10_000, 1_000_000)
    confidence: float = 0.99
    seed: int = 0

    def __post_init__(self):
        check_seed(self.seed)
        if not self.fit_sizes or min(self.fit_sizes) < RICIAN_MIN_SAMPLES:
            raise ConfigurationError(
                f"need fit_sizes of at least {RICIAN_MIN_SAMPLES} each, got "
                f"{list(self.fit_sizes)}")
        _check_draw_buffer(f"fit_sizes={list(self.fit_sizes)}",
                           max(self.fit_sizes), len(DEMO_AMPLITUDES))
        if not 0.0 < self.confidence < 1.0:
            raise ConfigurationError(
                f"confidence must lie in (0, 1), got {self.confidence}")


@dataclass(frozen=True)
class ExperimentReport:
    """Per-user columns in user order: the map query (x, y), the true
    eps-outage capacity, and per policy name a rate and an outage column."""

    mode: str
    x: np.ndarray
    y: np.ndarray
    true_ceps: np.ndarray
    rate: dict
    outage_prob: dict
    epsilon: float
    delta: float
    seed: int
    config_echo: dict

    def policies(self) -> list:
        return sorted(self.rate)

    def violation_fraction(self, policy: str) -> tuple:
        if policy not in self.outage_prob:
            raise ConfigurationError(f"no rows for policy {policy}")
        outages = self.outage_prob[policy]
        return (int(np.count_nonzero(outages > self.epsilon)) / outages.size,
                outages.size)

    def aggregates(self, policy: str) -> tuple:
        """(violation fraction, n, violation fraction / delta, mean rate /
        mean true eps-outage capacity): how often the policy overshoots and
        how much rate it gives up."""
        frac, n = self.violation_fraction(policy)
        # summed left to right in user order: a pairwise np.sum would move
        # the last digits of the written ratio
        return (frac, n, frac / self.delta,
                sum(self.rate[policy].tolist()) / sum(self.true_ceps.tolist()))

    def outage_cdf_table(self, policy: str) -> list:
        probs = np.sort(self.outage_prob[policy]).tolist()
        return [(p, (i + 1) / len(probs)) for i, p in enumerate(probs)]


@dataclass(frozen=True)
class ChartFit:
    """Chart stage output: the trained chart plus the inputs of its map."""

    model: ChartModel
    epoch_losses: list
    n_triplets: int
    skipped: int            # anchors that yielded no triplet
    features: np.ndarray    # CSI features of the training users, one row each
    targets: np.ndarray     # their eps-outage capacity estimates


# ------------------------------------------------------------ simulation

def _thomas_exact_count(pp: PointProcessConfig, scenario_cfg: ScenarioConfig,
                        n_users: int, seed: int) -> list:
    """Thomas draws, re-sampled with derived seeds until n_users are available."""
    bounds = scenario_cfg.cell_bounds()
    locs: list = []
    attempt = 0
    while len(locs) < n_users:
        locs.extend(sample_locations_thomas(
            pp, bounds, scenario_cfg.user_height,
            derive_seed(seed, "thomas-wave", attempt)))
        attempt += 1
        if attempt > 1000:
            raise ConfigurationError(
                "point process intensity too low to reach the requested users")
    return locs[:n_users]


def simulate_dataset(config: ExperimentConfig,
                     with_csi: bool = False) -> Dataset:
    """Thomas-placed users with power samples and optionally one CSI snapshot,
    drawn in blocks on the worker pool, each from its own derived seeds."""
    seed, cc = config.seed, config.chart
    scenario = generate_scenario(config.scenario, seed)
    locs = _thomas_exact_count(config.pointprocess, config.scenario,
                               config.n_train_users, seed)
    # one evaluation of the fields serves the power and the CSI draws
    rays = scenario.path_rays(locs)

    def draw(i):
        powers = draw_power_samples(scenario, locs[i], config.samples_per_user,
                                    derive_seed(seed, "train-power", i),
                                    rays[i])
        csi = draw_csi(scenario, locs[i], derive_seed(seed, "train-csi", i),
                       cc.csi_antennas, cc.csi_subcarriers,
                       cc.csi_bandwidth_hz, rays[i]) if with_csi else None
        return UserRecord(user_id=i, location=locs[i], power_samples=powers,
                          csi=csi)

    return Dataset(records=_pool_map(
        lambda users: [draw(i) for i in users], len(locs), DRAW_BLOCK))


def _uniform_test_locations(config: ExperimentConfig) -> list:
    rng = np.random.default_rng(derive_seed(config.seed, "test-users"))
    half = config.scenario.cell_side / 2.0
    xy = rng.uniform(-half, half, size=(config.n_test_users, 2))
    return [Location(float(x), float(y), config.scenario.user_height)
            for x, y in xy]


# ------------------------------------------------------------ stages
# The pipeline stages that the experiments and the CLI commands share.

def capacity_distributions(dataset: Dataset, noise_power: float) -> list:
    """Each user's capacity samples as one EmpiricalDistribution, sorted
    once; refuses a user whose powers overflow the capacity."""
    dists = []
    with np.errstate(over="ignore"):
        for r in dataset.records:
            row = capacity_from_power(r.power_samples, noise_power)
            if np.isinf(row).any():
                raise ConfigurationError(
                    f"user {r.user_id}: power samples overflow the capacity "
                    f"at noise_power {noise_power:g}")
            dists.append(EmpiricalDistribution.from_samples(row))
    return dists


def estimate_capacities(dists, epsilon: float) -> np.ndarray:
    """Per-user lower eps-quantile of the capacity distributions."""
    return np.array([empirical_quantile(d, epsilon) for d in dists])


def _fit_gp(coords, targets, config: ExperimentConfig) -> FittedMap:
    return gp_fit(TrainingSet.new(coords, targets), restarts=config.gp_restarts,
                  seed=derive_seed(config.seed, "gp-fit"))


def fit_location_map(dataset: Dataset, config: ExperimentConfig) -> FittedMap:
    """Location stage: per-user eps-outage capacities, then a GP over (x, y)."""
    if any(r.location is None for r in dataset.records):
        raise ConfigurationError("fit-map needs a location for every user")
    targets = estimate_capacities(capacity_distributions(
        dataset, config.scenario.noise_power), config.epsilon)
    return _fit_gp([[r.location.x, r.location.y] for r in dataset.records],
                   targets, config)


def fit_chart(dataset: Dataset, config: ExperimentConfig) -> ChartFit:
    """Chart stage: the capacity distributions, their eps-quantiles, W1
    triplets mined from them, CSI features, and the chart trained on those
    triplets."""
    if any(r.csi is None for r in dataset.records):
        raise ConfigurationError("train-chart needs a CSI snapshot per user")
    cc, seed = config.chart, config.seed
    dists = capacity_distributions(dataset, config.scenario.noise_power)
    targets = estimate_capacities(dists, config.epsilon)
    triplets, skipped = chart_mod.build_triplets(
        dists, cc.n_triplets, cc.close_quantile, cc.far_quantile,
        seed=derive_seed(seed, "triplets"))
    feats = np.vstack([chart_mod.csi_features(r.csi, cc.s_red)
                       for r in dataset.records])
    model0 = chart_mod.init_chart_model(feats.shape[1], cc.hidden,
                                        seed=derive_seed(seed, "chart-init"))
    result = chart_mod.train(model0, triplets, feats, margin=cc.margin,
                             step_size=cc.step_size, epochs=cc.epochs,
                             batch_size=cc.batch_size,
                             seed=derive_seed(seed, "chart-train"))
    return ChartFit(model=result.model, epoch_losses=result.epoch_losses,
                    n_triplets=len(triplets), skipped=skipped,
                    features=feats, targets=targets)


# ------------------------------------------------------------ experiments

def run_location_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Location-based statistical radio map versus nearest-neighbor baseline."""
    return _run_experiment(config, "location")


def run_chart_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Chart-based map: the chart and its queries come from CSI on
    config.chart's grid, the rates and their judgement from the scenario's
    band, both on the one scenario."""
    return _run_experiment(config, "chart")


def _run_experiment(config: ExperimentConfig, mode: str) -> ExperimentReport:
    """Fit a map on simulated users, then select rates for uniform test users
    and judge them against the oracle. Errors name the stage they came from."""
    seed = config.seed
    echo = dataclasses.asdict(config)
    stage = "generate-scenario"
    try:
        scenario = generate_scenario(config.scenario, seed)
        stage = "simulate-training-users"
        dataset = simulate_dataset(config, with_csi=mode == "chart")
        if mode == "location":
            stage = "fit-map"
            fmap = fit_location_map(dataset, config)

            def queries_of(locs):
                return np.array([[loc.x, loc.y] for loc in locs])
        else:
            stage = "train-chart"
            charted = fit_chart(dataset, config)
            echo["chart_epoch_losses"] = charted.epoch_losses
            echo["triplets_skipped"] = charted.skipped
            stage = "fit-map-in-latent-space"
            fmap = _fit_gp(chart_mod.forward(charted.model, charted.features),
                           charted.targets, config)
            cc = config.chart

            def queries_of(locs):
                queries = []
                for user, (loc, rays) in enumerate(
                        zip(locs, scenario.path_rays(locs))):
                    csi = draw_csi(scenario, loc,
                                   derive_seed(seed, "test-csi", user),
                                   cc.csi_antennas, cc.csi_subcarriers,
                                   cc.csi_bandwidth_hz, rays)
                    queries.append(chart_mod.forward(
                        charted.model, chart_mod.csi_features(csi, cc.s_red)))
                return np.array(queries)
        echo["gp_fit"] = {"hyper": dataclasses.asdict(fmap.hyper),
                          "diagnostics": dataclasses.asdict(fmap.diagnostics)}
        stage = "evaluate-test-users"
        columns, echo["predictive_calibration"] = _evaluate_test_users(
            scenario, config, queries_of, fmap)
    except Exception as exc:
        exc.args = (f"[stage {stage}] {exc}",)
        raise
    return ExperimentReport(mode=mode, **columns, epsilon=config.epsilon,
                            delta=config.delta, seed=seed, config_echo=echo)


def _pool_map(work, count: int, block: int) -> list:
    """work(indices) over blocks of range(count), joined in index order."""
    indices = range(count)
    blocks = [indices[i:i + block] for i in indices[::block]]
    return [item for result in map_in_order(work, blocks) for item in result]


def _evaluate_test_users(scenario, config, queries_of, fmap):
    """Rates for the uniform test users, judged against the oracle.

    queries_of maps the test locations to an array of map queries, one row
    per user in user order; the queries are predicted in one batch and each
    policy rates them all in one call. The oracle,
    the bulk of the work, judges blocks of ORACLE_BLOCK users on one thread
    per usable CPU: each user is judged from its own location and derived
    seeds, its truth does not depend on the block it is in, and the Bessel
    evaluations and draws release the interpreter lock. Results are
    collected in user order, so the report does not depend on the number of
    threads or the block size. Where the oracle falls back to Monte Carlo
    it judges each rate on ceil(100 / eps) outage draws.
    """
    locs = _uniform_test_locations(config)
    queries = queries_of(locs)
    preds = predict(fmap, queries)
    # (map rate, baseline rate) per user; the oracle gets plain floats
    rates = np.column_stack([select_rate_map(preds, config.delta),
                             select_rate_baseline(fmap.train, queries)])

    def judge(users):
        return true_outage_capacities(
            scenario, [locs[user] for user in users], config.epsilon,
            rates[users].tolist(),
            [derive_seed(config.seed, "oracle", user) for user in users],
            [derive_seed(config.seed, "outage", user) for user in users])

    judged = _pool_map(judge, len(locs), ORACLE_BLOCK)
    true_ceps, outages = (np.array(column) for column in zip(*judged))
    residuals = true_ceps - preds.mean
    calibration = {
        "mean_predictive_std": float(np.mean(np.sqrt(preds.variance))),
        "residual_std": float(np.std(residuals)),
        "residual_mean": float(np.mean(residuals)),
    }
    columns = dict(
        x=queries[:, 0], y=queries[:, 1], true_ceps=true_ceps,
        rate={POLICY_MAP: rates[:, 0], POLICY_BASELINE: rates[:, 1]},
        outage_prob={POLICY_MAP: outages[:, 0],
                     POLICY_BASELINE: outages[:, 1]})
    return columns, calibration


# ------------------------------------------------------------ reports

def write_report(report: ExperimentReport, out_dir) -> list:
    """CSV rows + aggregates + outage CDF tables; returns written paths."""
    os.makedirs(out_dir, exist_ok=True)
    rows_path = os.path.join(out_dir, "report_rows.csv")
    per_policy = [(p, report.rate[p].tolist(), report.outage_prob[p].tolist())
                  for p in report.policies()]
    write_csv(rows_path,
              ["user_id", "x", "y", "true_ceps", "rate", "outage_prob",
               "policy"],
              [(user, x, y, true_c, rates[user], outages[user], policy)
               for user, (x, y, true_c) in enumerate(zip(
                   report.x.tolist(), report.y.tolist(),
                   report.true_ceps.tolist()))
               for policy, rates, outages in per_policy])
    agg_path = os.path.join(out_dir, "report_aggregates.csv")
    write_csv(agg_path, ["policy", "violation_fraction", "n",
                         "violation_over_delta", "rate_over_true_ceps"],
              [(p, *report.aggregates(p)) for p in report.policies()])
    cdf_path = os.path.join(out_dir, "outage_cdf.csv")
    cdf_rows = []
    for policy in report.policies():
        cdf_rows.extend((policy, v, c)
                        for v, c in report.outage_cdf_table(policy))
    write_csv(cdf_path, ["policy", "outage_prob", "cdf"], cdf_rows)
    meta_path = os.path.join(out_dir, "report_meta.json")
    write_json(meta_path,
               {"mode": report.mode, "epsilon": report.epsilon,
                "delta": report.delta, "seed": report.seed,
                "n_rows": report.true_ceps.size * len(per_policy),
                "config": report.config_echo})
    return [rows_path, agg_path, cdf_path, meta_path]


# ------------------------------------------------------------ mismatch demo

def run_mismatch_demo(config: MismatchDemoConfig, out_dir) -> dict:
    """Tail mismatch of a Rician ML fit versus the non-parametric estimator
    on the profile DEMO_AMPLITUDES, with powers normalised to unit mean.

    Emits CDF tables (linear and log10 probability, identical breakpoints)
    for the oracle, the empirical CDFs, and the fitted Rician CDFs at each
    sample size, plus the fitted parameters. The oracle is the exact CDF at
    every breakpoint (``multipath_power_cdf``).
    """
    os.makedirs(out_dir, exist_ok=True)
    a = np.asarray(DEMO_AMPLITUDES)
    mean_power = float(np.sum(a ** 2))

    def fit_sample(n, label):
        return multipath_power_samples(a, n, np.random.default_rng(
            derive_seed(config.seed, "demo-fit", label))) / mean_power

    # breakpoints: pilot-sample quantiles on a fixed probability grid, dense
    # toward the deep tail
    pilot = fit_sample(1_000_000, "pilot")
    probs = np.unique(np.concatenate([
        np.geomspace(1e-5, 0.01, 40),
        np.linspace(0.02, 0.999, 80),
    ]))
    breakpoints = np.quantile(pilot, probs)
    oracle_cdf = multipath_power_cdf(a, breakpoints * mean_power)

    columns = {"value": breakpoints, "oracle_cdf": oracle_cdf}
    fits = {}
    for n in config.fit_sizes:
        sample = fit_sample(n, n)
        columns[f"empirical_cdf_n{n}"] = EmpiricalDistribution.from_samples(
            sample).cdf(breakpoints)
        fits[n] = fit_rician_ml(np.sqrt(sample))
        columns[f"rician_cdf_n{n}"] = fits[n].power_cdf(breakpoints)

    oracle_path = os.path.join(out_dir, "oracle_cdf.csv")
    write_csv(oracle_path, ["value", "cdf"], zip(breakpoints, oracle_cdf))
    header = list(columns)
    linear_path = os.path.join(out_dir, "mismatch_cdf_linear.csv")
    write_csv(linear_path, header, zip(*columns.values()))
    log_path = os.path.join(out_dir, "mismatch_cdf_log.csv")
    with np.errstate(divide="ignore"):
        log_rows = zip(*(columns["value"] if h == "value"
                         else np.log10(columns[h]) for h in header))
    write_csv(log_path, header, log_rows)
    params_path = os.path.join(out_dir, "rician_params.csv")
    write_csv(params_path, ["param", "estimate"],
              [(f"K_n{n}", fits[n].K) for n in config.fit_sizes]
              + [(f"omega_n{n}", fits[n].omega) for n in config.fit_sizes])

    n_big = max(config.fit_sizes)
    emp_dev = np.max(np.abs(columns[f"empirical_cdf_n{n_big}"] - oracle_cdf))
    tail = oracle_cdf <= 1e-3   # never empty: the breakpoints reach 1e-5
    rician_tail_dev = np.max(np.abs(
        columns[f"rician_cdf_n{n_big}"][tail] - oracle_cdf[tail]))
    return {
        "paths": [linear_path, log_path, params_path, oracle_path],
        "dkw_band": dkw_band(n_big, config.confidence),
        "empirical_max_dev": float(emp_dev),
        "rician_tail_max_dev": float(rician_tail_dev),
    }
