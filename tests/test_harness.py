"""Harness tests: dataset/model round-trips, report self-consistency,
pipeline determinism, and the mismatch demo at reduced scale."""

import dataclasses
import json
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest

from statmap.dataio import (
    Dataset,
    UserRecord,
    load_dataset,
    load_map,
    save_chart,
    save_dataset,
    save_map,
)
from statmap import _threads, harness
from statmap.chart import ChartModel, forward, init_chart_model
from statmap.errors import (
    ConfigurationError,
    FitError,
    IllConditionedError,
    ParseError,
)
from statmap.gpmap import TrainingSet, fit, predict
from statmap.harness import (
    ChartTrainingConfig,
    ExperimentConfig,
    MismatchDemoConfig,
    capacity_distributions,
    estimate_capacities,
    run_chart_experiment,
    run_location_experiment,
    run_mismatch_demo,
    simulate_dataset,
    write_report,
)
from statmap.propagation import (
    KLUYVER_CONVERGENCE_TOL,
    KLUYVER_TERMS,
    Location,
    Scenario,
    ScenarioConfig,
    derive_seed,
    draw_csi,
    draw_power_samples,
    generate_scenario,
    true_outage_capacities,
    _j0_products,
    _kluyver_cdf,
    _kluyver_grid,
)
from statmap.rateselect import POLICY_BASELINE, POLICY_MAP
from statmap.stats import (
    EmpiricalDistribution,
    capacity_from_power,
    dkw_band,
    empirical_quantile,
)

SMALL = ExperimentConfig(n_train_users=120, samples_per_user=300,
                         epsilon=0.05, delta=0.05, n_test_users=150,
                         gp_restarts=1, seed=5)

TINY_CHART = ExperimentConfig(
    n_train_users=60, samples_per_user=300, epsilon=0.05, delta=0.05,
    n_test_users=60, gp_restarts=1, seed=5,
    chart=ChartTrainingConfig(csi_antennas=4, csi_subcarriers=16, s_red=8,
                              hidden=(32, 16), n_triplets=500, epochs=4,
                              batch_size=64))


def small_dataset(with_csi=False):
    return simulate_dataset(TINY_CHART if with_csi else SMALL,
                            with_csi=with_csi)


# ---------------------------------------------------------------- datasets

def test_dataset_roundtrip_lossless(tmp_path):
    ds = small_dataset(with_csi=True)
    path = tmp_path / "d.jsonl"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert len(back) == len(ds)
    for a, b in zip(ds.records, back.records):
        assert a.user_id == b.user_id
        assert a.location == b.location
        assert a.power_samples.tobytes() == b.power_samples.tobytes()
        assert a.csi.shape == b.csi.shape
        assert a.csi.tobytes() == b.csi.tobytes()


def test_dataset_roundtrip_bit_exact_edge_values(tmp_path):
    tiny = np.finfo(float).smallest_subnormal
    powers = np.array([0.0, -0.0, tiny, 3 * tiny, np.finfo(float).tiny / 2,
                       np.finfo(float).max, 1 / 3, 1e-300])
    rng = np.random.default_rng(3)
    csi = rng.normal(size=(16, 32)) + 1j * rng.normal(size=(16, 32))
    csi[0, :3] = [complex(-0.0, tiny), complex(tiny, -0.0), -0.0]
    ds = Dataset(records=[
        UserRecord(user_id=7, location=Location(-1.5, 2.25, 1.5),
                   power_samples=powers, csi=csi),
        # strided and column-major arrays are written in row-major order
        UserRecord(user_id=8, location=None, power_samples=powers[::-1],
                   csi=np.asfortranarray(csi[::-1]))])
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_dataset(ds, first)
    save_dataset(ds, second)
    assert first.read_bytes() == second.read_bytes()
    back = load_dataset(first)
    for a, b in zip(ds.records, back.records):
        assert (a.user_id, a.location) == (b.user_id, b.location)
        assert b.power_samples.dtype == np.float64
        assert a.power_samples.tobytes() == b.power_samples.tobytes()
        assert b.csi.dtype == np.complex128 and b.csi.shape == (16, 32)
        assert a.csi.tobytes() == b.csi.tobytes()


def test_dataset_load_holds_one_line_at_a_time(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "d.jsonl"
    save_dataset(Dataset(records=[
        UserRecord(user_id=i, location=Location(float(i), 0.0, 1.5),
                   power_samples=rng.exponential(size=2000),
                   csi=rng.normal(size=(8, 64)) + 1j * rng.normal(size=(8, 64)))
        for i in range(200)]), path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        back = load_dataset(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = sum(r.power_samples.nbytes + r.csi.nbytes for r in back.records)
    # 4.8 MB of arrays from a 6.5 MB file; holding the file's bytes, or a
    # list of its lines, at once would add the file's size to the peak
    assert peak < kept + size / 4


def test_dataset_errors_name_the_line(tmp_path):
    path = tmp_path / "d.jsonl"
    save_dataset(small_dataset(), path)
    header, *rows = path.read_bytes().splitlines()
    bad = rows[2].replace(b'"user_id":', b'"user_i":')
    # CRLF, a blank line and a lone CR each end a line
    path.write_bytes(header + b"\r\n" + rows[0] + b"\n\n" + rows[1] + b"\r"
                     + bad + b"\n" + rows[3] + b"\n")
    with pytest.raises(ParseError) as exc:
        load_dataset(path)
    assert str(exc.value) == (f"bad dataset record: 'user_id'; file={path}; "
                              "line=5")
    path.write_bytes(b"")
    with pytest.raises(ParseError, match="empty dataset file"):
        load_dataset(path)


def test_dataset_truncated_file(tmp_path):
    ds = small_dataset()
    path = tmp_path / "d.jsonl"
    save_dataset(ds, path)
    text = path.read_text()
    path.write_text(text[: int(len(text) * 0.7)])
    with pytest.raises(ParseError) as exc:
        load_dataset(path)
    assert exc.value.line is not None


def test_dataset_unknown_version(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"kind":"statmap-dataset","version":99}\n')
    with pytest.raises(ParseError) as exc:
        load_dataset(path)
    assert "version" in str(exc.value)


def test_dataset_optional_fields(tmp_path):
    ds = Dataset(records=[
        UserRecord(user_id=0, location=None,
                   power_samples=np.array([1.0, 2.0]), csi=None)])
    path = tmp_path / "d.jsonl"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.records[0].location is None
    assert back.records[0].csi is None


# ---------------------------------------------------------------- map io

def fitted_map():
    rng = np.random.default_rng(3)
    coords = rng.uniform(-50, 50, size=(40, 2))
    targets = np.sin(coords[:, 0] / 20) + rng.normal(0, 0.1, 40)
    return fit(TrainingSet.new(coords, targets), restarts=1, seed=0)


def test_map_roundtrip(tmp_path):
    fmap = fitted_map()
    path = tmp_path / "map.json"
    save_map(fmap, path)
    back = load_map(path)
    assert back.hyper == fmap.hyper
    np.testing.assert_array_equal(back.train.coords, fmap.train.coords)
    np.testing.assert_array_equal(back.train.targets, fmap.train.targets)
    assert back.diagnostics == fmap.diagnostics
    q = [7.5, -3.0]
    got, want = predict(back, q), predict(fmap, q)
    assert (got.mean.tolist(), got.variance.tolist()) == (
        want.mean.tolist(), want.variance.tolist())


def test_map_checksum_detects_tampering(tmp_path):
    fmap = fitted_map()
    path = tmp_path / "map.json"
    save_map(fmap, path)
    load_map(path)  # the next load compares against these bytes
    doc = path.read_text()
    # a coordinate is one of the stored values that the checksum covers
    corrupted = doc.replace(repr(float(fmap.train.coords[0, 0])),
                            repr(float(fmap.train.coords[0, 0]) + 1.0), 1)
    assert corrupted != doc
    path.write_text(corrupted)
    with pytest.raises(ParseError) as exc:
        load_map(path)
    assert "checksum" in str(exc.value)


def test_map_non_finite_prior_mean_rejected(tmp_path):
    # the finiteness check on the hyperparameters refuses it before the
    # checksum is compared
    fmap = fitted_map()
    path = tmp_path / "map.json"
    save_map(fmap, path)
    doc = path.read_text()
    tampered = doc.replace(f'"prior_mean":{fmap.hyper.prior_mean!r}',
                           '"prior_mean":NaN', 1)
    assert tampered != doc
    path.write_text(tampered)
    with pytest.raises(ConfigurationError) as exc:
        load_map(path)
    assert "finite" in str(exc.value)


def test_load_map_builds_and_factors_the_kernel_once(tmp_path, monkeypatch):
    import hashlib
    import types

    import statmap.dataio as dio
    import statmap.gpmap as gm

    fmap = fitted_map()
    path = tmp_path / "map.json"
    calls = {"_potrf": 0, "_trtri": 0, "kernel_matrix": 0, "sha256": 0}
    hashed = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def sha256(data):
        hashed.append(memoryview(data).nbytes)
        return hashlib.sha256(data)

    for name in ("_potrf", "_trtri", "kernel_matrix"):
        monkeypatch.setattr(gm, name, counted(name, getattr(gm, name)))
    monkeypatch.setattr(dio, "hashlib", types.SimpleNamespace(
        sha256=counted("sha256", sha256)))
    # saving builds no kernel: it hashes the values it stores
    save_map(fmap, path)
    assert calls == {"_potrf": 0, "_trtri": 0, "kernel_matrix": 0,
                     "sha256": 1}
    calls.update(sha256=0)
    dio._last_map.clear()  # forget the last map loaded
    back = load_map(path)
    assert calls == {"_potrf": 1, "_trtri": 1, "kernel_matrix": 1,
                     "sha256": 1}
    # O(n) bytes: four hyperparameters, n, two coordinates and one target
    # per training point, 8 bytes each
    assert hashed == [8 * (5 + 3 * fmap.train.n)] * 2
    np.testing.assert_array_equal(back.chol_inv, fmap.chol_inv)
    np.testing.assert_array_equal(back.alpha, fmap.alpha)
    # the same bytes again: the map that passed those checks, no new work
    assert load_map(path) is back
    assert calls == {"_potrf": 1, "_trtri": 1, "kernel_matrix": 1,
                     "sha256": 1}


def test_failed_map_load_is_not_remembered(tmp_path, monkeypatch):
    import statmap.dataio as dio
    import statmap.gpmap as gm

    fmap = fitted_map()
    path = tmp_path / "map.json"
    save_map(fmap, path)

    dio._last_map.clear()
    with monkeypatch.context() as patch:
        patch.setattr(gm, "_potrf", lambda a: 1)   # LAPACK's info > 0
        with pytest.raises(IllConditionedError):
            load_map(path)
    # the same bytes load once the factorisation works
    np.testing.assert_array_equal(load_map(path).chol_inv, fmap.chol_inv)
    # a broken file, then the fixed one
    text = path.read_text()
    path.write_text(text[:len(text) // 2])
    with pytest.raises(ParseError):
        load_map(path)
    path.write_text(text)
    assert load_map(path).hyper == fmap.hyper


def test_map_load_drops_the_last_map_before_building_another(tmp_path,
                                                             monkeypatch):
    # a process that switches maps holds one factor at a time
    import weakref

    import statmap.dataio as dio

    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_map(fitted_map(), first)
    save_map(fitted_map(), second)
    dio._last_map.clear()
    last = weakref.ref(load_map(first).chol_inv)
    alive_at_build = []
    real_build = dio.build_map

    def build(*args):
        alive_at_build.append(last() is not None)
        return real_build(*args)

    monkeypatch.setattr(dio, "build_map", build)
    load_map(second)
    assert alive_at_build == [False]


def test_map_unknown_version(tmp_path):
    path = tmp_path / "map.json"
    path.write_text('{"kind":"statmap-gp-map","version":7}\n')
    with pytest.raises(ParseError):
        load_map(path)


def test_chart_roundtrip(tmp_path):
    # chart.json is written for inspection; no command reads it back
    model = init_chart_model(9, hidden=(12, 6), seed=4)
    path = tmp_path / "chart.json"
    save_chart(model, path)
    doc = json.loads(path.read_text())
    assert (doc["kind"], doc["version"]) == ("statmap-chart", 1)
    assert doc["layer_dims"] == model.layer_dims == [9, 12, 6, 2]
    back = ChartModel(weights=tuple(np.array(w) for w in doc["weights"]),
                      biases=tuple(np.array(b) for b in doc["biases"]))
    for saved, stored in ((model.weights, back.weights),
                          (model.biases, back.biases)):
        assert len(saved) == len(stored)
        for a, b in zip(saved, stored):
            assert a.tobytes() == b.tobytes() and a.shape == b.shape
    x = np.random.default_rng(0).normal(size=9)
    np.testing.assert_array_equal(forward(model, x), forward(back, x))


# ---------------------------------------------------------------- pipeline

def test_simulate_dataset_deterministic():
    a = simulate_dataset(SMALL)
    b = simulate_dataset(SMALL)
    assert len(a) == SMALL.n_train_users
    for ra, rb in zip(a.records, b.records):
        np.testing.assert_array_equal(ra.power_samples, rb.power_samples)
    c = simulate_dataset(dataclasses.replace(SMALL, seed=6))
    assert not np.array_equal(a.records[0].power_samples,
                              c.records[0].power_samples)


@pytest.mark.parametrize("with_csi", [False, True])
@pytest.mark.parametrize("antennas", [1, 2])
def test_simulated_records_equal_per_user_draws(monkeypatch, with_csi,
                                                antennas):
    # the training users' fields are evaluated once, in one batch, and give
    # each user the draws a call of its own would
    config = dataclasses.replace(
        TINY_CHART, n_train_users=40,
        scenario=ScenarioConfig(num_antennas=antennas))
    evaluations = []

    def counted(name):
        original = getattr(Scenario, name)

        def method(self, locs):
            evaluations.append(name)
            return original(self, locs)
        return method

    for name in ("path_amplitudes", "path_angles"):
        monkeypatch.setattr(Scenario, name, counted(name))
    ds = simulate_dataset(config, with_csi=with_csi)
    monkeypatch.undo()
    assert sorted(evaluations) == ["path_amplitudes", "path_angles"]
    seed = config.seed
    scenario = generate_scenario(config.scenario, seed)
    cc = config.chart
    for i, record in enumerate(ds.records):
        assert record.power_samples.tobytes() == draw_power_samples(
            scenario, record.location, config.samples_per_user,
            derive_seed(seed, "train-power", i)).tobytes()
        if with_csi:
            assert record.csi.tobytes() == draw_csi(
                scenario, record.location, derive_seed(seed, "train-csi", i),
                cc.csi_antennas, cc.csi_subcarriers,
                cc.csi_bandwidth_hz).tobytes()
        else:
            assert record.csi is None


@pytest.mark.parametrize("with_csi", [False, True])
def test_simulated_records_do_not_depend_on_cpu_count(monkeypatch, with_csi):
    # three full blocks of training users and a short last one
    config = dataclasses.replace(TINY_CHART,
                                 n_train_users=3 * harness.DRAW_BLOCK + 5)
    blobs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)     # switch threads often
    try:
        for cpus in (1, 2, 4):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, n=cpus: set(range(n)),
                                raising=False)
            assert _threads._worker_count() == cpus
            ds = simulate_dataset(config, with_csi=with_csi)
            blobs.append([(r.user_id, r.location, r.power_samples.tobytes(),
                           r.csi if r.csi is None else r.csi.tobytes())
                          for r in ds.records])
    finally:
        sys.setswitchinterval(interval)
    assert [blob[0] for blob in blobs[0]] == list(range(config.n_train_users))
    assert all(blob == blobs[0] for blob in blobs)


def test_chart_test_queries_equal_per_user_csi_draws(monkeypatch):
    drawn = {}

    def recorded(scenario, loc, sample_seed, *grid_and_rays):
        csi = draw_csi(scenario, loc, sample_seed, *grid_and_rays)
        drawn[sample_seed] = (scenario, loc, grid_and_rays, csi)
        return csi

    monkeypatch.setattr(harness, "draw_csi", recorded)
    run_chart_experiment(TINY_CHART)
    locs = harness._uniform_test_locations(TINY_CHART)
    for user, loc in enumerate(locs):
        sample_seed = derive_seed(TINY_CHART.seed, "test-csi", user)
        scenario, drawn_at, (*grid, rays), csi = drawn[sample_seed]
        assert drawn_at == loc and rays is not None
        cc = TINY_CHART.chart
        assert grid == [cc.csi_antennas, cc.csi_subcarriers,
                        cc.csi_bandwidth_hz]
        assert scenario.config == TINY_CHART.scenario
        assert csi.tobytes() == draw_csi(scenario, loc, sample_seed,
                                         *grid).tobytes()


def test_estimate_capacities_matches_manual():
    ds = small_dataset()
    got = estimate_capacities(
        capacity_distributions(ds, SMALL.scenario.noise_power), SMALL.epsilon)
    rec = ds.records[7]
    caps = capacity_from_power(rec.power_samples, SMALL.scenario.noise_power)
    want = empirical_quantile(EmpiricalDistribution.from_samples(caps),
                              SMALL.epsilon)
    assert got[7] == want


def test_estimate_capacities_one_record():
    # the quantile runs over all 5000 samples of the one user
    p = np.random.default_rng(9).exponential(size=5000)
    ds = Dataset(records=[UserRecord(user_id=0, location=None,
                                     power_samples=p)])
    got = estimate_capacities(capacity_distributions(ds, noise_power=1.0),
                              0.01)
    d = EmpiricalDistribution.from_samples(capacity_from_power(p, 1.0))
    assert got.shape == (1,)
    assert got[0] == empirical_quantile(d, 0.01)


def test_experiment_config_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(samples_per_user=10, epsilon=0.05)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(epsilon=2.0)


@pytest.mark.parametrize("seed", [-2**127 - 1, 2**127, 2**128],
                         ids=["-2^127-1", "2^127", "2^128"])
@pytest.mark.parametrize("cls", [ExperimentConfig, MismatchDemoConfig])
def test_configs_refuse_seeds_outside_128_bits(cls, seed):
    # derive_seed packs the root seed into 16 signed bytes: outside them it
    # raised OverflowError at the first draw
    with pytest.raises(ConfigurationError) as err:
        cls(seed=seed)
    assert str(err.value) == (
        f"seed must be an integer in [-2^127, 2^127), got {seed}")


@pytest.mark.parametrize("seed", [-2**127, 2**127 - 1])
@pytest.mark.parametrize("cls", [ExperimentConfig, MismatchDemoConfig])
def test_configs_take_seeds_at_the_ends_of_128_bits(cls, seed):
    assert derive_seed(cls(seed=seed).seed, "test-users") >= 0


MOST_DRAWS = harness.MAX_DRAW_BUFFER_BYTES // (7 * 16)


@pytest.mark.parametrize("name, fits, too_many, huge", [
    ("samples_per_user", MOST_DRAWS, MOST_DRAWS + 1, 10 ** 12),
    # the oracle's Monte-Carlo fallback draws ceil(100 / epsilon) samples
    ("epsilon", 100 / (MOST_DRAWS - 0.5), 100 / (MOST_DRAWS + 0.5), 1e-12),
], ids=["samples_per_user", "epsilon"])
def test_experiment_config_bounds_the_draw_buffer(name, fits, too_many, huge):
    # n x num_paths complex path entries may fill at most
    # MAX_DRAW_BUFFER_BYTES; a larger n is refused without allocating it
    ExperimentConfig(**{"samples_per_user": MOST_DRAWS, name: fits})
    with pytest.raises(ConfigurationError,
                       match=f"^{name}=.* needs more draws than the "
                       f"{MOST_DRAWS} "):
        ExperimentConfig(**{name: too_many})
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError, match=f"^{name}={huge} needs"):
            ExperimentConfig(**{name: huge})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_location_report_self_consistent():
    report = run_location_experiment(SMALL)
    assert report.mode == "location"
    policies = report.policies()
    assert policies == ["map_quantile", "nearest_neighbor"]
    assert sorted(report.rate) == sorted(report.outage_prob) == policies
    for policy in policies:
        frac, n = report.violation_fraction(policy)
        outages = report.outage_prob[policy]
        assert n == outages.size == report.rate[policy].size \
            == SMALL.n_test_users
        manual = sum(1 for p in outages if p > SMALL.epsilon) / n
        assert frac == manual
        table = report.outage_cdf_table(policy)
        assert table[-1][1] == 1.0
        assert all(a[0] <= b[0] for a, b in zip(table, table[1:]))
    # the columns are in user order: user i's query is test location i
    locs = harness._uniform_test_locations(SMALL)
    assert report.x.tolist() == [loc.x for loc in locs]
    assert report.y.tolist() == [loc.y for loc in locs]
    assert report.true_ceps.size == SMALL.n_test_users


def test_location_monotone_conservatism():
    lo = run_location_experiment(dataclasses.replace(SMALL, delta=0.01))
    hi = run_location_experiment(dataclasses.replace(SMALL, delta=0.2))
    lo_rates, hi_rates = lo.rate["map_quantile"], hi.rate["map_quantile"]
    assert lo_rates.size == hi_rates.size == SMALL.n_test_users
    assert np.all(lo_rates <= hi_rates)


def test_location_experiment_deterministic_files(tmp_path):
    r1 = run_location_experiment(SMALL)
    r2 = run_location_experiment(SMALL)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    p1 = write_report(r1, d1)
    p2 = write_report(r2, d2)
    for a, b in zip(p1, p2):
        assert open(a, "rb").read() == open(b, "rb").read()


def test_chart_experiment_smoke_and_determinism(tmp_path):
    r1 = run_chart_experiment(TINY_CHART)
    r2 = run_chart_experiment(TINY_CHART)
    assert r1.mode == "chart"
    assert set(r1.rate) == set(r1.outage_prob) == {"map_quantile",
                                                   "nearest_neighbor"}
    p1 = write_report(r1, tmp_path / "a")
    p2 = write_report(r2, tmp_path / "b")
    for a, b in zip(p1, p2):
        assert open(a, "rb").read() == open(b, "rb").read()
    assert "chart_epoch_losses" in r1.config_echo
    with open(tmp_path / "a" / "report_meta.json") as f:
        assert json.load(f)["n_rows"] == 2 * TINY_CHART.n_test_users
    with open(tmp_path / "a" / "report_rows.csv") as f:
        assert len(f.read().splitlines()) == 1 + 2 * TINY_CHART.n_test_users


def test_stage_name_in_errors():
    bad = dataclasses.replace(
        SMALL, pointprocess=dataclasses.replace(SMALL.pointprocess,
                                                parent_intensity=1e-12))
    with pytest.raises(ConfigurationError) as exc:
        run_location_experiment(bad)
    assert "stage" in str(exc.value)


# ---------------------------------------------------------------- test users
# The oracle judges blocks of test users on a thread pool.

THREADED = dataclasses.replace(SMALL, n_test_users=40)


def test_threaded_oracle_matches_serial_loop():
    report = run_location_experiment(THREADED)
    scenario = generate_scenario(THREADED.scenario, THREADED.seed)
    seed = THREADED.seed
    columns = [report.x, report.y, report.true_ceps]
    for policy in (POLICY_MAP, POLICY_BASELINE):
        columns += [report.rate[policy], report.outage_prob[policy]]
    assert all(col.size == THREADED.n_test_users for col in columns)
    x, y, true_ceps, m_rate, m_outage, b_rate, b_outage = (
        col.tolist() for col in columns)
    for user in range(THREADED.n_test_users):
        loc = Location(x[user], y[user], THREADED.scenario.user_height)
        ((true_c, outages),) = true_outage_capacities(
            scenario, [loc], THREADED.epsilon, [(m_rate[user], b_rate[user])],
            [derive_seed(seed, "oracle", user)],
            [derive_seed(seed, "outage", user)])
        assert true_ceps[user] == true_c
        assert [m_outage[user], b_outage[user]] == outages


def test_oracle_error_in_a_worker_names_the_stage(monkeypatch):
    failing_seed = derive_seed(THREADED.seed, "oracle", 7)

    def oracle(scenario, locs, epsilon, rates, oracle_seeds, outage_seeds):
        if failing_seed in oracle_seeds:
            raise FitError("oracle failed")
        return true_outage_capacities(scenario, locs, epsilon, rates,
                                      oracle_seeds, outage_seeds)

    monkeypatch.setattr(harness, "true_outage_capacities", oracle)
    with pytest.raises(FitError,
                       match=r"^\[stage evaluate-test-users\] oracle failed$"):
        run_location_experiment(THREADED)


def test_report_bytes_do_not_depend_on_cpu_count(tmp_path, monkeypatch):
    # nor on the oracle's block size: 40 users in blocks of 1, 7 (a short
    # last block) and the default
    blobs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)     # switch threads often
    try:
        for cpus in (1, 2, 4):
            for block in (1, 7, harness.ORACLE_BLOCK):
                monkeypatch.setattr(os, "sched_getaffinity",
                                    lambda pid, n=cpus: set(range(n)),
                                    raising=False)
                monkeypatch.setattr(harness, "ORACLE_BLOCK", block)
                assert _threads._worker_count() == cpus
                paths = write_report(run_location_experiment(THREADED),
                                     tmp_path / f"{cpus}-{block}")
                blobs.append([open(p, "rb").read() for p in paths])
    finally:
        sys.setswitchinterval(interval)
    assert len(blobs) == 9 and all(blob == blobs[0] for blob in blobs)


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_workers_run_under_the_callers_numpy_error_state(monkeypatch, cpus):
    # numpy keeps its error state per thread: every worker of the draw pool,
    # the judging pool and the fit's starts must read the caller's, as work
    # run inline does
    import statmap.gpmap as gm

    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(harness, "ORACLE_BLOCK", 7)     # 6 judging blocks
    seen = {"draw": [], "judge": [], "start": []}

    def recorded(key, work):
        def wrapper(*args):
            seen[key].append(np.geterr())
            return work(*args)
        return wrapper

    monkeypatch.setattr(harness, "draw_power_samples",
                        recorded("draw", draw_power_samples))
    monkeypatch.setattr(harness, "true_outage_capacities",
                        recorded("judge", true_outage_capacities))
    monkeypatch.setattr(gm, "_profiled_lml",
                        recorded("start", gm._profiled_lml))
    # raise where numpy would warn; an underflow in the kernel is harmless
    with np.errstate(all="raise", under="ignore"):
        caller = np.geterr()
        run_location_experiment(dataclasses.replace(THREADED, gp_restarts=2))
    assert [len(seen[key]) > 0 for key in seen] == [True] * 3
    assert all(errs == caller for errs in sum(seen.values(), []))


def test_one_oracle_block_stays_within_its_memory_bound():
    # the bound stated beside ORACLE_BLOCK: a block of the default
    # experiment's test users allocates at most 1 MiB at its peak, so a
    # larger block shows here before it shows in peak RSS
    config = ExperimentConfig(seed=1)
    scenario = generate_scenario(config.scenario, config.seed)
    locs = harness._uniform_test_locations(config)[:harness.ORACLE_BLOCK]
    users = range(len(locs))
    tracemalloc.start()
    try:
        true_outage_capacities(scenario, locs, config.epsilon,
                               [(3.0, 5.0)] * len(locs), users, users)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


def test_aggregates_report_what_the_rate_costs(tmp_path):
    report = run_location_experiment(THREADED)
    paths = write_report(report, tmp_path)
    lines = open(paths[1]).read().splitlines()
    assert lines[0] == ("policy,violation_fraction,n,violation_over_delta,"
                        "rate_over_true_ceps")
    rows = [line.split(",") for line in open(paths[0]).read().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == sorted(int(r[0]) for r in rows)
    for line in lines[1:]:
        policy, frac, n, over_delta, rate_ratio = line.split(",")
        mine = [r for r in rows if r[6] == policy]
        assert float(frac) == report.violation_fraction(policy)[0]
        assert int(n) == len(mine) == THREADED.n_test_users
        assert float(over_delta) == pytest.approx(
            float(frac) / THREADED.delta, rel=1e-15)
        # exact: the sums run left to right in user order, as recomputed
        # here; a pairwise np.sum would move the last digits
        assert float(rate_ratio) == (
            sum(float(r[4]) for r in mine) / sum(float(r[3]) for r in mine))


def test_worker_count_without_cpu_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert _threads._worker_count() == (os.cpu_count() or 1)


# ---------------------------------------------------------------- demo

def test_mismatch_demo_small_scale(tmp_path):
    cfg = MismatchDemoConfig(fit_sizes=(1000, 100_000), seed=1)
    summary = run_mismatch_demo(cfg, tmp_path)
    for p in summary["paths"]:
        assert os.path.exists(p)
    # identical breakpoints across both scales
    lin = open(summary["paths"][0]).read().splitlines()
    log = open(summary["paths"][1]).read().splitlines()
    assert len(lin) == len(log)
    assert [l.split(",")[0] for l in lin] == [l.split(",")[0] for l in log]
    # log-scale table is log10 of the linear one
    v_lin = float(lin[5].split(",")[1])
    v_log = float(log[5].split(",")[1])
    assert v_log == pytest.approx(math.log10(v_lin), abs=1e-9)
    # non-parametric estimator tracks the oracle at this reduced scale
    assert summary["empirical_max_dev"] < dkw_band(100_000, 0.99)
    assert summary["rician_tail_max_dev"] > summary["empirical_max_dev"]


def test_mismatch_demo_deterministic(tmp_path):
    cfg = MismatchDemoConfig(fit_sizes=(1000, 10_000), seed=3)
    s1 = run_mismatch_demo(cfg, tmp_path / "x")
    s2 = run_mismatch_demo(cfg, tmp_path / "y")
    for a, b in zip(s1["paths"], s2["paths"]):
        assert open(a, "rb").read() == open(b, "rb").read()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mismatch_demo_oracle_is_the_converged_exact_cdf(tmp_path, seed):
    # the breakpoints come from the pilot draw alone, so one small fit will do
    summary = run_mismatch_demo(
        MismatchDemoConfig(fit_sizes=(1000,), seed=seed), tmp_path)
    table = np.loadtxt(summary["paths"][3], delimiter=",", skiprows=1)
    a = np.asarray(harness.DEMO_AMPLITUDES)
    radii = np.sqrt(table[:, 0] * np.sum(a ** 2)) / a.sum()
    full_grid, fine_grid = _kluyver_grid(KLUYVER_TERMS), _kluyver_grid(65536)
    full = _j0_products((a / a.sum())[None], *full_grid)
    fine = _j0_products((a / a.sum())[None], *fine_grid)
    assert table[0, 1] < 2e-5      # the table reaches into the deep tail
    for r, oracle in zip(radii, table[:, 1]):
        value, spread = (v.item() for v in _kluyver_cdf(
            np.array([[r]]), full_grid[0], full))
        assert oracle == pytest.approx(value, rel=1e-12)
        assert spread <= KLUYVER_CONVERGENCE_TOL * value
        assert abs(oracle - _kluyver_cdf(
            np.array([[r]]), fine_grid[0], fine)[0].item()) < 1e-7


def test_mismatch_demo_draws_only_the_pilot_and_the_fits(tmp_path,
                                                         monkeypatch):
    # the pilot and one draw per fit; the exact oracle draws nothing
    sizes, draw = [], harness.multipath_power_samples

    def counted(amplitudes, n, rng):
        sizes.append(n)
        return draw(amplitudes, n, rng)

    monkeypatch.setattr(harness, "multipath_power_samples", counted)
    run_mismatch_demo(MismatchDemoConfig(fit_sizes=(1000, 10_000), seed=2),
                      tmp_path)
    assert sizes == [1_000_000, 1000, 10_000]


def test_demo_config_bounds_the_draw_buffer():
    # a fit size may fill at most MAX_DRAW_BUFFER_BYTES with the demo's
    # 7 paths, the same bound as samples_per_user
    MismatchDemoConfig(fit_sizes=(1000, MOST_DRAWS))
    with pytest.raises(ConfigurationError,
                       match=rf"^fit_sizes=\[1000, {MOST_DRAWS + 1}\] needs "
                       f"more draws than the {MOST_DRAWS} "):
        MismatchDemoConfig(fit_sizes=(1000, MOST_DRAWS + 1))
