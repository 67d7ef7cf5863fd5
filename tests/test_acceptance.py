"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance is stated
inline; Monte-Carlo criteria run on frozen seeds so the outcomes are
deterministic on a given platform.
"""

import dataclasses
import json
import math
import os
import time

import numpy as np
import pytest

from statmap.chart import _batch_loss_and_grads, init_chart_model
from statmap.cli import main as cli_main
from statmap.errors import InsufficientSamplesError
from statmap.gpmap import (
    Hyperparams,
    TrainingSet,
    build_map,
    fit,
    kernel_matrix,
    predict,
)
from statmap.harness import (
    ExperimentConfig,
    MismatchDemoConfig,
    run_chart_experiment,
    run_location_experiment,
    run_mismatch_demo,
    write_report,
)
from statmap.rateselect import select_rate_map
from statmap.stats import (
    EmpiricalDistribution,
    capacity_from_power,
    dkw_band,
    empirical_quantile,
    wasserstein1,
)

RESULTS = []


def report(criterion, passed, detail, elapsed=None):
    status = "PASS" if passed else "FAIL"
    timing = f" [{elapsed:.1f} s]" if elapsed is not None else ""
    line = f"ACCEPTANCE {criterion}: {status}{timing} - {detail}"
    RESULTS.append(line)
    print("\n" + line)
    assert passed, line


@pytest.fixture(scope="module")
def location_report():
    config = ExperimentConfig(seed=1)  # 500 train users, eps=delta=1e-2
    t0 = time.perf_counter()
    rep = run_location_experiment(config)
    return rep, time.perf_counter() - t0


def test_criterion_1_meta_probability_calibration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    truth = Hyperparams(prior_mean=8.0, signal_var=2.0, length_scale=20.0,
                        noise_var=0.08)
    n_train, n_test, delta = 500, 10_000, 0.05
    train_xy = rng.uniform(-100, 100, size=(n_train, 2))
    test_xy = rng.uniform(-100, 100, size=(n_test, 2))
    k = kernel_matrix(train_xy, dataclasses.replace(truth, noise_var=0.0))
    k[np.diag_indices_from(k)] += 1e-10
    low = np.linalg.cholesky(k)
    f_train = truth.prior_mean + low @ rng.normal(size=n_train)
    y = f_train + rng.normal(0.0, math.sqrt(truth.noise_var), n_train)
    train = TrainingSet.new(train_xy, y)
    # true outage capacities at held-out points: exact conditional marginals
    true_preds = predict(build_map(train, truth), test_xy)
    g = rng.normal(size=n_test)
    truths = np.array([m + math.sqrt(v) * gg
                       for m, v, gg in zip(true_preds.mean,
                                           true_preds.variance, g)])
    # rates from a map whose hyperparameters are re-fitted from the data
    fmap = fit(train, restarts=2, seed=0)
    rates = select_rate_map(predict(fmap, test_xy), delta)
    violations = float(np.mean(rates > truths))
    elapsed = time.perf_counter() - t0
    ok = 0.037 <= violations <= 0.065 and elapsed < 60.0
    report("1 (calibration)", ok,
           f"violation fraction {violations:.4f} in [0.037, 0.065], "
           f"delta=0.05, 10^4 held-out points", elapsed)


def test_criterion_2_location_experiment(location_report):
    rep, elapsed = location_report
    map_frac, n_map = rep.violation_fraction("map_quantile")
    base_frac, n_base = rep.violation_fraction("nearest_neighbor")
    ok = (map_frac <= 0.05 and 0.35 <= base_frac <= 0.65
          and n_map == n_base == 2000 and elapsed < 300.0)
    report("2 (location experiment)", ok,
           f"map violation {map_frac:.4f} <= 0.05, baseline {base_frac:.4f} "
           f"in [0.35, 0.65], eps=delta=1e-2, 500 train / 2000 test users",
           elapsed)


def test_criterion_3_chart_experiment(location_report, tmp_path):
    base_frac, _ = location_report[0].violation_fraction("nearest_neighbor")
    config = ExperimentConfig(seed=1, n_train_users=2000, gp_restarts=1)
    t0 = time.perf_counter()
    rep1 = run_chart_experiment(config)
    rep2 = run_chart_experiment(config)
    elapsed = time.perf_counter() - t0
    chart_frac, n = rep1.violation_fraction("map_quantile")
    paths1 = write_report(rep1, tmp_path / "run1")
    paths2 = write_report(rep2, tmp_path / "run2")
    identical = all(open(a, "rb").read() == open(b, "rb").read()
                    for a, b in zip(paths1, paths2))
    ok = chart_frac < base_frac and identical and n == 2000 and elapsed < 900.0
    report("3 (chart experiment)", ok,
           f"chart violation {chart_frac:.4f} < location baseline "
           f"{base_frac:.4f}, 2000 train users, byte-deterministic={identical}",
           elapsed)


def test_criterion_4_mismatch_demo(tmp_path):
    t0 = time.perf_counter()
    summary = run_mismatch_demo(MismatchDemoConfig(seed=1), tmp_path)
    elapsed = time.perf_counter() - t0
    band = dkw_band(1_000_000, 0.99)
    # independent re-read of the emitted table
    lines = open(summary["paths"][0]).read().splitlines()
    header = lines[0].split(",")
    cols = {h: np.array([float(l.split(",")[i]) for l in lines[1:]])
            for i, h in enumerate(header)}
    emp_dev = np.max(np.abs(cols["empirical_cdf_n1000000"] - cols["oracle_cdf"]))
    tail = cols["oracle_cdf"] <= 1e-3
    ric_dev = np.max(np.abs(cols["rician_cdf_n1000000"][tail]
                            - cols["oracle_cdf"][tail]))
    ok = (band == pytest.approx(1.63e-3, abs=3e-6)
          and emp_dev < band and ric_dev > band and elapsed < 180.0)
    report("4 (mismatch demo)", ok,
           f"non-parametric max dev {emp_dev:.2e} < DKW {band:.2e}; Rician "
           f"tail dev {ric_dev:.2e} exceeds the band at oracle CDF <= 1e-3",
           elapsed)


def test_criterion_5_gp_unit_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(50)
    # (a) 3-point LML vs dense multivariate-normal oracle, 1e-8
    lml_ok = True
    for _ in range(5):
        coords = rng.uniform(-5, 5, size=(3, 2))
        targets = rng.normal(size=3)
        train = TrainingSet.new(coords, targets)
        h = Hyperparams(float(rng.normal()), float(rng.uniform(0.5, 2)),
                        float(rng.uniform(0.5, 3)), float(rng.uniform(0.01, 0.5)))
        k = kernel_matrix(coords, h)
        r = targets - h.prior_mean
        sign, logdet = np.linalg.slogdet(k)
        oracle = -0.5 * r @ np.linalg.inv(k) @ r - 0.5 * logdet \
            - 1.5 * math.log(2 * math.pi)
        lml = build_map(train, h).diagnostics.log_marginal_likelihood
        lml_ok &= abs(lml - oracle) < 1e-8
    # (b) noiseless interpolation residual < 1e-8
    coords = rng.uniform(-4, 4, size=(30, 2))
    y = np.sin(coords[:, 0]) + np.cos(coords[:, 1])
    fmap = build_map(TrainingSet.new(coords, y),
                     Hyperparams(0.0, 1.0, 2.0, 0.0))
    interp_ok = all(abs(predict(fmap, coords[i]).mean[0] - y[i]) < 1e-8
                    for i in range(30))
    # (c) posterior variance <= prior variance on a 1e4-point grid
    h = Hyperparams(0.0, 2.0, 1.5, 0.1)
    fmap2 = build_map(TrainingSet.new(rng.uniform(-5, 5, (60, 2)),
                                      rng.normal(size=60)), h)
    grid = np.stack(np.meshgrid(np.linspace(-8, 8, 100),
                                np.linspace(-8, 8, 100)),
                    axis=-1).reshape(-1, 2)
    var_ok = all(v <= h.signal_var + 1e-12
                 for v in predict(fmap2, grid).variance)
    # (d) Cholesky posterior equals dense-inverse posterior, N <= 50
    dense_ok = True
    for n in (10, 50):
        coords = rng.uniform(-5, 5, size=(n, 2))
        targets = rng.normal(size=n)
        h = Hyperparams(0.2, 1.3, 1.1, 0.05)
        fmap3 = build_map(TrainingSet.new(coords, targets), h)
        kinv = np.linalg.inv(kernel_matrix(coords, h))
        for _ in range(5):
            q = rng.uniform(-5, 5, 2)
            kx = h.signal_var * np.exp(
                -np.sum((coords - q) ** 2, axis=1) / (2 * h.length_scale ** 2))
            mean = h.prior_mean + kx @ kinv @ (targets - h.prior_mean)
            var = h.signal_var - kx @ kinv @ kx
            p = predict(fmap3, q)
            dense_ok &= (abs(p.mean[0] - mean) < 1e-8
                         and abs(p.variance[0] - var) < 1e-8)
    ok = lml_ok and interp_ok and var_ok and dense_ok
    report("5 (GP unit suite)", ok,
           f"LML oracle {lml_ok}, interpolation {interp_ok}, variance bound "
           f"{var_ok}, dense-inverse match {dense_ok}",
           time.perf_counter() - t0)


def test_criterion_6_gradient_check():
    t0 = time.perf_counter()
    rng = np.random.default_rng(60)
    feats = rng.normal(size=(9, 6))
    triplets = np.array([(0, 1, 2), (3, 4, 5), (6, 7, 8), (1, 3, 6),
                         (2, 5, 7)])
    model = init_chart_model(6, hidden=(10, 8), seed=1)
    margin = 5.0
    idx = triplets.T
    _, gw, gb = _batch_loss_and_grads(model.weights, model.biases, feats,
                                      *idx, margin)
    analytic = np.concatenate([g.ravel() for g in gw]
                              + [g.ravel() for g in gb])

    sizes_w = [w.shape for w in model.weights]
    sizes_b = [b.shape for b in model.biases]

    def rebuild(flat):
        ws, bs, pos = [], [], 0
        for s in sizes_w:
            n = s[0] * s[1]
            ws.append(flat[pos:pos + n].reshape(s)); pos += n
        for s in sizes_b:
            bs.append(flat[pos:pos + s[0]]); pos += s[0]
        from statmap.chart import ChartModel

        return ChartModel(weights=tuple(ws), biases=tuple(bs))

    theta = np.concatenate([w.ravel() for w in model.weights]
                           + [b.ravel() for b in model.biases])
    step = 1e-5
    fd = np.empty_like(theta)
    for i in range(theta.size):
        up = theta.copy(); up[i] += step
        dn = theta.copy(); dn[i] -= step
        m_up, m_dn = rebuild(up), rebuild(dn)
        fd[i] = (_batch_loss_and_grads(m_up.weights, m_up.biases, feats,
                                       *idx, margin)[0]
                 - _batch_loss_and_grads(m_dn.weights, m_dn.biases, feats,
                                         *idx, margin)[0]
                 ) / (2 * step)
    rel = np.abs(analytic - fd) / np.maximum(np.abs(analytic) + np.abs(fd),
                                             1e-8)
    max_rel = float(rel.max())
    report("6 (gradient check)", max_rel < 1e-4,
           f"max relative error {max_rel:.2e} < 1e-4 over "
           f"{theta.size} parameters, central differences at step 1e-5",
           time.perf_counter() - t0)


def test_criterion_7_statistics_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(70)
    sets = [EmpiricalDistribution.from_samples(
        rng.normal(size=rng.integers(2, 30))) for _ in range(40)]
    sym_ok, tri_ok = True, True
    for i, j, k in rng.integers(0, len(sets), size=(1000, 3)):
        dij = wasserstein1(sets[i], sets[j])
        sym_ok &= dij == wasserstein1(sets[j], sets[i])
        tri_ok &= dij <= (wasserstein1(sets[i], sets[k])
                          + wasserstein1(sets[k], sets[j]) + 1e-12)
    p = rng.exponential(size=800)
    q_pow = empirical_quantile(EmpiricalDistribution.from_samples(p), 0.02)
    q_cap = empirical_quantile(EmpiricalDistribution.from_samples(
        capacity_from_power(p, 0.5)), 0.02)
    commute_ok = q_cap == capacity_from_power(q_pow, 0.5)
    try:
        empirical_quantile(EmpiricalDistribution.from_samples(np.arange(100)),
                           0.01)
        reject_ok = False
    except InsufficientSamplesError:
        reject_ok = True
    ok = sym_ok and tri_ok and commute_ok and reject_ok
    report("7 (statistics suite)", ok,
           f"W1 symmetry exact {sym_ok}, triangle within 1e-12 {tri_ok}, "
           f"quantile/capacity commutation exact {commute_ok}, "
           f"n<=1/eps rejected {reject_ok}", time.perf_counter() - t0)


def test_criterion_8_cli_reproducibility(tmp_path):
    t0 = time.perf_counter()
    scenario = {"field_components": 64}
    exp = {"n_train_users": 70, "samples_per_user": 300, "epsilon": 0.05,
           "delta": 0.05, "n_test_users": 50, "gp_restarts": 1}
    chart = {"csi_antennas": 4, "csi_subcarriers": 16, "s_red": 8,
             "hidden": [16, 8], "n_triplets": 300, "epochs": 3,
             "batch_size": 64}
    loc_doc = {"scenario": scenario, "experiment": exp, "mode": "location"}
    chart_doc = {"scenario": scenario, "experiment": exp, "chart": chart,
                 "mode": "chart"}
    demo_doc = {"demo": {"fit_sizes": [1000, 10_000]}}

    def write_cfg(doc, name):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def run_twice(command, doc, name, extra=None):
        cfg = write_cfg(dict(doc, **(extra or {})), name)
        outs = []
        for run_id in ("a", "b"):
            out = tmp_path / f"{name}-{run_id}"
            code = cli_main([command, "--config", cfg, "--seed", "4",
                             "--out", str(out)])
            assert code == 0, f"{command} exited {code}"
            blobs = {}
            for fn in sorted(os.listdir(out)):
                with open(out / fn, "rb") as fh:
                    blobs[fn] = fh.read()
            outs.append(blobs)
        return outs[0] == outs[1]

    results = {}
    results["simulate"] = run_twice("simulate", loc_doc, "sim")
    sim_out = tmp_path / "dataset"
    cli_main(["simulate", "--config", write_cfg(loc_doc, "ds.json"),
              "--seed", "4", "--out", str(sim_out)])
    dataset = {"dataset": str(sim_out / "dataset.jsonl")}
    results["fit-map"] = run_twice("fit-map", loc_doc, "fit", dataset)
    chart_out = tmp_path / "chart-dataset"
    cli_main(["simulate", "--config", write_cfg(chart_doc, "cds.json"),
              "--seed", "4", "--out", str(chart_out)])
    results["train-chart"] = run_twice(
        "train-chart", chart_doc, "tc",
        {"dataset": str(chart_out / "dataset.jsonl")})
    fit_out = tmp_path / "map-for-select"
    cli_main(["fit-map", "--config", write_cfg(dict(loc_doc, **dataset),
                                               "fm.json"),
              "--seed", "4", "--out", str(fit_out)])
    results["select-rate"] = run_twice(
        "select-rate", loc_doc, "sel",
        {"select_rate": {"map": str(fit_out / "map.json"), "delta": 0.05,
                         "queries": [[0.0, 0.0], [40.0, -60.0]]}})
    results["evaluate"] = run_twice("evaluate", loc_doc, "ev")
    results["mismatch-demo"] = run_twice("mismatch-demo", demo_doc, "demo")
    ok = all(results.values())
    report("8 (CLI reproducibility)", ok,
           "byte-identical reruns: " + ", ".join(
               f"{k}={v}" for k, v in results.items()),
           time.perf_counter() - t0)


def test_print_summary():
    print("\n" + "\n".join(RESULTS))
