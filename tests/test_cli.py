"""CLI tests: command pipelines, exit codes, and byte-identical reruns."""

import base64
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import statmap
from statmap.cli import _experiment_config, main
from statmap.dataio import save_chart, save_map
from statmap.errors import FitError, NumericalError
from statmap.gpmap import Hyperparams, TrainingSet, build_map
from statmap.harness import (
    MAX_CHART_BYTES,
    MAX_DRAW_BUFFER_BYTES,
    ChartTrainingConfig,
    ExperimentConfig,
    fit_chart,
    fit_location_map,
    simulate_dataset,
)
from statmap.propagation import (
    Location,
    PointProcessConfig,
    ScenarioConfig,
    derive_seed,
    draw_power_samples,
)
from statmap.rateselect import gaussian_quantile

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SCENARIO_SMALL = {"field_components": 64}

BASE_CONFIG = {
    "seed": 9,
    "mode": "location",
    "scenario": SCENARIO_SMALL,
    "experiment": {
        "n_train_users": 80, "samples_per_user": 300, "epsilon": 0.05,
        "delta": 0.05, "n_test_users": 60, "gp_restarts": 1,
    },
}

CHART_CONFIG = {
    "seed": 9,
    "mode": "chart",
    "scenario": SCENARIO_SMALL,
    "experiment": {
        "n_train_users": 50, "samples_per_user": 300, "epsilon": 0.05,
        "delta": 0.05, "n_test_users": 40, "gp_restarts": 1,
    },
    "chart": {"csi_antennas": 4, "csi_subcarriers": 16, "s_red": 8,
              "hidden": [16, 8], "n_triplets": 300, "epochs": 3,
              "batch_size": 64},
}

DEMO_CONFIG = {"demo": {"fit_sizes": [1000, 10_000]}}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(cmd, cfg, out, seed=None, full=False):
    argv = [cmd, "--config", cfg, "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if full:
        argv.append("--full")
    return main(argv)


def experiment_config(doc):
    """The ExperimentConfig that the CLI reads from doc, built directly."""
    chart = dict(doc.get("chart", {}))
    if "hidden" in chart:
        chart["hidden"] = tuple(chart["hidden"])
    return ExperimentConfig(scenario=ScenarioConfig(**doc["scenario"]),
                            chart=ChartTrainingConfig(**chart),
                            seed=doc["seed"], **doc["experiment"])


def read_all(out_dir):
    blobs = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            blobs[name] = fh.read()
    return blobs


# ---------------------------------------------------------------- pipelines

def test_simulate_fit_select_pipeline(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    assert run("simulate", cfg, out) == 0
    assert (out / "dataset.jsonl").exists()

    doc = dict(BASE_CONFIG, dataset=str(out / "dataset.jsonl"))
    cfg2 = write_config(tmp_path, doc, "cfg2.json")
    assert run("fit-map", cfg2, out) == 0
    # fit-map runs the location experiment's own stage
    config = experiment_config(BASE_CONFIG)
    save_map(fit_location_map(simulate_dataset(config), config),
             tmp_path / "stage_map.json")
    assert (out / "map.json").read_bytes() == \
        (tmp_path / "stage_map.json").read_bytes()

    doc3 = dict(doc, select_rate={
        "map": str(out / "map.json"), "delta": 0.05,
        "queries": [[0.0, 0.0], [25.0, -40.0], [90.0, 90.0]]})
    cfg3 = write_config(tmp_path, doc3, "cfg3.json")
    assert run("select-rate", cfg3, out) == 0
    lines = (out / "rates.csv").read_text().splitlines()
    assert lines[0] == "x,y,rate,policy"
    assert len(lines) == 4
    assert all(line.endswith("map_quantile") for line in lines[1:])


def test_train_chart_pipeline(tmp_path):
    cfg = write_config(tmp_path, CHART_CONFIG)
    out = tmp_path / "out"
    assert run("simulate", cfg, out) == 0
    doc = dict(CHART_CONFIG, dataset=str(out / "dataset.jsonl"))
    cfg2 = write_config(tmp_path, doc, "cfg2.json")
    assert run("train-chart", cfg2, out) == 0
    # train-chart runs the chart experiment's own stage
    config = experiment_config(CHART_CONFIG)
    charted = fit_chart(simulate_dataset(config, with_csi=True), config)
    save_chart(charted.model, tmp_path / "stage_chart.json")
    assert (out / "chart.json").read_bytes() == \
        (tmp_path / "stage_chart.json").read_bytes()
    trace = (out / "chart_trace.csv").read_text().splitlines()
    assert trace[0] == "epoch,mean_loss"
    assert len(trace) == 1 + CHART_CONFIG["chart"]["epochs"]


@pytest.mark.parametrize("command,doc,steps,written", [
    ("fit-map", BASE_CONFIG, ["read", "fit", "write"], ["map.json"]),
    ("train-chart", CHART_CONFIG, ["read", "train", "write"],
     ["chart.json", "chart_trace.csv"]),
])
def test_pipeline_commands_print_their_step_times(tmp_path, capsys, command,
                                                  doc, steps, written):
    def printed_steps():
        lines = capsys.readouterr().out.splitlines()
        timed = [line[:-2].split(": ") for line in lines
                 if line.endswith(" s") and not line.startswith("done in ")]
        assert all(float(seconds) >= 0.0 for _, seconds in timed)
        return [name for name, _ in timed]

    out = tmp_path / "out"
    capsys.readouterr()
    assert run("simulate", write_config(tmp_path, doc), out) == 0
    assert printed_steps() == ["draw", "write"]
    cfg = write_config(tmp_path, dict(doc, dataset=str(out / "dataset.jsonl")),
                       "cfg2.json")
    assert run(command, cfg, out) == 0
    assert printed_steps() == steps
    # the timings go to stdout only
    assert sorted(os.listdir(out)) == sorted(["dataset.jsonl", *written])


def test_evaluate_location(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    assert run("evaluate", cfg, out) == 0
    printed = [line for line in capsys.readouterr().out.splitlines()
               if "violation fraction" in line]
    assert len(printed) == 2
    assert all(" x delta), mean rate " in line for line in printed)
    for name in ("report_rows.csv", "report_aggregates.csv",
                 "outage_cdf.csv", "report_meta.json"):
        assert (out / name).exists()
    agg = (out / "report_aggregates.csv").read_text().splitlines()
    assert agg[0] == ("policy,violation_fraction,n,violation_over_delta,"
                      "rate_over_true_ceps")
    assert len(agg) == 3
    meta = json.loads((out / "report_meta.json").read_text())
    assert_fit_recorded(meta)
    assert "triplets_skipped" not in meta["config"]


def test_evaluate_chart(tmp_path):
    cfg = write_config(tmp_path, CHART_CONFIG)
    out = tmp_path / "out"
    assert run("evaluate", cfg, out) == 0
    meta = json.loads((out / "report_meta.json").read_text())
    assert meta["mode"] == "chart"
    assert_fit_recorded(meta)
    assert 0 <= meta["config"]["triplets_skipped"] < \
        CHART_CONFIG["experiment"]["n_train_users"]


def assert_fit_recorded(meta):
    """report_meta.json carries the fitted GP and its FitDiagnostics."""
    gp = meta["config"]["gp_fit"]
    Hyperparams(**gp["hyper"])
    diag = gp["diagnostics"]
    assert math.isfinite(diag["log_marginal_likelihood"])
    assert diag["iterations"] > 0
    assert diag["restarts"] == 1
    assert isinstance(diag["converged"], bool)
    assert isinstance(diag["jitter_applied"], bool)


def test_mismatch_demo_cli(tmp_path):
    cfg = write_config(tmp_path, DEMO_CONFIG)
    out = tmp_path / "out"
    assert run("mismatch-demo", cfg, out, seed=1) == 0
    for name in ("mismatch_cdf_linear.csv", "mismatch_cdf_log.csv",
                 "rician_params.csv"):
        assert (out / name).exists()


def test_mismatch_demo_exits_3_where_the_exact_oracle_fails(
        tmp_path, capsys, monkeypatch):
    # two paths put the pilot's tail breakpoints on the hard edge of the
    # power's support, where the quadrature cannot converge
    import statmap.harness as harness

    monkeypatch.setattr(harness, "DEMO_AMPLITUDES", (1.0, 0.5))
    cfg = write_config(tmp_path, DEMO_CONFIG)
    out = tmp_path / "out"
    assert run("mismatch-demo", cfg, out, seed=1) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: Kluyver CDF of amplitudes "
                          "[1.0, 0.5] has not converged at power ")
    assert len(err.splitlines()) == 1
    assert os.listdir(out) == []


# ---------------------------------------------------------------- exit codes

def test_main_parses_every_call_with_the_one_parser(tmp_path, capsys,
                                                   monkeypatch):
    # no call builds a parser of its own; usage errors still exit 2 with
    # argparse's message, and every call parses its own arguments
    import argparse

    monkeypatch.setattr(argparse, "ArgumentParser", None)
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command", "--config", "cfg.json"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: statmap ")
        assert "statmap: error: argument command: invalid choice: " \
            "'no-such-command'" in err
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "statmap: error: the following arguments are required: "
            "--config\n")
        assert run("simulate", str(tmp_path / "nope.json"), tmp_path) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")


def test_exit_2_missing_config(tmp_path):
    assert run("simulate", str(tmp_path / "nope.json"), tmp_path) == 2


def test_exit_2_bad_json(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{broken")
    assert run("simulate", str(cfg), tmp_path) == 2
    # a byte that is not UTF-8 was a UnicodeDecodeError traceback (exit 1)
    cfg.write_bytes(b'{"seed": 1,\n "mode": "\xff"}')
    capsys.readouterr()
    assert run("simulate", str(cfg), tmp_path) == 2
    assert capsys.readouterr().err == (
        f"configuration error: invalid UTF-8 (invalid start byte); "
        f"file={cfg}; line=2\n")


def test_exit_2_unknown_key(tmp_path, capsys):
    # the other keys were settings once, read by no run; they are now
    # unknown too
    for section, key in (("scenario", "not_a_field"),
                         ("experiment", "n_mc_outage"),
                         ("experiment", "oracle_n"),
                         ("scenario", "carrier_wavelength"),
                         ("scenario", "num_subcarriers"),
                         ("scenario", "bandwidth_hz"),
                         ("chart", "csi_wavelength")):
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc.setdefault(section, {})[key] = 1
        cfg = write_config(tmp_path, doc)
        assert run("simulate", cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert key in err and len(err.splitlines()) == 1
        assert "unknown key(s)" in err
    assert not (tmp_path / "out" / "dataset.jsonl").exists()


@pytest.mark.parametrize("command",
                         ["simulate", "fit-map", "train-chart", "evaluate"])
def test_exit_2_unknown_mode(tmp_path, capsys, command):
    doc = dict(CHART_CONFIG, mode="chrat")
    out = tmp_path / "out"
    assert run(command, write_config(tmp_path, doc), out) == 2
    err = capsys.readouterr().err
    assert err == "configuration error: unknown mode 'chrat' " \
        "(location or chart)\n"
    assert os.listdir(out) == []


def test_partial_pointprocess_section_merges_with_defaults():
    doc = dict(BASE_CONFIG, pointprocess={"offspring_std": 3.0})
    _, config = _experiment_config(doc, 9, full=False)
    assert config.pointprocess == PointProcessConfig(offspring_std=3.0)
    assert config.pointprocess.parent_intensity == \
        ExperimentConfig().pointprocess.parent_intensity


@pytest.mark.parametrize("name", ["quick", "location", "location_poisson",
                                  "chart"])
def test_full_overrides_the_shipped_configs(name):
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    exp = doc["experiment"]
    mode, config = _experiment_config(doc, doc["seed"], full=False)
    assert mode == doc["mode"]
    assert (config.epsilon, config.delta, config.samples_per_user,
            config.n_train_users) == (
        exp["epsilon"], exp["delta"], exp["samples_per_user"],
        exp["n_train_users"])
    _, full = _experiment_config(doc, doc["seed"], full=True)
    users = 5000 if mode == "chart" else exp["n_train_users"]
    assert (full.epsilon, full.delta, full.samples_per_user,
            full.n_train_users) == (1e-3, 1e-3, 10_000, users)
    assert full.n_test_users == config.n_test_users
    assert config.pointprocess == full.pointprocess == PointProcessConfig(
        **doc.get("pointprocess", {}))


@pytest.mark.parametrize("section,key,value", [
    (None, "seed", "abc"),
    ("experiment", "n_train_users", "many"),
    ("chart", "hidden", 5),
    ("scenario", "bs_location", [1, 2]),
    (None, "pointprocess", None),
    (None, "scenario", 5),
    (None, "chart", [1]),
])
def test_exit_2_config_value_of_wrong_type(tmp_path, capsys, section, key,
                                           value):
    doc = json.loads(json.dumps(CHART_CONFIG))
    (doc if section is None else doc[section])[key] = value
    cfg = write_config(tmp_path, doc)
    assert run("simulate", cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_exit_2_experiment_seed(tmp_path, capsys):
    # the root seed is the only seed; an experiment.seed would shadow --seed
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["experiment"]["seed"] = 5
    cfg = write_config(tmp_path, doc)
    for command in ("evaluate", "simulate"):
        assert run(command, cfg, tmp_path / "out", seed=9) == 2
        err = capsys.readouterr().err
        assert "seed" in err and len(err.splitlines()) == 1
    assert not (tmp_path / "out" / "report_rows.csv").exists()


@pytest.mark.parametrize("seed", [2**127, -2**127 - 1, 2**128],
                         ids=["2^127", "-2^127-1", "2^128"])
@pytest.mark.parametrize("command", ["simulate", "mismatch-demo"])
@pytest.mark.parametrize("form", ["flag", "config"])
def test_exit_2_seed_outside_128_bits(tmp_path, capsys, form, command, seed):
    # derive_seed packs the root seed into 16 signed bytes: a seed outside
    # them raised OverflowError there, a traceback (exit 1)
    doc = dict(DEMO_CONFIG if command == "mismatch-demo" else BASE_CONFIG)
    if form == "config":
        doc["seed"] = seed
    out = tmp_path / "out"
    assert run(command, write_config(tmp_path, doc), out,
               seed=seed if form == "flag" else None) == 2
    assert capsys.readouterr().err == (
        "configuration error: seed must be an integer in [-2^127, 2^127), "
        f"got {seed}\n")
    assert not out.exists()


@pytest.mark.parametrize("seed", [-2**127, 2**127 - 1])
def test_seeds_at_the_ends_of_128_bits_run(tmp_path, seed):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["experiment"]["n_train_users"] = 20
    out = tmp_path / "out"
    assert run("simulate", write_config(tmp_path, doc), out, seed=seed) == 0
    assert (out / "dataset.jsonl").exists()


@pytest.mark.parametrize("section,key,value", [
    (None, "seed", 2.5),
    ("experiment", "n_test_users", 2.5),
    ("experiment", "samples_per_user", True),
    ("experiment", "gp_restarts", 1.0),
    ("scenario", "num_paths", 3.5),
    ("chart", "n_triplets", 300.5),
    ("chart", "hidden", [16, 8.5]),
    ("chart", "batch_size", False),
])
def test_exit_2_non_integer_count(tmp_path, capsys, section, key, value):
    doc = json.loads(json.dumps(CHART_CONFIG))
    (doc if section is None else doc[section])[key] = value
    assert run("evaluate", write_config(tmp_path, doc), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and key in err
    assert len(err.splitlines()) == 1


def _fuzzed_fields():
    """(section, key, annotated type) for every field a config file sets."""
    sections = {"scenario": ScenarioConfig, "experiment": ExperimentConfig,
                "chart": ChartTrainingConfig,
                "pointprocess": PointProcessConfig}
    fields = [(None, "seed", int)]
    for section, cls in sections.items():
        for key, hint in typing.get_type_hints(cls).items():
            if not (section == "experiment" and key in (
                    "scenario", "pointprocess", "chart", "seed")):
                fields.append((section, key, hint))
    return fields


JUNK = (st.none() | st.text(max_size=8)
        | st.lists(st.integers(), max_size=2)
        | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
NOT_A_NUMBER = JUNK | st.booleans() | st.sampled_from(
    [math.nan, math.inf, -math.inf])


def malformed(hint):
    if hint is int:
        return NOT_A_NUMBER | st.floats()
    if hint is float:
        return NOT_A_NUMBER
    if hint is Location:
        return NOT_A_NUMBER | st.floats() | st.lists(
            st.floats(-10, 10), min_size=0, max_size=5).filter(
            lambda v: len(v) != 3) | st.tuples(
            st.floats(-10, 10), st.floats(-10, 10), NOT_A_NUMBER).map(list)
    return (NOT_A_NUMBER | st.floats()).filter(
        lambda v: not isinstance(v, list)) | st.lists(
        NOT_A_NUMBER | st.floats(), min_size=1, max_size=3)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzz_malformed_config_value_exits_2(tmp_path, data):
    section, key, hint = data.draw(st.sampled_from(_fuzzed_fields()))
    doc = json.loads(json.dumps(CHART_CONFIG))
    doc["pointprocess"] = {"parent_intensity": 5e-4,
                           "mean_cluster_size": 25.0, "offspring_std": 8.0}
    (doc if section is None else doc[section])[key] = data.draw(
        malformed(hint))
    cfg = write_config(tmp_path, doc)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert run("simulate", cfg, tmp_path / "out") == 2
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error:")


FINITE = {"allow_nan": False, "allow_infinity": False}
NOT_POSITIVE_INT = st.integers(max_value=0)
NOT_POSITIVE_FLOAT = st.floats(max_value=0.0, **FINITE)
# (section, key) -> values out of range for CHART_CONFIG (epsilon 0.05, so
# at least 21 samples per user; quantiles 0.05 / 0.5; 7 paths, so at most
# MOST_DRAWS samples per user or ceil(100 / epsilon) Monte-Carlo oracle
# draws within the draw buffer limit) or for DEMO_CONFIG (at least 100 and
# at most MOST_DRAWS samples in each fit, 7 paths). Past the chart limit: a
# hidden width whose weights alone hold more than MAX_CHART_BYTES, 16-byte
# CSI entries of that many antennas, 32 bytes of triplets each.
MOST_DRAWS = MAX_DRAW_BUFFER_BYTES // (7 * 16)
OUT_OF_RANGE = {
    ("chart", "hidden"): st.tuples(
        st.lists(st.integers(1, 64), max_size=2),
        NOT_POSITIVE_INT | st.integers(min_value=MAX_CHART_BYTES // 8 + 1),
        st.lists(st.integers(1, 64), max_size=2)).map(
        lambda t: t[0] + [t[1]] + t[2]),
    ("chart", "epochs"): NOT_POSITIVE_INT,
    ("chart", "batch_size"): NOT_POSITIVE_INT,
    ("chart", "n_triplets"): NOT_POSITIVE_INT
    | st.integers(min_value=MAX_CHART_BYTES // 32 + 1),
    ("chart", "s_red"): NOT_POSITIVE_INT | st.integers(min_value=25),
    ("chart", "step_size"): NOT_POSITIVE_FLOAT,
    ("chart", "margin"): NOT_POSITIVE_FLOAT,
    ("chart", "csi_antennas"): NOT_POSITIVE_INT
    | st.integers(min_value=MAX_CHART_BYTES // 16 + 1),
    ("chart", "csi_subcarriers"): NOT_POSITIVE_INT,
    ("chart", "csi_bandwidth_hz"): NOT_POSITIVE_FLOAT,
    ("chart", "close_quantile"): NOT_POSITIVE_FLOAT | st.floats(
        min_value=0.5, **FINITE),
    ("chart", "far_quantile"): st.floats(max_value=0.05, **FINITE)
    | st.floats(min_value=1.0, exclude_min=True, **FINITE),
    ("experiment", "gp_restarts"): NOT_POSITIVE_INT,
    ("experiment", "n_train_users"): st.integers(max_value=2),
    ("experiment", "n_test_users"): NOT_POSITIVE_INT,
    ("experiment", "samples_per_user"): st.integers(max_value=20)
    | st.integers(min_value=MOST_DRAWS + 1),
    ("experiment", "epsilon"): NOT_POSITIVE_FLOAT | st.floats(
        min_value=1.0, **FINITE) | st.floats(
        min_value=0.0, max_value=100 / (MOST_DRAWS + 0.5), exclude_min=True),
    ("experiment", "delta"): NOT_POSITIVE_FLOAT | st.floats(
        min_value=1.0, **FINITE),
    ("scenario", "num_paths"): NOT_POSITIVE_INT,
    ("scenario", "num_antennas"): NOT_POSITIVE_INT,
    ("scenario", "field_components"): NOT_POSITIVE_INT,
    ("scenario", "cell_side"): NOT_POSITIVE_FLOAT,
    ("scenario", "noise_power"): NOT_POSITIVE_FLOAT,
    ("scenario", "user_height"): st.floats(max_value=0.0, exclude_max=True,
                                           **FINITE),
    ("pointprocess", "parent_intensity"): NOT_POSITIVE_FLOAT,
    ("pointprocess", "offspring_std"): st.floats(
        max_value=0.0, exclude_max=True, **FINITE),
    ("demo", "fit_sizes"): st.just([]) | st.tuples(
        st.lists(st.integers(100, 400_000), max_size=2),
        st.integers(max_value=99) | st.integers(min_value=MOST_DRAWS + 1)).map(
        lambda t: t[0] + [t[1]]),
    ("demo", "confidence"): NOT_POSITIVE_FLOAT | st.floats(
        min_value=1.0, **FINITE),
}


def no_draws(monkeypatch):
    """Make every power draw of the pipelines and the demo fail the test."""
    import statmap.harness as harness

    def refuse(*args, **kwargs):
        raise AssertionError("a power sample was drawn")

    monkeypatch.setattr(harness, "draw_power_samples", refuse)
    monkeypatch.setattr(harness, "multipath_power_samples", refuse)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzz_out_of_range_config_value_exits_2(tmp_path, monkeypatch, data):
    # refused with one line before any power sample is drawn
    no_draws(monkeypatch)
    section, key = data.draw(st.sampled_from(sorted(OUT_OF_RANGE)))
    if section == "demo":
        command, doc = "mismatch-demo", json.loads(json.dumps(DEMO_CONFIG))
    else:
        command, doc = "simulate", json.loads(json.dumps(CHART_CONFIG))
        doc["pointprocess"] = {"parent_intensity": 5e-4,
                               "mean_cluster_size": 25.0,
                               "offspring_std": 8.0}
    doc[section][key] = data.draw(OUT_OF_RANGE[section, key])
    out = tmp_path / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert run(command, write_config(tmp_path, doc), out) == 2
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error:")
    assert os.listdir(out) == []


@pytest.mark.parametrize("section, key, value", [
    ("chart", "hidden", [0]),
    ("chart", "epochs", 0),
    ("chart", "margin", -1.0),
    # a draw buffer of 10^12 x 7 paths: refused without allocating it
    ("experiment", "samples_per_user", 10 ** 12),
    ("demo", "fit_sizes", [1000, 10 ** 12]),
    # 10^8 Monte-Carlo oracle draws, over the buffer limit at 7 paths
    ("experiment", "epsilon", 1e-6),
    # each was a traceback once
    ("demo", "confidence", 1.5),
    ("demo", "fit_sizes", [50]),
    ("demo", "fit_sizes", [0]),
    ("demo", "fit_sizes", [-5]),
    # no longer settings: refused as unknown keys, still before any work
    ("experiment", "n_mc_outage", -5),
    ("demo", "path_amplitudes", [0, 0]),
    ("experiment", "oracle_n", 10 ** 12),
    ("demo", "oracle_samples", 10 ** 8),
    # the CSI grid, refused in either mode
    ("chart", "csi_antennas", 0),
    ("chart", "csi_subcarriers", 0),
    ("chart", "csi_bandwidth_hz", 0),
    # chart arrays past MAX_CHART_BYTES, refused without allocating them:
    # 7.1 PiB of anchors, 187 TiB of weights, 745 GiB of antenna entries
    ("chart", "n_triplets", 10 ** 15),
    ("chart", "hidden", [10 ** 11]),
    ("chart", "csi_antennas", 10 ** 11),
])
def test_exit_2_out_of_range_before_any_work(tmp_path, capsys, monkeypatch,
                                             section, key, value):
    no_draws(monkeypatch)
    if section == "demo":
        command, doc = "mismatch-demo", json.loads(json.dumps(DEMO_CONFIG))
        modes = [None]
    else:
        command, doc = "evaluate", json.loads(json.dumps(CHART_CONFIG))
        modes = ["location", "chart"]
    doc[section][key] = value
    for mode in modes:
        if mode is not None:
            doc["mode"] = mode
        out = tmp_path / f"out-{mode}"
        assert run(command, write_config(tmp_path, doc), out) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and key in err
        assert len(err.splitlines()) == 1
        assert os.listdir(out) == []


def test_exit_2_invalid_epsilon(tmp_path):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["experiment"]["samples_per_user"] = 10
    doc["experiment"]["epsilon"] = 0.05
    cfg = write_config(tmp_path, doc)
    assert run("evaluate", cfg, tmp_path) == 2


def set_value(where, value):
    def edit(row):
        target = row
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
    return edit


def b64(values, dtype) -> str:
    raw = np.ascontiguousarray(values, dtype=dtype).tobytes()
    return base64.b64encode(raw).decode("ascii")


def powers(row) -> np.ndarray:
    return np.frombuffer(base64.b64decode(row["power_samples"]), "<f8")


def csi(row) -> np.ndarray:
    data = np.frombuffer(base64.b64decode(row["csi"]["data"]), "<c16")
    return data.reshape(row["csi"]["shape"])


def set_power(index, value):
    def edit(row):
        p = powers(row).copy()
        p[index] = value
        row["power_samples"] = b64(p, "<f8")
    return edit


def set_csi(index, value):
    def edit(row):
        h = csi(row).copy()
        h[index] = value
        row["csi"]["data"] = b64(h, "<c16")
    return edit


def cut_to_three_antennas(row):
    row["csi"] = {"shape": [3, 16], "data": b64(csi(row)[:3], "<c16")}


def zero_csi(row):
    row["csi"]["data"] = b64(np.zeros_like(csi(row)), "<c16")


def fold_power_samples(row):
    p = powers(row)
    half = p.size // 2
    row["power_samples"] = [b64(p[:half], "<f8"), b64(p[half:2 * half], "<f8")]


def cut_bytes(field, n):
    """Drops the last n bytes of the base64 array at field."""
    def edit(row):
        target = row
        for key in field[:-1]:
            target = target[key]
        raw = base64.b64decode(target[field[-1]])
        target[field[-1]] = base64.b64encode(raw[:-n]).decode("ascii")
    return edit


NO_SAMPLES = "power_samples holds no values"
NOT_A_NUMBER_XYZ = "x, y and z must be JSON numbers"


@pytest.mark.parametrize("command,doc,lineno,edit,message", [
    ("fit-map", BASE_CONFIG, 2, set_power(3, -1.0),
     "power samples must be finite and nonnegative"),
    ("fit-map", BASE_CONFIG, 2, set_power(3, math.nan),
     "power samples must be finite and nonnegative"),
    ("train-chart", CHART_CONFIG, 2, set_csi((0, 2), math.nan),
     "CSI entries must be finite"),
    # a format error, not a traceback from stacking the features (exit 1)
    ("train-chart", CHART_CONFIG, 5, cut_to_three_antennas,
     "CSI shape (3, 16) differs from the first CSI record's (4, 16)"),
    # a format error, not a numerical failure from featurizing (exit 3)
    ("train-chart", CHART_CONFIG, 2, zero_csi, "all-zero CSI snapshot"),
    # featurizing overflowed with two numpy warnings, and training then
    # failed on a non-finite loss (exit 3)
    ("train-chart", CHART_CONFIG, 2, set_csi((0, 2), 1e200),
     "CSI power overflows"),
    # one antenna's data is not broadcast into a 4-antenna snapshot
    ("train-chart", CHART_CONFIG, 2, cut_bytes(("csi", "data"), 3 * 16 * 16),
     "CSI data holds 16 values, its shape [4, 16] needs 64"),
    ("train-chart", CHART_CONFIG, 2, set_value(("csi", "shape"), [4, 15]),
     "CSI data holds 64 values, its shape [4, 15] needs 60"),
    ("train-chart", CHART_CONFIG, 2, set_value(("csi", "shape"), [64]),
     "CSI shape must be [antennas, subcarriers], two positive integers, "
     "got [64]"),
    ("train-chart", CHART_CONFIG, 2, cut_bytes(("csi", "data"), 8),
     "CSI data holds 1016 bytes, not a whole number of 16-byte values"),
    # each was a traceback (exit 1) from fitting or stacking
    ("fit-map", BASE_CONFIG, 3, set_value(("power_samples",), ""),
     NO_SAMPLES),
    ("train-chart", CHART_CONFIG, 3, set_value(("power_samples",), ""),
     NO_SAMPLES),
    ("train-chart", CHART_CONFIG, 4, fold_power_samples,
     "power_samples must be a base64 string, got list"),
    # silently flattened into one user's samples
    ("fit-map", BASE_CONFIG, 4, fold_power_samples,
     "power_samples must be a base64 string, got list"),
    # a numerical failure (exit 3) from too few samples for epsilon
    ("fit-map", BASE_CONFIG, 2, set_value(("power_samples",), 1.5),
     "power_samples must be a base64 string, got float"),
    ("fit-map", BASE_CONFIG, 3, cut_bytes(("power_samples",), 3),
     "power_samples holds 2397 bytes, not a whole number of 8-byte values"),
    ("fit-map", BASE_CONFIG, 2, set_value(("power_samples",), "AAAA!AAA"),
     "invalid base64 in power_samples (Only base64 data is allowed)"),
    ("fit-map", BASE_CONFIG, 2, set_value(("power_samples",), "AAAAAAA"),
     "invalid base64 in power_samples (Incorrect padding)"),
    ("train-chart", CHART_CONFIG, 3, set_value(("csi", "data"), "\u00e9"),
     "invalid base64 in CSI data (string argument should contain only ASCII "
     "characters)"),
    # refused by Location, but without the file and line
    ("fit-map", BASE_CONFIG, 2, set_value(("z",), -1.0),
     "location height must be >= 0, got -1.0"),
    # a NaN height passed the z >= 0 check; a NaN x failed in the GP
    # training set, without the file and line
    ("fit-map", BASE_CONFIG, 3, set_value(("z",), math.nan),
     "location coordinates must be finite"),
    ("fit-map", BASE_CONFIG, 3, set_value(("x",), math.nan),
     "location coordinates must be finite"),
    # a 0xff byte (written through surrogateescape) was a UnicodeDecodeError
    # traceback (exit 1)
    ("fit-map", BASE_CONFIG, 3, set_value(("note",), "\udcff"),
     "invalid UTF-8 (invalid start byte)"),
    ("train-chart", CHART_CONFIG, 1, set_value(("kind",), "\udcff"),
     "invalid UTF-8 (invalid start byte)"),
    # read as 1.0, 12.5 and 2: the config parser refuses such values
    ("fit-map", BASE_CONFIG, 2, set_value(("x",), True), NOT_A_NUMBER_XYZ),
    ("fit-map", BASE_CONFIG, 3, set_value(("y",), "12.5"), NOT_A_NUMBER_XYZ),
    ("train-chart", CHART_CONFIG, 2, set_value(("z",), None),
     NOT_A_NUMBER_XYZ),
    ("fit-map", BASE_CONFIG, 2, set_value(("user_id",), 2.7),
     "user_id must be a JSON integer: 2.7"),
    ("train-chart", CHART_CONFIG, 3, set_value(("user_id",), True),
     "user_id must be a JSON integer: True"),
    ("fit-map", BASE_CONFIG, 2, set_value(("user_id",), "2"),
     "user_id must be a JSON integer: '2'"),
    # a JSON integer past the float range was an OverflowError traceback
    ("fit-map", BASE_CONFIG, 2, set_value(("x",), 10**400),
     "int too large to convert to float"),
], ids=["negative-power", "nan-power", "nan-csi", "csi-cut-to-3-of-4-antennas",
        "all-zero-csi", "csi-power-overflow", "csi-data-of-1-antenna",
        "csi-shape-disagrees-with-data", "csi-shape-not-2d",
        "csi-bytes-not-whole-values", "empty-power-fit-map",
        "empty-power-train-chart", "2d-power-train-chart", "2d-power-fit-map",
        "scalar-power", "power-bytes-not-whole-values", "power-not-base64",
        "power-base64-unpadded", "csi-not-ascii", "negative-z", "nan-z",
        "nan-x", "non-utf8-record", "non-utf8-header", "boolean-x",
        "string-y", "null-z", "float-user-id", "boolean-user-id",
        "string-user-id", "integer-x-past-the-float-range"])
def test_exit_2_malformed_dataset_record(tmp_path, capsys, command, doc,
                                         lineno, edit, message):
    # json writes and reads NaN, so only the loader can refuse it
    doc = json.loads(json.dumps(doc))
    doc["experiment"]["n_train_users"] = 20
    out = tmp_path / "out"
    assert run("simulate", write_config(tmp_path, doc), out) == 0
    dataset = out / "dataset.jsonl"
    lines = dataset.read_text().splitlines()
    row = json.loads(lines[lineno - 1])
    edit(row)
    lines[lineno - 1] = json.dumps(row, ensure_ascii=False)
    dataset.write_bytes(
        ("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    capsys.readouterr()
    cfg = write_config(tmp_path, dict(doc, dataset=str(dataset)), "cfg2.json")
    assert run(command, cfg, out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: bad dataset record: "
                          f"{message}; file=")
    assert err.endswith(f"; line={lineno}\n") and len(err.splitlines()) == 1
    assert sorted(os.listdir(out)) == ["dataset.jsonl"]


@pytest.mark.parametrize("command,doc", [("fit-map", BASE_CONFIG),
                                         ("train-chart", CHART_CONFIG)])
def test_exit_2_version_1_dataset(tmp_path, capsys, command, doc):
    # the text encoding of the samples before the base64 one; simulate
    # remakes the file from the same config and seed
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text('{"kind":"statmap-dataset","version":1}\n'
                       '{"power_samples":[1.0,2.0],"user_id":0,"x":0.0,'
                       '"y":0.0,"z":1.5}\n')
    out = tmp_path / "out"
    cfg = write_config(tmp_path, dict(doc, dataset=str(dataset)))
    assert run(command, cfg, out) == 2
    assert capsys.readouterr().err == (
        f"configuration error: unsupported statmap-dataset version 1, "
        f"expected 2; file={dataset}; line=1; field=version\n")
    assert os.listdir(out) == []


@pytest.mark.parametrize("command,doc", [("fit-map", BASE_CONFIG),
                                         ("train-chart", CHART_CONFIG)])
def test_exit_2_dataset_without_records(tmp_path, capsys, command, doc):
    # a header alone reached the GP ("coordinates must be 2-D points") or
    # the triplet miner ("triplet mining needs at least 3 users")
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text('{"kind":"statmap-dataset","version":2}\n\n')
    out = tmp_path / "out"
    cfg = write_config(tmp_path, dict(doc, dataset=str(dataset)))
    assert run(command, cfg, out) == 2
    assert capsys.readouterr().err == (
        f"configuration error: empty dataset file: no user records; "
        f"file={dataset}\n")
    assert os.listdir(out) == []


@pytest.mark.parametrize("command,doc", [("fit-map", BASE_CONFIG),
                                         ("train-chart", CHART_CONFIG)])
def test_exit_2_power_samples_that_overflow_the_capacity(tmp_path, capsys,
                                                        command, doc):
    # a finite power of 1e308 passes the loader, but power / noise_power
    # overflows; the capacity was inf, and the quantile stage's ValueError
    # a traceback (exit 1)
    doc = json.loads(json.dumps(doc))
    doc["experiment"]["n_train_users"] = 20
    out = tmp_path / "out"
    assert run("simulate", write_config(tmp_path, doc), out) == 0
    dataset = out / "dataset.jsonl"
    lines = dataset.read_text().splitlines()
    row = json.loads(lines[3])
    set_power(5, 1e308)(row)
    lines[3] = json.dumps(row)
    dataset.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    cfg = write_config(tmp_path, dict(doc, dataset=str(dataset)), "cfg2.json")
    assert run(command, cfg, out) == 2
    assert capsys.readouterr().err == (
        f"configuration error: user {row['user_id']}: power samples overflow "
        f"the capacity at noise_power 1e-13\n")
    assert sorted(os.listdir(out)) == ["dataset.jsonl"]


def test_exit_2_corrupt_map(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    assert run("simulate", cfg, out) == 0
    doc = dict(BASE_CONFIG, dataset=str(out / "dataset.jsonl"))
    cfg2 = write_config(tmp_path, doc, "cfg2.json")
    assert run("fit-map", cfg2, out) == 0
    text = (out / "map.json").read_text()
    (out / "map.json").write_text(text[:len(text) // 2])
    doc3 = dict(doc, select_rate={"map": str(out / "map.json"),
                                  "delta": 0.05, "queries": [[0.0, 0.0]]})
    cfg3 = write_config(tmp_path, doc3, "cfg3.json")
    assert run("select-rate", cfg3, out) == 2
    # a byte that is not UTF-8 was a UnicodeDecodeError traceback (exit 1)
    (out / "map.json").write_bytes(text.encode().replace(b'"', b"\xff", 1))
    capsys.readouterr()
    assert run("select-rate", cfg3, out) == 2
    assert capsys.readouterr().err == (
        f"configuration error: invalid UTF-8 (invalid start byte); "
        f"file={out / 'map.json'}; line=1\n")
    assert not (out / "rates.csv").exists()


def test_exit_3_numerical_failure(tmp_path):
    # dataset with too few samples per user for the requested epsilon
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    assert run("simulate", cfg, out) == 0
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["dataset"] = str(out / "dataset.jsonl")
    doc["experiment"]["epsilon"] = 0.002  # 300 samples cannot support this
    doc["experiment"]["samples_per_user"] = 10_000  # config itself is valid
    cfg2 = write_config(tmp_path, doc, "cfg2.json")
    assert run("fit-map", cfg2, out) == 3


@pytest.mark.parametrize("restarts", [0, -3])
def test_exit_2_gp_restarts_below_one(tmp_path, capsys, restarts):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    assert run("simulate", cfg, out) == 0
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["dataset"] = str(out / "dataset.jsonl")
    doc["experiment"]["gp_restarts"] = restarts
    capsys.readouterr()
    assert run("fit-map", write_config(tmp_path, doc, "cfg2.json"), out) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "gp_restarts" in err
    assert len(err.splitlines()) == 1
    assert not (out / "map.json").exists()


def test_exit_3_no_kernel_factors(tmp_path, capsys, monkeypatch):
    import statmap.gpmap as gm

    cfg = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    assert run("simulate", cfg, out) == 0

    monkeypatch.setattr(gm, "_potrf", lambda a: 1)   # LAPACK's info > 0
    doc = dict(BASE_CONFIG, dataset=str(out / "dataset.jsonl"))
    capsys.readouterr()
    assert run("fit-map", write_config(tmp_path, doc, "cfg2.json"), out) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert not (out / "map.json").exists()


def test_exit_3_oracle_failure_in_a_worker(tmp_path, capsys, monkeypatch):
    import statmap.harness as harness

    def oracle(*args):
        raise FitError("oracle failed")

    monkeypatch.setattr(harness, "true_outage_capacities", oracle)
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert run("evaluate", cfg, tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert err == ("numerical failure: [stage evaluate-test-users] "
                   "oracle failed\n")


def test_exit_3_draw_failure_in_a_worker(tmp_path, capsys, monkeypatch):
    # users 5 and 40 fail in different blocks of training draws; the first
    # error is reported once, with its stage
    import statmap.harness as harness

    failing = {derive_seed(BASE_CONFIG["seed"], "train-power", user)
               for user in (5, 40)}

    def draws(scenario, loc, n, sample_seed, rays=None):
        if sample_seed in failing:
            raise NumericalError("draw failed")
        return draw_power_samples(scenario, loc, n, sample_seed, rays)

    monkeypatch.setattr(harness, "draw_power_samples", draws)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert run("evaluate", cfg, tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert err == ("numerical failure: [stage simulate-training-users] "
                   "draw failed\n")


def small_map(tmp_path):
    path = tmp_path / "map.json"
    train = TrainingSet.new([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]],
                            [1.0, 2.0, 1.5])
    save_map(build_map(train, Hyperparams(1.5, 0.5, 8.0, 0.05)), path)
    return path


def select_rate_config(tmp_path, map_path, delta=0.05,
                       queries=((0.0, 0.0),)):
    return write_config(tmp_path, {"select_rate": {
        "map": str(map_path), "delta": delta, "queries": queries}},
        "request.json")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_exit_2_non_finite_query(tmp_path, capsys, bad):
    cfg = select_rate_config(tmp_path, small_map(tmp_path),
                             queries=[[0.0, 0.0], [bad, 1.0]])
    out = tmp_path / "out"
    assert run("select-rate", cfg, out) == 2
    assert not (out / "rates.csv").exists()
    err = capsys.readouterr().err
    assert "finite" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("delta", [0, 1, 1.5, -0.1, "NaN"])
def test_exit_2_delta_outside_unit_interval(tmp_path, capsys, monkeypatch,
                                            delta):
    import statmap.cli as cli

    def no_load(path):
        raise AssertionError("a bad delta must be refused before load_map")

    monkeypatch.setattr(cli, "load_map", no_load)
    cfg = select_rate_config(tmp_path, tmp_path / "map.json", delta=delta)
    assert run("select-rate", cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "delta" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("doc", [{}, {"select_rate": {}},
                                 {"select_rate": None},
                                 {"select_rate": [["map.json"]]}])
def test_exit_2_select_rate_section_missing(tmp_path, capsys, doc):
    assert run("select-rate", write_config(tmp_path, doc),
               tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "'select_rate' section" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("key,value", [
    ("bogus", 1),
    ("delta", "0.01"),
    ("queries", [[True, False]]),    # was served as (1, 0)
    ("queries", [["1", "2"]]),
])
def test_exit_2_malformed_select_rate_value(tmp_path, capsys, monkeypatch,
                                            key, value):
    # each of these exited 0
    import statmap.cli as cli

    def no_load(path):
        raise AssertionError("a bad request must be refused before load_map")

    monkeypatch.setattr(cli, "load_map", no_load)
    section = {"map": str(tmp_path / "map.json"), "delta": 0.05,
               "queries": [[0.0, 0.0]], key: value}
    cfg = write_config(tmp_path, {"select_rate": section})
    out = tmp_path / "out"
    assert run("select-rate", cfg, out) == 2
    assert not (out / "rates.csv").exists()
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and key in err
    assert len(err.splitlines()) == 1


def test_select_rate_warm_request_matches_cold(tmp_path, capsys,
                                               monkeypatch):
    import statmap.dataio as dio

    map_path = small_map(tmp_path)
    cfg = select_rate_config(tmp_path, map_path,
                             queries=[[0.0, 0.0], [4.0, -3.0], [25.0, 9.0]])
    out = tmp_path / "out"
    dio._last_map.clear()
    assert run("select-rate", cfg, out) == 0
    cold = (out / "rates.csv").read_bytes()

    def no_build(*args):
        raise AssertionError("a warm request must not build the map again")

    with monkeypatch.context() as patch:
        patch.setattr(dio, "build_map", no_build)
        assert run("select-rate", cfg, out) == 0
    assert (out / "rates.csv").read_bytes() == cold
    # a tampered coordinate after the warm request is still caught
    doc = json.loads(map_path.read_text())
    doc["coords"][0][0] += 1.0
    map_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("select-rate", cfg, out) == 2
    err = capsys.readouterr().err
    assert "checksum mismatch" in err and len(err.splitlines()) == 1
    assert (out / "rates.csv").read_bytes() == cold


@pytest.mark.parametrize("map_value", [0, None, ["map.json"]])
def test_exit_2_map_not_a_path(tmp_path, capsys, monkeypatch, map_value):
    # an integer would reach open() as a file descriptor (0 is stdin)
    import statmap.cli as cli

    def no_load(path):
        raise AssertionError("a bad map must be refused before load_map")

    monkeypatch.setattr(cli, "load_map", no_load)
    cfg = write_config(tmp_path, {"select_rate": {
        "map": map_value, "delta": 0.05, "queries": [[0.0, 0.0]]}})
    out = tmp_path / "out"
    assert run("select-rate", cfg, out) == 2
    assert not (out / "rates.csv").exists()
    err = capsys.readouterr().err
    assert "select_rate.map" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("dataset", [0, 5.5, None, True, ["d.jsonl"]])
@pytest.mark.parametrize("command", ["fit-map", "train-chart"])
def test_exit_2_dataset_not_a_path(tmp_path, capsys, monkeypatch, command,
                                   dataset):
    # 0 read the dataset from stdin and closed it, 5.5 was a TypeError
    # traceback (exit 1)
    import statmap.cli as cli

    def no_load(path):
        raise AssertionError("a bad dataset must be refused before loading")

    monkeypatch.setattr(cli, "load_dataset", no_load)
    doc = CHART_CONFIG if command == "train-chart" else BASE_CONFIG
    cfg = write_config(tmp_path, dict(doc, dataset=dataset))
    out = tmp_path / "out"
    assert run(command, cfg, out) == 2
    assert capsys.readouterr().err == (
        f"configuration error: dataset must be a path string, "
        f"got {dataset!r}\n")
    assert os.listdir(out) == []


def test_exit_2_non_finite_map_hyperparameter(tmp_path, capsys):
    map_path = small_map(tmp_path)
    doc = json.loads(map_path.read_text())
    doc["hyper"]["prior_mean"] = float("nan")  # refused before the checksum
    map_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run("select-rate", select_rate_config(tmp_path, map_path), out) == 2
    assert not (out / "rates.csv").exists()
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.endswith(f"; file={map_path}\n")


def add_to_target(doc):
    doc["targets"][0] += 3.0


def add_to_prior_mean(doc):
    doc["hyper"]["prior_mean"] += 2.0


def store_a_number_as_checksum(doc):
    doc["kernel_checksum"] = 5


@pytest.mark.parametrize("edit", [add_to_target, add_to_prior_mean,
                                  store_a_number_as_checksum])
def test_exit_2_map_with_an_edited_stored_value(tmp_path, capsys, edit):
    # the kernel depends on neither the targets nor the prior mean, so a
    # checksum of its bytes let both edits through, and the map then
    # served other rates; a stored number was a TypeError traceback
    map_path = small_map(tmp_path)
    doc = json.loads(map_path.read_text())
    edit(doc)
    map_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run("select-rate", select_rate_config(tmp_path, map_path), out) == 2
    assert not (out / "rates.csv").exists()
    assert capsys.readouterr().err == (
        "configuration error: map checksum mismatch (stored "
        f"{str(doc['kernel_checksum'])[:12]}..); file={map_path}; "
        "field=kernel_checksum\n")


def test_map_loads_where_the_kernel_rounds_differently(tmp_path,
                                                       monkeypatch):
    # numpy's exp rounds differently under AVX-512 than under AVX2, so a
    # map written on one host met a kernel 1 ulp off on another, and a
    # checksum of the kernel's bytes refused it there (exit 2)
    import statmap.dataio as dio
    import statmap.gpmap as gm

    rng = np.random.default_rng(8)
    map_path = tmp_path / "map.json"
    train = TrainingSet.new(rng.uniform(-50, 50, size=(60, 2)),
                            rng.uniform(1, 3, size=60))
    save_map(build_map(train, Hyperparams(2.0, 0.5, 12.0, 0.05)), map_path)
    queries = rng.uniform(-60, 60, size=(20, 2)).tolist()
    cfg = select_rate_config(tmp_path, map_path, queries=queries)
    out = tmp_path / "out"
    dio._last_map.clear()
    assert run("select-rate", cfg, out) == 0
    want = (out / "rates.csv").read_text()
    real = gm._covariance

    def covariance_1_ulp_up(*args, **kwargs):
        k = real(*args, **kwargs)
        return np.nextafter(k, np.inf, out=k)

    monkeypatch.setattr(gm, "_covariance", covariance_1_ulp_up)
    dio._last_map.clear()
    assert run("select-rate", cfg, out) == 0
    got = (out / "rates.csv").read_text()
    assert got != want   # the perturbation reached the rates
    rates = [np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1,
                        usecols=(0, 1, 2)) for text in (got, want)]
    np.testing.assert_array_equal(rates[0][:, :2], rates[1][:, :2])
    np.testing.assert_allclose(rates[0][:, 2], rates[1][:, 2], rtol=1e-12)


def test_exit_2_map_value_past_the_float_range(tmp_path, capsys):
    # a JSON integer too large for a float was an OverflowError traceback
    map_path = small_map(tmp_path)
    doc = json.loads(map_path.read_text())
    doc["hyper"]["signal_var"] = 10**400
    map_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run("select-rate", select_rate_config(tmp_path, map_path), out) == 2
    assert capsys.readouterr().err == (
        "configuration error: bad map document: int too large to convert to "
        f"float; file={map_path}\n")


def test_exit_2_version_1_map(tmp_path, capsys):
    # version 1 held a checksum of the kernel's bytes; fit-map remakes the
    # file from the same dataset
    map_path = small_map(tmp_path)
    doc = json.loads(map_path.read_text())
    doc["version"] = 1
    map_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run("select-rate", select_rate_config(tmp_path, map_path), out) == 2
    assert not (out / "rates.csv").exists()
    assert capsys.readouterr().err == (
        "configuration error: unsupported statmap-gp-map version 1, "
        f"expected 2; file={map_path}; field=version\n")


def test_exit_2_map_length_scale_whose_square_overflows(tmp_path, capsys):
    map_path = small_map(tmp_path)
    doc = json.loads(map_path.read_text())
    doc["hyper"]["length_scale"] = 1e155
    map_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run("select-rate", select_rate_config(tmp_path, map_path), out) == 2
    assert not (out / "rates.csv").exists()
    assert capsys.readouterr().err == (
        "configuration error: bad map document: length_scale ** 2 must be "
        f"finite, got 1e+155; file={map_path}\n")


def test_exit_2_map_hyperparameters_whose_sum_overflows(tmp_path, capsys):
    # each value is finite, but the kernel's diagonal is not: this exited 3,
    # after numpy's two-line overflow warning
    map_path = small_map(tmp_path)
    doc = json.loads(map_path.read_text())
    doc["hyper"].update(signal_var=1e308, noise_var=1e308)
    map_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run("select-rate", select_rate_config(tmp_path, map_path), out) == 2
    assert not (out / "rates.csv").exists()
    assert capsys.readouterr().err == (
        "configuration error: bad map document: signal_var + noise_var must "
        f"be finite, got 1e+308 + 1e+308; file={map_path}\n")


FAR_APART = ("configuration error: training coordinates lie too far apart: "
             "their squared distances overflow\n")


def test_exit_2_training_coordinates_whose_distances_overflow(tmp_path,
                                                               capsys):
    # each coordinate is finite, but a squared distance is not: fit-map
    # printed two numpy warnings, L-BFGS-B stopped on a NaN gradient, and
    # the command exited 0 with a bad map
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["experiment"]["n_train_users"] = 20
    out = tmp_path / "out"
    assert run("simulate", write_config(tmp_path, doc), out) == 0
    dataset = out / "dataset.jsonl"
    lines = dataset.read_text().splitlines()
    row = json.loads(lines[3])
    row["x"] = 1e200
    lines[3] = json.dumps(row)
    dataset.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    cfg = write_config(tmp_path, dict(doc, dataset=str(dataset)), "cfg2.json")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("fit-map", cfg, out) == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == FAR_APART
    assert sorted(os.listdir(out)) == ["dataset.jsonl"]


def test_exit_2_map_coordinates_whose_distances_overflow(tmp_path, capsys):
    # a hand-edited map is refused as a fitted one would be
    map_path = small_map(tmp_path)
    doc = json.loads(map_path.read_text())
    doc["coords"][1] = [1e200, 0.0]
    map_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("select-rate", select_rate_config(tmp_path, map_path),
                   out) == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == (
        "configuration error: bad map document: training coordinates lie too "
        f"far apart: their squared distances overflow; file={map_path}\n")
    assert not (out / "rates.csv").exists()


def test_a_query_whose_distances_overflow_gets_the_prior_rate(tmp_path,
                                                              capsys):
    # such a query is infinitely far from the map's points: its rate is the
    # prior's delta-quantile, the exact limit, and numpy no longer prints
    # an overflow warning on the way
    cfg = select_rate_config(tmp_path, small_map(tmp_path),
                             queries=[[1e200, 0.0], [0.0, -1e300]])
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("select-rate", cfg, out) == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""
    prior = max(1.5 + math.sqrt(0.5) * gaussian_quantile(0.05), 0.0)
    rows = (out / "rates.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[2]) for row in rows] == [prior, prior]


# ---------------------------------------------------------------- reruns

@pytest.mark.parametrize("command,config", [
    ("simulate", BASE_CONFIG),
    ("evaluate", BASE_CONFIG),
    ("mismatch-demo", DEMO_CONFIG),
])
def test_rerun_byte_identical(tmp_path, command, config):
    cfg = write_config(tmp_path, config)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(command, cfg, out1, seed=4) == 0
    assert run(command, cfg, out2, seed=4) == 0
    assert read_all(out1) == read_all(out2)


def test_seed_changes_output(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run("simulate", cfg, out1, seed=1) == 0
    assert run("simulate", cfg, out2, seed=2) == 0
    assert read_all(out1) != read_all(out2)


# ---------------------------------------------------------------- start-up
# Every scipy subpackage but linalg is imported by the function that calls
# it, so a fresh process loads only what its command runs.

LAZY_SCIPY = {"scipy.optimize", "scipy.spatial", "scipy.special",
              "scipy.stats"}


def fresh_modules(code):
    """The names in sys.modules of a new interpreter after it runs code,
    with this statmap first on its path."""
    src = str(Path(statmap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(*sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def fresh_main(*argv):
    """Code that runs the CLI on argv and fails unless it exits 0."""
    return f"from statmap import cli\nassert cli.main({list(argv)!r}) == 0"


def test_building_every_shipped_config_loads_no_lazy_scipy():
    loaded = fresh_modules(f"""
import json, pathlib
import statmap, statmap.cli as cli
from statmap.harness import MismatchDemoConfig
paths = sorted(pathlib.Path({str(CONFIG_DIR)!r}).glob("*.json"))
assert paths
for path in paths:
    doc = json.loads(path.read_text())
    if "demo" in doc:
        MismatchDemoConfig(**dict(doc["demo"],
                                  fit_sizes=tuple(doc["demo"]["fit_sizes"])))
    else:
        for full in (False, True):
            cli._experiment_config(doc, doc["seed"], full)
""")
    assert "statmap.cli" in loaded and not loaded & LAZY_SCIPY


def test_a_fresh_select_rate_loads_no_optimizer_or_spatial_code(tmp_path):
    cfg = select_rate_config(tmp_path, small_map(tmp_path))
    out = tmp_path / "out"
    loaded = fresh_modules(fresh_main("select-rate", "--config", cfg,
                                      "--out", str(out)))
    assert (out / "rates.csv").exists()
    assert not loaded & {"scipy.optimize", "scipy.spatial"}


@pytest.mark.parametrize("doc", [BASE_CONFIG, CHART_CONFIG])
def test_a_fresh_simulate_loads_no_special_functions(tmp_path, doc):
    out = tmp_path / "out"
    loaded = fresh_modules(fresh_main(
        "simulate", "--config", write_config(tmp_path, doc), "--out",
        str(out)))
    assert (out / "dataset.jsonl").exists()
    assert "scipy.special" not in loaded


def test_a_fresh_evaluate_on_two_cpus_writes_the_in_process_bytes(
        tmp_path, monkeypatch):
    # the fresh process first imports scipy.special for the exact oracle,
    # which runs on the pool: two threads may import it at once
    cfg = str(CONFIG_DIR / "quick.json")
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    fresh_modules("import os, sys\n"
                  "os.sched_getaffinity = lambda pid: {0, 1}\n"
                  "import statmap\n"
                  "assert 'scipy.special' not in sys.modules\n"
                  + fresh_main("evaluate", "--config", cfg, "--out",
                               str(fresh)))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    assert run("evaluate", cfg, here) == 0
    assert read_all(fresh) == read_all(here) and read_all(here)
