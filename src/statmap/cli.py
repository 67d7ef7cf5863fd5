"""Command-line harness.

    statmap <command> --config cfg.json [--seed N] [--out DIR] [--full]

Commands: simulate, fit-map, train-chart, select-rate, evaluate,
mismatch-demo. Exit codes: 0 success, 2 configuration error, 3 numerical
failure. All output files are deterministic in (config, seed); timing goes
to stdout only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
import typing

import numpy as np

from .dataio import (
    load_dataset,
    load_map,
    read_text,
    save_chart,
    save_dataset,
    save_map,
    write_csv,
)
from .errors import ConfigurationError, NumericalError, ParseError
from .gpmap import predict
from .harness import (
    ChartTrainingConfig,
    ExperimentConfig,
    MismatchDemoConfig,
    fit_chart,
    fit_location_map,
    run_chart_experiment,
    run_location_experiment,
    run_mismatch_demo,
    simulate_dataset,
    write_report,
)
from .propagation import Location, PointProcessConfig, ScenarioConfig
from .rateselect import POLICY_MAP, select_rate_map

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# --full: the headline operating point, per mode, over the experiment section
FULL_SCALE = {
    "location": {"epsilon": 1e-3, "delta": 1e-3, "samples_per_user": 10_000},
    "chart": {"epsilon": 1e-3, "delta": 1e-3, "samples_per_user": 10_000,
              "n_train_users": 5000},
}


def _has_kind(value, hint) -> bool:
    """Whether a config value is of the kind its field is annotated with:
    an integer for int (booleans are not), a finite number for float, a
    tuple of such items for tuple[...], an instance for any other class."""
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if hint is float:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return isinstance(value, tuple) and all(_has_kind(v, item)
                                                for v in value)
    return isinstance(value, hint)


def _build(cls, data: dict, context: str):
    """Strict dataclass construction: unknown keys and values of the wrong
    kind are config errors."""
    hints = typing.get_type_hints(cls)
    _refuse_unknown_keys(data, hints, context)
    for key, value in data.items():
        if not _has_kind(value, hints[key]):
            kind = getattr(hints[key], "__name__", hints[key])
            raise ConfigurationError(
                f"bad value in '{context}' section: {key} must be {kind}, "
                f"got {value!r}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad value in '{context}' section: {exc}")


def _refuse_unknown_keys(data: dict, known, context: str) -> None:
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {sorted(unknown)} in '{context}' section")


def _is_point(value, dims: int) -> bool:
    """Whether a config value is a list of dims finite numbers."""
    return (isinstance(value, list) and len(value) == dims
            and all(_has_kind(v, float) for v in value))


def _as_tuple(value, name: str) -> tuple:
    if not isinstance(value, list):
        raise ConfigurationError(f"{name} must be a list, got {value!r}")
    return tuple(value)


def _section(doc: dict, name: str) -> dict:
    """A copy of the doc's section; an absent section is empty."""
    data = doc.get(name, {})
    if not isinstance(data, dict):
        raise ConfigurationError(f"'{name}' section must be an object, "
                                 f"got {data!r}")
    return dict(data)


def _load_config(path) -> dict:
    try:
        return json.loads(read_text(path))
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in config: {exc.msg}", path=path,
                         line=exc.lineno)


def _scenario_config(doc: dict) -> ScenarioConfig:
    data = _section(doc, "scenario")
    if "bs_location" in data:
        xyz = data["bs_location"]
        if not _is_point(xyz, 3):
            raise ConfigurationError(
                f"scenario.bs_location must be [x, y, z], got {xyz!r}")
        data["bs_location"] = Location(*xyz)
    return _build(ScenarioConfig, data, "scenario")


def _experiment_config(doc: dict, seed: int,
                       full: bool) -> tuple[str, ExperimentConfig]:
    """The doc's mode (location when absent) and its ExperimentConfig."""
    mode = doc.get("mode", "location")
    if mode not in ("location", "chart"):
        raise ConfigurationError(f"unknown mode {mode!r} (location or chart)")
    exp = _section(doc, "experiment")
    if "seed" in exp:
        raise ConfigurationError(
            "'experiment' section may not set 'seed': the root seed is the "
            "top-level 'seed' or --seed")
    if full:
        exp.update(FULL_SCALE[mode])
    chart_cfg = _section(doc, "chart")
    if "hidden" in chart_cfg:
        chart_cfg["hidden"] = _as_tuple(chart_cfg["hidden"], "chart.hidden")
    return mode, _build(ExperimentConfig, {
        "scenario": _scenario_config(doc),
        "pointprocess": _build(PointProcessConfig,
                               _section(doc, "pointprocess"), "pointprocess"),
        "chart": _build(ChartTrainingConfig, chart_cfg, "chart"),
        "seed": seed,
        **exp,
    }, "experiment")


def _dataset_path(doc: dict, out_dir: str) -> str:
    # an integer would reach open() as a file descriptor (0 is stdin)
    path = doc.get("dataset", os.path.join(out_dir, "dataset.jsonl"))
    if not isinstance(path, str):
        raise ConfigurationError(
            f"dataset must be a path string, got {path!r}")
    return path


@contextlib.contextmanager
def _step(name: str):
    """Prints the wall time of the block on stdout when it completes."""
    start = time.perf_counter()
    yield
    print(f"{name}: {time.perf_counter() - start:.3f} s")


def cmd_simulate(doc, seed, out_dir, full):
    mode, config = _experiment_config(doc, seed, full)
    with_csi = mode == "chart"
    with _step("draw"):
        dataset = simulate_dataset(config, with_csi=with_csi)
    path = os.path.join(out_dir, "dataset.jsonl")
    with _step("write"):
        save_dataset(dataset, path)
    print(f"wrote {path} ({len(dataset)} users, with_csi={with_csi})")
    return [path]


def cmd_fit_map(doc, seed, out_dir, full):
    _, config = _experiment_config(doc, seed, full)
    with _step("read"):
        dataset = load_dataset(_dataset_path(doc, out_dir))
    with _step("fit"):
        fmap = fit_location_map(dataset, config)
    path = os.path.join(out_dir, "map.json")
    with _step("write"):
        save_map(fmap, path)
    d = fmap.diagnostics
    print(f"wrote {path} (lml={d.log_marginal_likelihood:.3f}, "
          f"iterations={d.iterations})")
    return [path]


def cmd_train_chart(doc, seed, out_dir, full):
    _, config = _experiment_config(doc, seed, full)
    with _step("read"):
        dataset = load_dataset(_dataset_path(doc, out_dir))
    with _step("train"):
        charted = fit_chart(dataset, config)
    chart_path = os.path.join(out_dir, "chart.json")
    trace_path = os.path.join(out_dir, "chart_trace.csv")
    with _step("write"):
        save_chart(charted.model, chart_path)
        write_csv(trace_path, ["epoch", "mean_loss"],
                  list(enumerate(charted.epoch_losses)))
    print(f"wrote {chart_path} and {trace_path} "
          f"({charted.n_triplets} triplets, {charted.skipped} skipped)")
    return [chart_path, trace_path]


def cmd_select_rate(doc, seed, out_dir, full):
    section = _section(doc, "select_rate")
    if not section:
        raise ConfigurationError("config needs a 'select_rate' section")
    keys = ("map", "delta", "queries")
    _refuse_unknown_keys(section, keys, "select_rate")
    map_path, delta, queries = (section.get(key) for key in keys)
    if not isinstance(map_path, str):
        raise ConfigurationError(
            f"select_rate.map must be a path string, got {map_path!r}")
    if not (_has_kind(delta, float) and 0.0 < delta < 1.0):
        raise ConfigurationError(
            f"select_rate.delta must be a number in (0, 1), got {delta!r}")
    if not (isinstance(queries, list) and queries):
        raise ConfigurationError(
            f"select_rate.queries must be a non-empty list, got {queries!r}")
    for query in queries:
        if not _is_point(query, 2):
            raise ConfigurationError(
                "select_rate.queries must hold [x, y] pairs of finite "
                f"numbers, got {query!r}")
    queries = np.asarray(queries, dtype=float)
    rates = select_rate_map(predict(load_map(map_path), queries), delta)
    path = os.path.join(out_dir, "rates.csv")
    write_csv(path, ["x", "y", "rate", "policy"],
              zip(queries[:, 0].tolist(), queries[:, 1].tolist(),
                  rates.tolist(), [POLICY_MAP] * len(queries)))
    print(f"wrote {path} ({len(queries)} queries, delta={delta:g})")
    return [path]


def cmd_evaluate(doc, seed, out_dir, full):
    mode, config = _experiment_config(doc, seed, full)
    report = run_chart_experiment(config) if mode == "chart" \
        else run_location_experiment(config)
    paths = write_report(report, out_dir)
    for policy in report.policies():
        frac, n, over_delta, rate_ratio = report.aggregates(policy)
        print(f"{policy}: violation fraction {frac:.4f} over {n} users "
              f"({over_delta:.2f} x delta), mean rate {rate_ratio:.3f} of "
              f"mean true C_eps")
    return paths


def cmd_mismatch_demo(doc, seed, out_dir, full):
    data = _section(doc, "demo")
    if "fit_sizes" in data:
        data["fit_sizes"] = _as_tuple(data["fit_sizes"], "demo.fit_sizes")
    data["seed"] = seed
    demo = _build(MismatchDemoConfig, data, "demo")
    summary = run_mismatch_demo(demo, out_dir)
    print(f"DKW band: {summary['dkw_band']:.6g}; empirical max dev "
          f"{summary['empirical_max_dev']:.6g}; Rician tail max dev "
          f"{summary['rician_tail_max_dev']:.6g}")
    return summary["paths"]


COMMANDS = {
    "simulate": cmd_simulate,
    "fit-map": cmd_fit_map,
    "train-chart": cmd_train_chart,
    "select-rate": cmd_select_rate,
    "evaluate": cmd_evaluate,
    "mismatch-demo": cmd_mismatch_demo,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="statmap",
        description="Statistical radio maps for URLLC rate selection")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="root seed (overrides the config's seed)")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--full", action="store_true",
                        help="headline operating point (epsilon=delta=1e-3; "
                        "5000 training users in chart mode)")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    try:
        doc = _load_config(args.config)
        if not isinstance(doc, dict):
            raise ConfigurationError("config root must be a JSON object")
        seed = doc.get("seed", 0) if args.seed is None else args.seed
        if not _has_kind(seed, int):
            raise ConfigurationError(f"seed must be an integer, got {seed!r}")
        os.makedirs(args.out, exist_ok=True)
        COMMANDS[args.command](doc, seed, args.out, args.full)
    except (ConfigurationError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"done in {time.perf_counter() - start:.2f} s")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
