#!/usr/bin/env python3
"""statmap benchmark: one workload per invocation, run through the public API.

    python3 perfbench/run.py --workload {location,chart,serve} --seed N \
        --seconds S --trace {0,1} [--toy]

Run from the root of a statmap checkout; statmap is imported from its
``src`` directory. Inputs derive from ``--seed`` only. Operations run for
about ``--seconds`` (at least one; ``serve`` at least MIN_REQUESTS), every
output is checked, and the last stdout line is the result JSON:
end-to-end metrics with ``--trace 0``, per-layer metrics from the span
recorder with ``--trace 1``. The line before it is a JSON record with the
host, the operation latencies, the report digests and the failure count.
``--toy`` swaps in configs sized like ``configs/quick.json`` for the smoke
check. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# numpy, scipy and statmap are imported inside functions: main() must pin the
# BLAS threads in the environment before the first of them loads.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_REQUESTS = 100          # >= 10 samples beyond the p90
QUERIES_PER_REQUEST = 128
REPEAT_EVERY = 10           # every 10th request repeats an earlier query set
SERVE_TOL = 1e-8
SUBPROCESS_TIMEOUT_S = 90

# Fresh-interpreter set-up: import statmap, build the workload config and
# print the CLOCK_MONOTONIC reading (system-wide on Linux) when done.
SETUP_SNIPPET = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; import run, statmap.cli;"
    " run.experiment_config(run.workload_doc(sys.argv[3], sys.argv[4] == '1'), 1);"
    " print(time.monotonic())"
)
# Serve set-up child: simulate, fit-map and the dense reference, so that the
# measured process does only requests and its peak memory is theirs.
SERVE_SETUP_SNIPPET = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import run;"
    " run.serve_setup(run.Path(sys.argv[3]), int(sys.argv[4]), sys.argv[5] == '1')"
)


def workload_doc(workload: str, toy: bool) -> dict:
    """The workload's config document, from the repo's configs."""
    name = "quick.json" if toy else ("chart.json" if workload == "chart"
                                     else "location.json")
    doc = json.loads((ROOT / "configs" / name).read_text(encoding="utf-8"))
    exp = doc["experiment"]
    if workload == "chart":
        doc["mode"] = "chart"
        exp.update(n_train_users=400, n_test_users=100)
        doc.setdefault("chart", {})["n_triplets"] = 2000
    elif workload == "serve":
        exp.update(n_train_users=1000, gp_restarts=1)
    if toy:
        exp.update(n_train_users=120, n_test_users=100)
        doc.setdefault("chart", {}).update(n_triplets=400, epochs=2)
    return doc


def op_seed(seed: int, op: int) -> int:
    """Experiment seed of operation op of a run: fresh inputs per operation,
    except that operation 1 repeats operation 0."""
    import numpy as np

    key = 0 if op == 1 else op
    return int(np.random.SeedSequence([seed, key]).generate_state(1)[0])


def experiment_config(doc: dict, seed: int):
    from statmap.harness import ChartTrainingConfig, ExperimentConfig
    from statmap.propagation import ScenarioConfig

    return ExperimentConfig(scenario=ScenarioConfig(**doc.get("scenario", {})),
                            chart=ChartTrainingConfig(**doc.get("chart", {})),
                            seed=seed, **doc["experiment"])


# ------------------------------------------------------------------ host

def host_record(seed: int, repeats: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "seed": seed,
        "repeats": repeats,
    }


def median_setup_s(workload: str, toy: bool) -> tuple[float, list]:
    """Median wall time of SETUP_REPEATS fresh-interpreter set-ups.

    Each is timed from just before the spawn to the child's own clock reading
    at its end, so the parent's wait-polling interval is not counted.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET,
                               str(BENCH_DIR), str(SRC), workload,
                               "1" if toy else "0"],
                              check=True, timeout=SUBPROCESS_TIMEOUT_S,
                              capture_output=True, text=True)
        times.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(times), times


# ------------------------------------------------------------------ checks

def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def read_csv(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def check_report(out: Path, n_test: int, delta: float) -> tuple[list, dict]:
    """Outside-in checks of one written report; returns (errors, ratios)."""
    errors = []
    rows = read_csv(out / "report_rows.csv")
    per_policy: dict[str, int] = {}
    for row in rows:
        per_policy[row["policy"]] = per_policy.get(row["policy"], 0) + 1
        rate, outage = float(row["rate"]), float(row["outage_prob"])
        if not (math.isfinite(rate) and rate >= 0.0):
            errors.append(f"user {row['user_id']}: bad rate {row['rate']}")
        if not 0.0 <= outage <= 1.0:
            errors.append(f"user {row['user_id']}: bad outage_prob {outage}")
    if sorted(per_policy) != ["map_quantile", "nearest_neighbor"]:
        errors.append(f"unexpected policies {sorted(per_policy)}")
    errors += [f"{p}: {n} rows, expected {n_test}"
               for p, n in per_policy.items() if n != n_test]
    ratios = {row["policy"]: float(row["violation_fraction"]) / delta
              for row in read_csv(out / "report_aggregates.csv")}
    return errors, ratios


class DenseReference:
    """Dense-numpy GP posterior rebuilt from a map file, for serve checks."""

    def __init__(self, arrays: dict):
        self.__dict__.update(arrays)

    @classmethod
    def build(cls, map_path: Path, delta: float) -> "DenseReference":
        import numpy as np

        doc = json.loads(map_path.read_text(encoding="utf-8"))
        h = doc["hyper"]
        ref = cls({"coords": np.asarray(doc["coords"], dtype=float),
                   "prior_mean": h["prior_mean"],
                   "signal_var": h["signal_var"],
                   "length_scale": h["length_scale"],
                   "z": statistics.NormalDist().inv_cdf(delta)})
        residual = np.asarray(doc["targets"], dtype=float) - ref.prior_mean
        n = len(residual)
        cov = ref._k(ref.coords) + h["noise_var"] * np.eye(n)
        solved = np.linalg.solve(cov, np.column_stack([residual, np.eye(n)]))
        ref.weights = solved[:, 0]
        ref.cov_inv = solved[:, 1:]
        return ref

    def save(self, path: Path) -> None:
        import numpy as np

        np.savez(path, **vars(self))

    @classmethod
    def load(cls, path: Path) -> "DenseReference":
        import numpy as np

        with np.load(path) as f:
            return cls({k: f[k] for k in f.files})

    def _k(self, queries):
        import numpy as np

        d2 = ((queries[:, None, :] - self.coords[None, :, :]) ** 2).sum(-1)
        return self.signal_var * np.exp(-d2 / (2.0 * self.length_scale ** 2))

    def rates(self, queries):
        import numpy as np

        kx = self._k(queries)
        mean = self.prior_mean + kx @ self.weights
        var = self.signal_var - np.sum((kx @ self.cov_inv) * kx, axis=1)
        return np.maximum(mean + np.sqrt(np.maximum(var, 0.0)) * self.z, 0.0)


# ------------------------------------------------------------------ workloads

class Run:
    """State of one benchmark invocation."""

    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.latencies_s: list[float] = []
        self.queries = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: list[str] = []    # per operation, in order
        self.ratios: dict[str, float] = {}
        self.recorder = None

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        print(f"perfbench: operation failed: {message}", file=sys.stderr)

    def more(self, loop_start: float, minimum: int = 1) -> bool:
        """Closed loop: start another operation while it should end in time."""
        if len(self.latencies_s) + self.failed < minimum:
            return True
        elapsed = time.perf_counter() - loop_start
        typical = statistics.median(self.latencies_s) if self.latencies_s else 0
        return elapsed + typical < self.args.seconds

    def timed(self, op: int, fn):
        if self.recorder is not None:
            self.recorder.op = op
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - start
            if self.recorder is not None:
                self.recorder.op = -1
        return result, elapsed


def run_experiment(run: Run) -> float:
    """location / chart: one experiment call plus write_report per operation.

    Each operation runs on its own seed from op_seed, so a run's median
    averages over several inputs; operation 1 repeats the inputs of
    operation 0, and its report files must be byte-identical to those.
    Returns the in-process set-up time, which is nil here.
    """
    from statmap import harness

    doc = workload_doc(run.args.workload, run.args.toy)
    experiment = (harness.run_chart_experiment if run.args.workload == "chart"
                  else harness.run_location_experiment)
    loop_start = time.perf_counter()
    op = 0
    while run.more(loop_start, 2 if run.args.toy else 1):
        config = experiment_config(doc, op_seed(run.args.seed, op))
        out = run.work / f"report-{op}"

        def call():
            return harness.write_report(experiment(config), out)
        try:
            _, elapsed = run.timed(op, call)
            errors, ratios = check_report(out, config.n_test_users,
                                          config.delta)
        except Exception:
            run.fail(traceback.format_exc())
            run.digests.append("")
        else:
            digest = digest_dir(out)
            if op == 1 and digest != run.digests[0]:
                errors.append(f"report digest {digest[:12]} of operation 1 "
                              "differs from that of operation 0, which ran "
                              "the same inputs")
            run.digests.append(digest)
            if op == 0:     # the same inputs whatever the run's length
                run.ratios = ratios
            if errors:
                run.fail("; ".join(errors[:5]))
            else:
                run.latencies_s.append(elapsed)
                run.queries += config.n_test_users
        shutil.rmtree(out, ignore_errors=True)
        op += 1
    return 0.0


def serve_setup(work: Path, seed: int, toy: bool) -> None:
    """Serve set-up, run in a child process: writes map.json and reference.npz
    to work and prints the simulate + fit-map wall time."""
    from statmap import cli

    doc = workload_doc("serve", toy)
    cfg_path = work / "serve.json"
    cfg_path.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    for command in ("simulate", "fit-map"):
        code = quiet(cli.main, [command, "--config", str(cfg_path), "--seed",
                                str(seed), "--out", str(work)])
        if code != 0:
            raise RuntimeError(f"set-up command {command} exited {code}")
    elapsed = time.perf_counter() - start
    DenseReference.build(work / "map.json", doc["experiment"]["delta"]).save(
        work / "reference.npz")
    print(elapsed)


def run_serve(run: Run) -> float:
    """serve: closed-loop select-rate requests against one fitted map.

    Each request asks a fresh uniform query set drawn from (seed, request),
    except that every REPEAT_EVERY-th one repeats the set of the request
    REPEAT_EVERY - 1 before it, whose rates.csv it must reproduce byte for
    byte. Returns the set-up child's simulate + fit-map time.
    """
    import numpy as np
    from statmap import cli

    toy = run.args.toy
    config = experiment_config(workload_doc("serve", toy), run.args.seed)
    done = subprocess.run([sys.executable, "-c", SERVE_SETUP_SNIPPET,
                           str(BENCH_DIR), str(SRC), str(run.work),
                           str(run.args.seed), "1" if toy else "0"],
                          timeout=SUBPROCESS_TIMEOUT_S, capture_output=True,
                          text=True)
    if done.returncode != 0:
        raise RuntimeError(f"serve set-up exited {done.returncode}:\n"
                           f"{done.stderr}")
    setup_s = float(done.stdout.split()[-1])

    map_path = run.work / "map.json"
    reference = DenseReference.load(run.work / "reference.npz")
    per_request = 16 if toy else QUERIES_PER_REQUEST
    xmin, xmax, ymin, ymax = config.scenario.cell_bounds()

    def query_set(k):
        rng = np.random.default_rng([run.args.seed, k])
        return np.column_stack([rng.uniform(xmin, xmax, per_request),
                                rng.uniform(ymin, ymax, per_request)])

    request = run.work / "request.json"
    out = run.work / "rates"
    op_digests: list[str] = []
    minimum = 2 * REPEAT_EVERY if toy else MIN_REQUESTS
    loop_start = time.perf_counter()
    op = 0
    while run.more(loop_start, minimum):
        repeat = op % REPEAT_EVERY == REPEAT_EVERY - 1
        queries = query_set(op - (REPEAT_EVERY - 1) if repeat else op)
        request.write_text(json.dumps({"select_rate": {
            "map": str(map_path), "delta": config.delta,
            "queries": queries.tolist()}}), encoding="utf-8")
        argv = ["select-rate", "--config", str(request), "--out", str(out)]
        try:
            code, elapsed = run.timed(op, lambda: quiet(cli.main, argv))
            errors = [f"select-rate exited {code}"] if code != 0 else \
                check_rates(out / "rates.csv", queries,
                            reference.rates(queries))
            digest = hashlib.sha256((out / "rates.csv").read_bytes()).hexdigest()
        except Exception:
            run.fail(traceback.format_exc())
            digest = ""
        else:
            if repeat and op_digests[op - (REPEAT_EVERY - 1)] != digest:
                errors.append(f"rates.csv of request {op} differs from that "
                              f"of request {op - (REPEAT_EVERY - 1)}, which "
                              "asked the same queries")
            if errors:
                run.fail("; ".join(errors[:5]))
            else:
                run.latencies_s.append(elapsed)
                run.queries += per_request
        op_digests.append(digest)
        op += 1
    # The first `minimum` requests are the same in every run of this seed.
    h = hashlib.sha256(map_path.read_bytes())
    for digest in op_digests[:minimum]:
        h.update(digest.encode())
    run.digests.append(h.hexdigest())
    return setup_s


def check_rates(path: Path, queries, expected) -> list[str]:
    rows = read_csv(path)
    if len(rows) != len(queries):
        return [f"{len(rows)} rates for {len(queries)} queries"]
    errors = []
    for row, q, want in zip(rows, queries, expected):
        if (float(row["x"]), float(row["y"])) != (q[0], q[1]):
            errors.append(f"query ({row['x']}, {row['y']}) out of order")
        elif row["policy"] != "map_quantile":
            errors.append(f"unexpected policy {row['policy']}")
        elif not abs(float(row["rate"]) - want) <= SERVE_TOL:
            errors.append(f"rate {row['rate']} at ({row['x']}, {row['y']}) "
                          f"differs from the dense reference {want!r}")
    return errors


def quiet(fn, *args):
    """Call fn with its stdout captured: the benchmark owns stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


# ------------------------------------------------------------------ main

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("location", "chart", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="configs sized like configs/quick.json")
    args = parser.parse_args(argv)

    if not (SRC / "statmap" / "__init__.py").is_file() \
            or not (ROOT / "configs").is_dir():
        print(f"perfbench: no statmap sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:   # this process and its children only
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import statmap
    if Path(statmap.__file__).resolve().parent != SRC / "statmap":
        print(f"perfbench: imported statmap from {statmap.__file__}",
              file=sys.stderr)
        return 2
    from spans import SpanRecorder, layer_metrics

    setup_s, setup_samples = median_setup_s(args.workload, args.toy)
    (BENCH_DIR / "work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                 dir=BENCH_DIR / "work"))
    run = Run(args, work)
    if args.trace:
        run.recorder = SpanRecorder()
        run.recorder.install()
    try:
        runner = run_serve if args.workload == "serve" else run_experiment
        setup_s += runner(run)
    finally:
        if run.recorder is not None:
            run.recorder.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(run.latencies_s) + run.failed
    op_p50_ms = statistics.median(run.latencies_s) * 1e3 \
        if run.latencies_s else 0.0
    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit)
                   in layer_metrics(run.recorder.spans, attempted).items()}
        for policy in ("map_quantile", "nearest_neighbor"):
            metrics[f"rateselect.{policy}.violation_ratio"] = {
                "value": run.ratios.get(policy, 0.0), "unit": "ratio"}
        metrics["bench.traced_op_p50_ms"] = {"value": op_p50_ms, "unit": "ms"}
    else:
        busy_s = sum(run.latencies_s)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_p50_ms": {"value": op_p50_ms, "unit": "ms"},
            "op_p90_ms": {"value": percentile(run.latencies_s, 0.9) * 1e3
                          if run.latencies_s else 0.0, "unit": "ms"},
            "queries_per_s": {"value": run.queries / busy_s if busy_s else 0.0,
                              "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    record = {
        "workload": args.workload, "trace": args.trace, "toy": args.toy,
        "host": host_record(args.seed, attempted),
        "setup_samples_s": setup_samples,
        "op_latencies_s": run.latencies_s,
        "ops_failed_frac": run.failed / attempted if attempted else 1.0,
        "report_digests": run.digests,
        "violation_ratio": run.ratios,
        "errors": [e.splitlines()[-1] for e in run.errors],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": run.failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
