"""Output writer tests: every writer rewrites its file in place, through
links, without O_TRUNC and without leaving a stale tail."""

import os

import numpy as np
import pytest

from statmap.chart import init_chart_model
from statmap.dataio import (
    Dataset,
    UserRecord,
    save_chart,
    save_dataset,
    save_map,
    write_csv,
)
from statmap.gpmap import Hyperparams, TrainingSet, build_map
from statmap.harness import ExperimentReport, write_report
from statmap.propagation import Location

SHORT, LONG = 2, 12     # the size parameter of a short and a long file


def dataset(n):
    return Dataset(records=[
        UserRecord(user_id=i, location=Location(float(i), 0.0, 1.5),
                   power_samples=np.arange(1.0, 4.0) * (i + 1))
        for i in range(n)])


def fitted_map(n):
    coords = [[10.0 * i, 5.0 * (i % 3)] for i in range(n)]
    train = TrainingSet.new(coords, [1.0 + 0.1 * i for i in range(n)])
    return build_map(train, Hyperparams(1.5, 0.5, 8.0, 0.05))


def report(n):
    return ExperimentReport(mode="location", x=np.arange(n, dtype=float),
                            y=np.zeros(n), true_ceps=np.ones(n),
                            rate={"map_quantile": np.full(n, 0.5)},
                            outage_prob={"map_quantile": np.full(n, 0.01)},
                            epsilon=0.05,
                            delta=0.05, seed=1,
                            config_echo={"users": list(range(n))})


# name -> (file name, write(path, size)); write_report names its own files
# and is judged by report_meta.json
WRITERS = {
    "save_dataset": ("dataset.jsonl",
                     lambda path, n: save_dataset(dataset(n), path)),
    "save_map": ("map.json", lambda path, n: save_map(fitted_map(n), path)),
    "save_chart": ("chart.json", lambda path, n: save_chart(
        init_chart_model(n, hidden=(n,), seed=0), path)),
    "write_csv": ("rates.csv", lambda path, n: write_csv(
        path, ["i", "v"], [(i, i / 3) for i in range(n)])),
    "write_report": ("report_meta.json",
                     lambda path, n: write_report(report(n), path.parent)),
}


def fresh_bytes(tmp_path, writer, n):
    name, write = WRITERS[writer]
    path = tmp_path / f"fresh-{writer}-{n}" / name
    path.parent.mkdir()
    write(path, n)
    return path.read_bytes()


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_shorter_rewrite_leaves_no_stale_tail(tmp_path, writer):
    name, write = WRITERS[writer]
    path = tmp_path / "out" / name
    path.parent.mkdir()
    write(path, LONG)
    long_size = path.stat().st_size
    write(path, SHORT)
    short = fresh_bytes(tmp_path, writer, SHORT)
    assert len(short) < long_size
    assert path.read_bytes() == short


@pytest.mark.parametrize("link", ["symlink", "hardlink"])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_writes_through_links_to_the_shared_file(tmp_path, writer, link):
    name, write = WRITERS[writer]
    target = tmp_path / "target"
    write_csv(target, ["old"], [("x" * 100,)] * 200)
    path = tmp_path / "out" / name
    path.parent.mkdir()
    if link == "symlink":
        path.symlink_to(target)
    else:
        os.link(target, path)
    write(path, SHORT)
    assert target.read_bytes() == fresh_bytes(tmp_path, writer, SHORT)
    if link == "symlink":
        assert path.is_symlink()
    else:
        assert path.stat().st_ino == target.stat().st_ino
        assert target.stat().st_nlink == 2


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_writes_through_a_link_to_a_device(tmp_path, writer):
    # a device has no tail to cut: writing to it works as with open(path, "w")
    name, write = WRITERS[writer]
    path = tmp_path / "out" / name
    path.parent.mkdir()
    path.symlink_to(os.devnull)
    write(path, SHORT)
    assert path.is_symlink()


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_no_writer_truncates_on_open(tmp_path, monkeypatch, writer):
    name, write = WRITERS[writer]
    path = tmp_path / "out" / name
    path.parent.mkdir()
    write(path, LONG)
    opened = []
    real_open = os.open

    def spy(file, flags, *args, **kwargs):
        opened.append((os.path.basename(file), flags))
        return real_open(file, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    write(path, SHORT)
    # every file the writer leaves was opened through os.open
    assert sorted(n for n, _ in opened) == sorted(os.listdir(path.parent))
    for _, flags in opened:
        assert flags & os.O_TRUNC == 0
        assert flags & os.O_CREAT and flags & os.O_WRONLY


def test_write_csv_row_error_leaves_the_new_prefix_alone(tmp_path):
    path = tmp_path / "rates.csv"
    write_csv(path, ["i", "v"], [(i, "old" * 20) for i in range(50)])

    def rows():
        yield 1, 0.5
        yield 2, 1.5
        raise RuntimeError("row failed")

    with pytest.raises(RuntimeError, match="row failed"):
        write_csv(path, ["i", "v"], rows())
    assert path.read_text() == "i,v\n1,0.5\n2,1.5\n"


def old_fmt(v) -> str:
    """The CSV cell formatter before its float fast path."""
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def test_csv_cells_keep_the_bytes_of_the_checked_formatter(tmp_path):
    cells = [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
             0.1, 1e308, 3, -7, 2 ** 70, True, False, np.True_,
             np.float64(0.1), np.float64(-0.0), np.float32(0.1), np.int64(-4),
             np.uint8(200), "map", ""]
    path = tmp_path / "cells.csv"
    write_csv(path, ["v"], [(v,) for v in cells])
    assert path.read_bytes() == "".join(
        ["v\n"] + [old_fmt(v) + "\n" for v in cells]).encode()
