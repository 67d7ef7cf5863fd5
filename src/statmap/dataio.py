"""File formats: JSON-Lines datasets, versioned JSON documents for fitted
maps and chart models, and CSV report tables.

All writers are deterministic (sorted keys, compact separators, repr-exact
floats, and the datasets' sample arrays as base64 of their exact bytes), so
identical inputs produce byte-identical files, and all of them go through
write_text. Loaders raise ParseError with file/line/field context
on malformed input, bytes that are not UTF-8 included, and refuse unknown
schema versions explicitly.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import itertools
import json
import math
import os
import stat
from dataclasses import dataclass

import numpy as np

from .chart import ChartModel
from .errors import ConfigurationError, ParseError
from .gpmap import (FitDiagnostics, FittedMap, Hyperparams, TrainingSet,
                    build_map)
from .propagation import Location

__all__ = [
    "UserRecord",
    "Dataset",
    "save_dataset",
    "load_dataset",
    "save_map",
    "load_map",
    "save_chart",
    "write_csv",
    "write_json",
    "write_text",
    "read_text",
    "kernel_checksum",
]

DATASET_VERSION = 2
MAP_VERSION = 2
CHART_VERSION = 1

# the dataset's sample arrays, as stored: little-endian float64 power samples
# and complex128 CSI entries
_FLOAT64 = np.dtype("<f8")
_COMPLEX128 = np.dtype("<c16")


@dataclass(frozen=True)
class UserRecord:
    """One user's measurements; location and CSI are optional."""

    user_id: int
    location: Location | None
    power_samples: np.ndarray
    csi: np.ndarray | None = None


@dataclass(frozen=True)
class Dataset:
    records: list

    def __len__(self) -> int:
        return len(self.records)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_text(path, chunks) -> None:
    """Writes the str chunks to path as UTF-8, rewriting the file in place.

    The file is opened like open(path, "w") but without O_TRUNC, and cut at
    the final position afterwards, also when a chunk raises: it then holds
    the new prefix alone, never new bytes followed by an old tail. On ext4,
    truncating on open makes the rewrite wait for the writeback of the old
    contents (tens of ms); cutting at the end does not. Symlinks and hard
    links are written through, nothing is fsynced, and a device or pipe,
    which has no tail, is not cut.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as fh:
        try:
            fh.writelines(chunks)
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()


def write_json(path, doc) -> None:
    """One deterministic JSON document on one line."""
    write_text(path, [_dump(doc) + "\n"])


def read_text(path) -> str:
    """The whole file as text; bytes that are not UTF-8 are a ParseError."""
    return _decode(_read_bytes(path), path)


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _decode(data: bytes, path) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"invalid UTF-8 ({exc.reason})", path=path,
                         line=data.count(b"\n", 0, exc.start) + 1) from exc


def save_dataset(dataset: Dataset, path) -> None:
    """One JSON object per user: {user_id, x, y, z, power_samples, csi?}.

    power_samples is the base64 (standard alphabet, padded) of the
    little-endian float64 bytes, and csi is {"shape": [antennas,
    subcarriers], "data": base64 of the little-endian complex128 bytes in
    row-major order}: exact, and the same bytes for the same dataset.
    """
    header = {"kind": "statmap-dataset", "version": DATASET_VERSION}
    rows = itertools.chain([header], map(_dataset_row, dataset.records))
    write_text(path, (_dump(row) + "\n" for row in rows))


def _dataset_row(rec: UserRecord) -> dict:
    row = {"user_id": rec.user_id,
           "power_samples": _b64(rec.power_samples, _FLOAT64)}
    if rec.location is not None:
        row["x"] = rec.location.x
        row["y"] = rec.location.y
        row["z"] = rec.location.z
    if rec.csi is not None:
        row["csi"] = {"shape": list(rec.csi.shape),
                      "data": _b64(rec.csi, _COMPLEX128)}
    return row


def _b64(values: np.ndarray, dtype: np.dtype) -> str:
    raw = np.ascontiguousarray(values, dtype=dtype).tobytes()
    return base64.b64encode(raw).decode("ascii")


def _from_b64(value, dtype: np.dtype, field: str) -> np.ndarray:
    """The 1-D array whose bytes the base64 string value holds."""
    if not isinstance(value, str):
        raise ValueError(f"{field} must be a base64 string, got "
                         f"{type(value).__name__}")
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as exc:   # binascii.Error, or a non-ASCII character
        raise ValueError(f"invalid base64 in {field} ({exc})") from exc
    if len(raw) % dtype.itemsize:
        raise ValueError(f"{field} holds {len(raw)} bytes, not a whole "
                         f"number of {dtype.itemsize}-byte values")
    return np.frombuffer(raw, dtype=dtype)


def _lines(fh):
    """The file's lines, numbered as bytes.splitlines() numbers them (a lone
    CR ends a line too), read one line at a time."""
    for line in fh:
        if b"\r" in line:
            yield from line.splitlines()
        else:
            yield line


def load_dataset(path) -> Dataset:
    """The records of a dataset file, read one line at a time, so that only
    the decoded arrays and the current line are held at once."""
    with open(path, "rb") as fh:
        lines = enumerate(_lines(fh), start=1)
        first = next(lines, None)
        if first is not None:
            _check_header(_parse_json_line(first[1], path, 1),
                          "statmap-dataset", DATASET_VERSION, path, line=1)
        records = []
        csi_shape = None    # every CSI record must match the first one
        for lineno, line in lines:
            if not line.strip():
                continue
            row = _parse_json_line(line, path, lineno)
            try:
                record = _dataset_record(row, csi_shape)
            except (KeyError, TypeError, ValueError, OverflowError,
                    ConfigurationError) as exc:
                raise ParseError(f"bad dataset record: {exc}", path=path,
                                 line=lineno) from exc
            if record.csi is not None:
                csi_shape = record.csi.shape
            records.append(record)
    if not records:
        raise ParseError("empty dataset file: no user records", path=path)
    return Dataset(records=records)


def _dataset_record(row, csi_shape) -> UserRecord:
    """One row's record; csi_shape is the first CSI record's shape, or None
    before it."""
    loc = None
    if "x" in row:
        xyz = [row[key] for key in ("x", "y", "z")]
        if not all(type(v) in (int, float) for v in xyz):
            raise ValueError("x, y and z must be JSON numbers")
        if not all(map(math.isfinite, xyz)):
            raise ValueError("location coordinates must be finite")
        loc = Location(*map(float, xyz))
    csi = None
    if "csi" in row:
        shape, data = row["csi"]["shape"], row["csi"]["data"]
        if not (isinstance(shape, list) and len(shape) == 2
                and all(type(n) is int and n > 0 for n in shape)):
            raise ValueError("CSI shape must be [antennas, subcarriers], two "
                             f"positive integers, got {shape!r}")
        csi = _from_b64(data, _COMPLEX128, "CSI data")
        if csi.size != shape[0] * shape[1]:
            raise ValueError(f"CSI data holds {csi.size} values, its shape "
                             f"{shape} needs {shape[0] * shape[1]}")
        csi = csi.reshape(shape)
        if not np.isfinite(csi).all():
            raise ValueError("CSI entries must be finite")
        if not csi.any():
            raise ValueError("all-zero CSI snapshot")
        with np.errstate(over="ignore"):
            if not np.isfinite(np.sum(np.abs(csi) ** 2)):
                raise ValueError("CSI power overflows")
        if csi_shape is not None and csi.shape != csi_shape:
            raise ValueError(f"CSI shape {csi.shape} differs from the first "
                             f"CSI record's {csi_shape}")
    powers = _from_b64(row["power_samples"], _FLOAT64, "power_samples")
    if powers.size == 0:
        raise ValueError("power_samples holds no values")
    if not (np.isfinite(powers) & (powers >= 0.0)).all():
        raise ValueError("power samples must be finite and nonnegative")
    if type(row["user_id"]) is not int:
        raise ValueError(f"user_id must be a JSON integer: {row['user_id']!r}")
    return UserRecord(user_id=row["user_id"], location=loc,
                      power_samples=powers, csi=csi)


def kernel_checksum(train: TrainingSet, hyper: Hyperparams) -> str:
    """SHA-256 of the values a map's posterior is rebuilt from: the four
    hyperparameters, n, the coordinates row by row and the targets, each as
    little-endian float64. O(n); no kernel bits, which vary across hosts."""
    values = [dataclasses.astuple(hyper), [train.n], train.coords.ravel(),
              train.targets]
    return hashlib.sha256(np.concatenate(values, dtype=_FLOAT64)).hexdigest()


def save_map(fmap: FittedMap, path) -> None:
    doc = {
        "kind": "statmap-gp-map",
        "version": MAP_VERSION,
        "hyper": dataclasses.asdict(fmap.hyper),
        "coords": fmap.train.coords.tolist(),
        "targets": fmap.train.targets.tolist(),
        "diagnostics": dataclasses.asdict(fmap.diagnostics),
        "kernel_checksum": kernel_checksum(fmap.train, fmap.hyper),
    }
    write_json(path, doc)


# The last map load_map returned, as [(path, file bytes, map)], or [].
_last_map: list[tuple] = []


def load_map(path) -> FittedMap:
    """The map stored at path, its checksum verified and its inverse
    Cholesky factor rebuilt.

    The file is read once per call. When its bytes equal in full those of
    the last map this process loaded from the same path, that map is
    returned: it passed every check below for these bytes, and its arrays
    are read-only. Otherwise the remembered map is dropped first, so that a
    load never holds two factors; the checksum of the stored values is
    compared before any n x n work, and ``build_map`` then builds, factors
    and inverts the kernel once each. A load that raises is not remembered.
    Between loads the process keeps one map alive: its n x n inverse factor
    (8 MB at n = 1000) and the file's bytes.
    """
    data = _read_bytes(path)
    if _last_map and _last_map[0][:2] == (path, data):
        return _last_map[0][2]
    _last_map.clear()
    fmap = _map_from_bytes(data, path)
    _last_map.append((path, data, fmap))
    return fmap


def _map_from_bytes(data: bytes, path) -> FittedMap:
    try:
        doc = json.loads(_decode(data, path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", path=path,
                         line=exc.lineno) from exc
    _check_header(doc, "statmap-gp-map", MAP_VERSION, path)
    try:
        hyper = Hyperparams(**doc["hyper"])
        train = TrainingSet.new(doc["coords"], doc["targets"])
        diag = FitDiagnostics(**doc["diagnostics"])
        stored = doc["kernel_checksum"]
    except (KeyError, TypeError, ValueError, OverflowError,
            ConfigurationError) as exc:
        raise ParseError(f"bad map document: {exc}", path=path) from exc
    if kernel_checksum(train, hyper) != stored:
        raise ParseError(f"map checksum mismatch (stored {stored!s:.12}..)",
                         path=path, field="kernel_checksum")
    fmap = build_map(train, hyper)
    return dataclasses.replace(fmap, diagnostics=diag)


def save_chart(model: ChartModel, path) -> None:
    doc = {
        "kind": "statmap-chart",
        "version": CHART_VERSION,
        "layer_dims": model.layer_dims,
        "weights": [w.tolist() for w in model.weights],  # row-major per layer
        "biases": [b.tolist() for b in model.biases],
    }
    write_json(path, doc)


def write_csv(path, header: list, rows) -> None:
    """Plain CSV with repr-exact floats (lossless, deterministic)."""
    write_text(path, itertools.chain(
        [",".join(header) + "\n"],
        (",".join(_fmt(v) for v in row) + "\n" for row in rows)))


def _fmt(v) -> str:
    if type(v) is float:        # the common case, ahead of the checks below
        return repr(v)
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _parse_json_line(line: bytes, path, lineno: int):
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"bad dataset record: invalid UTF-8 ({exc.reason})",
                         path=path, line=lineno) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", path=path,
                         line=lineno) from exc


def _check_header(header, kind: str, version: int, path, line=None):
    if not isinstance(header, dict) or header.get("kind") != kind:
        raise ParseError(f"not a {kind} file", path=path, line=line,
                         field="kind")
    if header.get("version") != version:
        raise ParseError(
            f"unsupported {kind} version {header.get('version')!r}, "
            f"expected {version}", path=path, line=line, field="version")

