"""Causality maps between one index series and every gridpoint of a 2-D field.

Each unmasked cell is paired with the index series and run through the
two-series pipeline (align, covariances, MLE, Fisher intervals) as one row of
a stack of cells; each row gives the bits of its own pair pipeline, so a
single-cell grid reproduces the pair pipeline bitwise. Cells whose series are
degenerate, or whose covariances are not finite, are reported as missing
(NaN flow, significance False) without aborting the map.

Grid storage is a plain-text trio:

  manifest CSV    key,value rows, each key once: n_lat, n_lon, n_time, dt,
                  values_file, mask_file (optional), t0 (optional); paths
                  are relative to the manifest. n_lat and n_lon are >= 1,
                  n_time >= 3 and dt a positive finite real.
  values CSV      n_time rows, each with n_lat * n_lon cells in row-major
                  (lat, lon) order.
  mask CSV        n_lat rows of n_lon flags, 1 = valid cell, 0 = masked.

'#' comment lines are allowed everywhere. load_grid reads the manifest, the
mask, then the values, each once, and raises the first problem in that order.
Each file is opened by series._open_input: an absent or unreadable one, or one
that is not a regular file, is an InputError naming its path. Value rows are
parsed as every CSV's are, finite in unmasked cells: a bad row is a
LengthMismatch or NonFiniteValue carrying its .row, a bad cell named by its
column index. Manifest, mask and row-count errors are GridFormatError. An
output that cannot be written is an InputError naming it.
"""

from __future__ import annotations

import csv
import functools
import os
from dataclasses import dataclass

import numpy as np

from .errors import GridFormatError, InputError
from .estimator import covariances, fisher_ci, fit_mle
from .series import (
    TimeSeries,
    _Lines,
    _check_sampling,
    _data_lines,
    _fill,
    _freeze,
    _open_input,
    _open_output,
    _read_rows,
    _write_rows,
    align,
)

MISSING = float("nan")

# Cells go through the estimator in blocks of about BLOCK_VALUES values, so a
# work array of a block takes about 2 MB whatever the size of the grid.
BLOCK_VALUES = 1 << 18


@dataclass(frozen=True)
class GridField:
    """A dense [time][lat][lon] field with a validity mask.

    files records where the data came from: the grid manifest, values and mask
    files that load_grid read, or () for a field built in memory.
    """

    values: np.ndarray
    dt: float
    mask: np.ndarray
    t0: float = 0.0
    files: tuple[str, ...] = ()

    def __post_init__(self):
        values = _freeze(self.values)
        if values.ndim != 3:
            raise ValueError(f"field values must be [time][lat][lon], got shape {values.shape}")
        _check_sampling(values.shape[0], self.dt, "field", "time steps")
        mask = _freeze(self.mask, bool)
        if mask.shape != values.shape[1:]:
            raise ValueError(f"mask shape {mask.shape} does not match grid {values.shape[1:]}")
        if not np.isfinite(values).all(axis=0)[mask].all():
            raise ValueError("unmasked cells contain non-finite values")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    @property
    def n_time(self) -> int:
        return self.values.shape[0]

    @property
    def n_lat(self) -> int:
        return self.values.shape[1]

    @property
    def n_lon(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True)
class FlowMap:
    """Per-cell flow rates and significance flags in both directions.

    Masked or degenerate cells carry NaN flow and significance False.
    """

    t_index_to_field: np.ndarray
    t_field_to_index: np.ndarray
    significant_index_to_field: np.ndarray
    significant_field_to_index: np.ndarray
    alpha: float


def map_flows(index: TimeSeries, field: GridField, alpha: float = 0.05) -> FlowMap:
    """Run the two-series pipeline between the index and every unmasked cell."""
    shape = (field.n_lat, field.n_lon)
    t_i2f, t_f2i = np.full(shape, MISSING), np.full(shape, MISSING)
    sig_i2f, sig_f2i = np.zeros(shape, dtype=bool), np.zeros(shape, dtype=bool)
    series = field.values.reshape(field.n_time, -1)
    cells = np.flatnonzero(field.mask)
    per_block = max(1, BLOCK_VALUES // field.n_time)
    # at least one block, empty if every cell is masked: align checks the index
    for rows in np.array_split(cells, max(1, -(-cells.size // per_block))):
        pair = align(index, TimeSeries(series[:, rows].T, field.dt, field.t0))
        cov = covariances(pair)
        est = fisher_ci(pair, fit_mle(pair, cov), cov, alpha)
        # pair is (x1=index, x2=cell): t12 flows index -> cell
        t_i2f.flat[rows], t_f2i.flat[rows] = est.t12, est.t21
        sig_i2f.flat[rows], sig_f2i.flat[rows] = est.significant12(), est.significant21()
    return FlowMap(t_i2f, t_f2i, sig_i2f, sig_f2i, alpha)


# --- grid I/O ----------------------------------------------------------------


def _csv_rows(path) -> list[list[str]]:
    with _open_input(path) as fh:
        return list(csv.reader(_data_lines(_Lines(fh))))


def _read_mask(mask_path, n_lat: int, n_lon: int) -> np.ndarray:
    rows = [[cell.strip() for cell in row] for row in _csv_rows(mask_path)]
    if len(rows) != n_lat or any(len(r) != n_lon for r in rows):
        raise GridFormatError(f"{mask_path}: mask file must be {n_lat} rows of {n_lon} flags")
    for i, row in enumerate(rows, start=1):
        for flag in row:
            if flag not in ("0", "1"):
                raise GridFormatError(f"{mask_path}: mask row {i}: flag {flag!r} is not 0 or 1")
    return np.array(rows, dtype=str).reshape(n_lat, n_lon) == "1"


def _read_manifest(manifest_path) -> dict[str, str]:
    """The key -> value entries of a grid manifest CSV: one row per key, each
    key known, every key that load_grid needs given.

    values_file and mask_file (if given) come back joined onto manifest_path's
    directory as given, relative if it is: the files that load_grid reads.
    """
    required, entries = ("n_lat", "n_lon", "n_time", "dt", "values_file"), {}
    base = os.path.dirname(manifest_path)
    for row in _csv_rows(manifest_path):
        if len(row) != 2:
            raise GridFormatError(f"{manifest_path}: malformed manifest row {row!r}")
        key, value = (cell.strip() for cell in row)
        if key not in (*required, "t0", "mask_file"):
            raise GridFormatError(f"{manifest_path}: unknown manifest key {key!r}")
        if key in entries:
            raise GridFormatError(f"{manifest_path}: repeated manifest key {key!r}")
        entries[key] = os.path.join(base, value) if key.endswith("_file") else value
    for key in required:
        if key not in entries:
            raise GridFormatError(f"{manifest_path}: manifest is missing key {key!r}")
    return entries


def load_grid(manifest_path) -> GridField:
    """Load a GridField from its manifest CSV: the manifest, then the mask,
    then the values, each file read once."""
    entries = _read_manifest(manifest_path)
    try:
        n_lat, n_lon, n_time = (int(entries[key]) for key in ("n_lat", "n_lon", "n_time"))
        dt, t0 = float(entries["dt"]), float(entries.get("t0", "0"))
        if min(n_lat, n_lon) < 1:
            raise ValueError(f"n_lat and n_lon must be >= 1, got {n_lat} and {n_lon}")
        _check_sampling(n_time, dt, "field", "time steps")
    except ValueError as exc:
        raise GridFormatError(f"{manifest_path}: bad manifest value: {exc}")

    mask_path = entries.get("mask_file")
    mask = np.ones((n_lat, n_lon), bool) if mask_path is None else _read_mask(mask_path, n_lat, n_lon)
    values_path = entries["values_file"]
    n_cells = n_lat * n_lon
    with _open_input(values_path) as fh:
        # the file holds at most `fits` rows: one of n_cells values takes at
        # least 2 * n_cells - 1 characters, and a line break ends all but the last
        fits = (os.fstat(fh.fileno()).st_size + 1) // (2 * n_cells)
        flat = np.empty((min(n_time, fits), n_cells))
        # rows past it are parsed, for their errors and their count, and
        # dropped; a value must be finite in an unmasked cell only
        place = functools.partial(_fill, out=flat)
        found = _read_rows(fh, 0, None, n_cells, mask.reshape(-1), "C", place)
    if found != n_time:
        raise GridFormatError(f"{values_path}: expected {n_time} rows, found {found}")
    flat.setflags(write=False)  # so that GridField keeps it without a copy
    files = tuple(os.fspath(p) for p in (manifest_path, values_path, mask_path) if p is not None)
    return GridField(values=flat.reshape(n_time, n_lat, n_lon), dt=dt, mask=mask, t0=t0, files=files)


def _write_tables(out_dir, tables: dict, header_comment: str = "") -> dict[str, str]:
    """Write each name -> 2-D table as out_dir/name.csv, headed by a '#'
    comment line if header_comment is set, making out_dir if it is absent;
    returns name -> path. Any OSError is an InputError naming its output."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot write {out_dir}: {exc}")
    paths = {}
    for name, table in tables.items():
        paths[name] = os.path.join(out_dir, f"{name}.csv")
        with _open_output(paths[name]) as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            _write_rows(fh, table)
    return paths


def write_grid(field: GridField, out_dir, basename: str = "grid") -> str:
    """Write a GridField as manifest + values + mask CSVs; returns manifest path."""
    values_name, mask_name = f"{basename}_values", f"{basename}_mask"
    _write_tables(out_dir, {values_name: field.values.reshape(field.n_time, -1), mask_name: field.mask})
    manifest_path = os.path.join(out_dir, f"{basename}_manifest.csv")
    with _open_output(manifest_path) as fh:
        fh.write(f"n_lat,{field.n_lat}\n")
        fh.write(f"n_lon,{field.n_lon}\n")
        fh.write(f"n_time,{field.n_time}\n")
        fh.write(f"dt,{field.dt:.17g}\n")
        fh.write(f"t0,{field.t0:.17g}\n")
        fh.write(f"values_file,{values_name}.csv\n")
        fh.write(f"mask_file,{mask_name}.csv\n")
    return manifest_path


def write_flow_maps(fm: FlowMap, out_dir, header_comment: str = "") -> dict[str, str]:
    """Write the four per-direction matrices as CSVs; returns name -> path."""
    outputs = {
        "flow_index_to_field": fm.t_index_to_field,
        "flow_field_to_index": fm.t_field_to_index,
        "significant_index_to_field": fm.significant_index_to_field,
        "significant_field_to_index": fm.significant_field_to_index,
    }
    return _write_tables(out_dir, outputs, header_comment)
