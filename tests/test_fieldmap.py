from __future__ import annotations

import os
import tracemalloc

import numpy as np
import pytest

from infoflow import (
    CollinearSeries,
    DegenerateSeries,
    DtMismatch,
    FlowMap,
    GridField,
    GridFormatError,
    InputError,
    LengthMismatch,
    LinearModel2D,
    NonFiniteValue,
    NumericalError,
    TimeSeries,
    align,
    covariances,
    fisher_ci,
    fit_mle,
    load_grid,
    map_flows,
    write_flow_maps,
    write_grid,
)
from infoflow import fieldmap, series

from conftest import assert_no_child_left, split_before_every_line

DT = 0.05
N_TIME = 3000
N_LAT, N_LON = 3, 4
GAMMA = 0.8


def coupled_fixture(seed=0):
    """Index OU plus a grid whose first half of cells listens to the index.

    Cells evolve as dY = (-Y + gamma * X) dt + 0.5 dW with independent noise;
    uncoupled cells drop the gamma term. One cell is masked.
    """
    rng = np.random.default_rng(seed)
    n_cells = N_LAT * N_LON
    zi = rng.standard_normal(N_TIME) * np.sqrt(DT)
    x = np.empty(N_TIME + 1)
    x[0] = 0.0
    for n in range(N_TIME):
        x[n + 1] = x[n] - x[n] * DT + 0.5 * zi[n]
    zc = rng.standard_normal((N_TIME, n_cells)) * np.sqrt(DT)
    y = np.zeros((N_TIME + 1, n_cells))
    coupled = np.zeros(n_cells, dtype=bool)
    coupled[: n_cells // 2] = True
    for n in range(N_TIME):
        drift = -y[n] * DT
        drift[coupled] += GAMMA * x[n] * DT
        y[n + 1] = y[n] + drift + 0.5 * zc[n]
    index = TimeSeries(x[1:], DT, label="index")
    values = y[1:].reshape(N_TIME, N_LAT, N_LON)
    mask = np.ones((N_LAT, N_LON), dtype=bool)
    mask[-1, -1] = False
    field = GridField(values=values, dt=DT, mask=mask)
    return index, field, coupled.reshape(N_LAT, N_LON)


def noise_fixture(seed=1000):
    rng = np.random.default_rng(seed)
    index = TimeSeries(rng.standard_normal(N_TIME), DT, label="index")
    values = rng.standard_normal((N_TIME, N_LAT, N_LON))
    field = GridField(values=values, dt=DT, mask=np.ones((N_LAT, N_LON), dtype=bool))
    return index, field


def pair_pipeline(index, field, lat, lon, alpha=0.05):
    pair = align(index, TimeSeries(field.values[:, lat, lon], field.dt))
    cov = covariances(pair)
    return fisher_ci(pair, fit_mle(pair, cov), cov, alpha=alpha)


def assert_cells_equal_pair_pipeline(index, field, fm):
    """Every unmasked cell has the bits of its own pair pipeline, or is missing if that raises."""
    for lat, lon in zip(*np.nonzero(field.mask)):
        cell = (lat, lon)
        try:
            est = pair_pipeline(index, field, lat, lon, fm.alpha)
        except NumericalError:
            assert np.isnan(fm.t_index_to_field[cell]) and np.isnan(fm.t_field_to_index[cell])
            assert not fm.significant_index_to_field[cell]
            assert not fm.significant_field_to_index[cell]
            continue
        assert fm.t_index_to_field[cell] == est.t12
        assert fm.t_field_to_index[cell] == est.t21
        assert fm.significant_index_to_field[cell] == est.significant12()
        assert fm.significant_field_to_index[cell] == est.significant21()


class TestMapFlows:
    def test_one_way_coupling_pattern(self):
        index, field, coupled = coupled_fixture(seed=0)
        fm = map_flows(index, field, alpha=0.05)
        unmasked = field.mask
        # every coupled cell: positive, significant flow index -> cell
        assert np.all(fm.t_index_to_field[coupled & unmasked] > 0)
        assert np.all(fm.significant_index_to_field[coupled & unmasked])
        # no feedback: flow cell -> index not significant in >= 90% of cells
        n_cells = int(unmasked.sum())
        n_quiet = int((~fm.significant_field_to_index[unmasked]).sum())
        assert n_quiet >= 0.9 * n_cells

    def test_noise_grid_is_quiet_both_ways(self):
        index, field = noise_fixture(seed=1000)
        fm = map_flows(index, field, alpha=0.05)
        n_cells = field.mask.sum()
        assert (~fm.significant_index_to_field).sum() >= 0.9 * n_cells
        assert (~fm.significant_field_to_index).sum() >= 0.9 * n_cells

    def test_single_cell_grid_equals_pair_pipeline(self, monkeypatch):
        index, field, _ = coupled_fixture(seed=2)
        cell = field.values[:, 0:1, 0:1]
        single = GridField(values=cell, dt=DT, mask=np.ones((1, 1), dtype=bool))
        fm = map_flows(index, single, alpha=0.05)
        pair = align(index, TimeSeries(cell[:, 0, 0], DT))
        cov = covariances(pair)
        est = fisher_ci(pair, fit_mle(pair, cov), cov, alpha=0.05)
        assert fm.t_index_to_field[0, 0] == est.t12
        assert fm.t_field_to_index[0, 0] == est.t21
        assert fm.significant_index_to_field[0, 0] == est.significant12()
        assert fm.significant_field_to_index[0, 0] == est.significant21()
        # every cell of the grid, in one block and then in blocks of three
        # cells, which split the grid's rows of four
        assert_cells_equal_pair_pipeline(index, field, map_flows(index, field, alpha=0.05))
        monkeypatch.setattr(fieldmap, "BLOCK_VALUES", 3 * N_TIME)
        assert_cells_equal_pair_pipeline(index, field, map_flows(index, field, alpha=0.05))

    def test_cell_permutation_permutes_output(self):
        index, field, _ = coupled_fixture(seed=3)
        perm = np.random.default_rng(1).permutation(N_LAT)
        permuted = GridField(values=field.values[:, perm, :], dt=DT, mask=field.mask[perm, :])
        fm = map_flows(index, field)
        fm_perm = map_flows(index, permuted)
        assert np.array_equal(
            fm_perm.t_index_to_field, fm.t_index_to_field[perm, :], equal_nan=True
        )
        assert np.array_equal(
            fm_perm.significant_field_to_index, fm.significant_field_to_index[perm, :]
        )

    def test_masked_cells_are_missing_and_isolated(self):
        index, field, _ = coupled_fixture(seed=4)
        fm = map_flows(index, field)
        assert np.isnan(fm.t_index_to_field[~field.mask]).all()
        assert not fm.significant_index_to_field[~field.mask].any()
        # unmasking a cell must not change any other cell
        all_open = GridField(
            values=field.values, dt=DT, mask=np.ones((N_LAT, N_LON), dtype=bool)
        )
        fm_open = map_flows(index, all_open)
        assert np.array_equal(
            fm_open.t_field_to_index[field.mask], fm.t_field_to_index[field.mask]
        )

    def test_degenerate_cell_becomes_missing(self):
        index, field = noise_fixture(seed=5)
        values = field.values.copy()
        values[:, 1, 1] = index.values  # collinear with the index
        values[:, 2, 0] = 0.3  # constant, off its computed mean
        bad = GridField(values=values, dt=DT, mask=field.mask)
        fm = map_flows(index, bad)
        for (lat, lon), error in (((1, 1), CollinearSeries), ((2, 0), DegenerateSeries)):
            with pytest.raises(error):
                pair_pipeline(index, bad, lat, lon)
            assert np.isnan(fm.t_index_to_field[lat, lon])
            assert not fm.significant_index_to_field[lat, lon]
        assert np.isfinite(fm.t_index_to_field[0, 0])
        assert_cells_equal_pair_pipeline(index, bad, fm)

    def test_overflowing_cell_becomes_missing(self):
        index, field = noise_fixture(seed=5)
        values = field.values.copy()
        values[:, 1, 2] *= 1e160  # its variance overflows to inf
        scaled = GridField(values=values, dt=DT, mask=field.mask)
        with np.errstate(all="ignore"):
            fm = map_flows(index, scaled)
            assert_cells_equal_pair_pipeline(index, scaled, fm)
        assert np.isnan(fm.t_index_to_field[1, 2]) and np.isnan(fm.t_field_to_index[1, 2])
        others = np.ones((N_LAT, N_LON), dtype=bool)
        others[1, 2] = False
        fm_plain = map_flows(index, field)
        assert np.array_equal(fm.t_index_to_field[others], fm_plain.t_index_to_field[others])
        assert np.array_equal(fm.t_field_to_index[others], fm_plain.t_field_to_index[others])

    def test_overflowing_index_leaves_every_cell_missing(self):
        index, field = noise_fixture(seed=5)
        with np.errstate(all="ignore"):
            fm = map_flows(TimeSeries(index.values * 1e160, DT), field)
        assert np.isnan(fm.t_index_to_field).all() and np.isnan(fm.t_field_to_index).all()
        assert not fm.significant_index_to_field.any()
        assert not fm.significant_field_to_index.any()

    def test_all_masked_grid(self):
        index, field = noise_fixture(seed=9)
        masked = GridField(values=field.values, dt=DT, mask=np.zeros((N_LAT, N_LON), dtype=bool))
        fm = map_flows(index, masked)
        assert np.isnan(fm.t_index_to_field).all() and np.isnan(fm.t_field_to_index).all()
        assert not fm.significant_index_to_field.any()
        assert not fm.significant_field_to_index.any()
        with pytest.raises(LengthMismatch):
            map_flows(TimeSeries(index.values[:-1], DT), masked)
        with pytest.raises(DtMismatch):
            map_flows(TimeSeries(index.values, DT * 2), masked)

    def test_shape_and_dt_validation(self):
        index, field = noise_fixture(seed=6)
        short = TimeSeries(index.values[:-1], DT)
        with pytest.raises(LengthMismatch):
            map_flows(short, field)
        wrong_dt = TimeSeries(index.values, DT * 2)
        with pytest.raises(DtMismatch):
            map_flows(wrong_dt, field)


def per_value_rows(table) -> bytes:
    """A table as CSV text the slow way: f"{v:.17g}" per value, "1"/"0" per flag."""
    if table.dtype == bool:
        rows = [",".join("1" if v else "0" for v in row) for row in table]
    else:
        rows = [",".join(f"{v:.17g}" for v in row) for row in table]
    return "".join(row + "\n" for row in rows).encode()


def extreme_table(masked) -> np.ndarray:
    """Random doubles of any exponent, shaped as masked: NaN, inf and -inf where
    masked is true, -0.0, the smallest subnormal and the largest doubles among the rest."""
    rng = np.random.default_rng(3)
    table = rng.standard_normal(masked.shape) * 10.0 ** rng.integers(-300, 300, masked.shape)
    table[masked] = np.resize([np.nan, np.inf, -np.inf], masked.sum())
    extremes = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
    table.flat[np.flatnonzero(~masked)[: len(extremes)]] = extremes
    return table


class TestGridIO:
    def test_written_bytes_match_per_value_format(self, tmp_path, monkeypatch):
        mask = np.ones((3, 4), dtype=bool)
        mask[0, :2] = mask[2, 3] = False
        values = extreme_table(np.broadcast_to(~mask, (7, 3, 4)))
        # two rows of 12 values per write: chunks end between rows, not at the end
        monkeypatch.setattr(series, "CHUNK_CHARS", 2 * 25 * 12)
        write_grid(GridField(values=values, dt=0.1, mask=mask), tmp_path, "odd")
        assert (tmp_path / "odd_values.csv").read_bytes() == per_value_rows(values.reshape(7, -1))
        assert (tmp_path / "odd_mask.csv").read_bytes() == per_value_rows(mask)

    def test_flow_map_bytes_match_per_value_format(self, tmp_path, monkeypatch):
        mask = np.ones((5, 3), dtype=bool)
        mask[1, 1] = mask[3, 0] = mask[4, 2] = False
        rng = np.random.default_rng(4)
        fm = FlowMap(
            extreme_table(~mask),
            -extreme_table(~mask),
            rng.random((5, 3)) < 0.5,
            rng.random((5, 3)) < 0.5,
            0.05,
        )
        monkeypatch.setattr(series, "CHUNK_CHARS", 2 * 25 * 3)  # two rows per write
        paths = write_flow_maps(fm, tmp_path, "manifest: {}")
        grids = {
            "flow_index_to_field": fm.t_index_to_field,
            "flow_field_to_index": fm.t_field_to_index,
            "significant_index_to_field": fm.significant_index_to_field,
            "significant_field_to_index": fm.significant_field_to_index,
        }
        assert set(paths) == set(grids)
        for name, grid in grids.items():
            with open(paths[name], "rb") as fh:
                assert fh.read() == b"# manifest: {}\n" + per_value_rows(grid)

    def test_roundtrip(self, tmp_path, monkeypatch):
        _, field, _ = coupled_fixture(seed=7)
        manifest = write_grid(field, tmp_path, "fixture")
        loaded = load_grid(manifest)
        assert np.array_equal(loaded.values, field.values)
        assert np.array_equal(loaded.mask, field.mask)
        assert loaded.dt == field.dt

        # CRLF line ends, a '#' line mid-file and NaN in the masked cell, read
        # in chunks of a few rows: still bit for bit
        values = field.values.copy()
        values[:, ~field.mask] = np.nan
        with_nan = GridField(values=values, dt=DT, mask=field.mask)
        manifest = write_grid(with_nan, tmp_path, "crlf")
        values_file = tmp_path / "crlf_values.csv"
        lines = values_file.read_text().splitlines()
        lines.insert(N_TIME // 2, "# mid-file comment")
        values_file.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        monkeypatch.setattr(series, "CHUNK_CHARS", 1000)
        loaded = load_grid(manifest)
        assert loaded.values.tobytes() == with_nan.values.tobytes()
        assert np.isnan(loaded.values[:, ~field.mask]).all()

    def test_bare_cr_values_file_that_starts_with_a_comment(self, tmp_path):
        # the comment line ends at its bare "\r", not at the chunk's end
        _, field, _ = coupled_fixture(seed=9)
        manifest = write_grid(field, tmp_path, "cr")
        values_file = tmp_path / "cr_values.csv"
        text = "# a comment\n" + values_file.read_text()
        values_file.write_text(text)
        expected = load_grid(manifest).values
        values_file.write_bytes(text.replace("\n", "\r").encode())
        assert load_grid(manifest).values.tobytes() == expected.tobytes() == field.values.tobytes()

    @staticmethod
    def write_large_grid(tmp_path):
        """A grid of the benchmark's size, 40 x 40 x 2000 (25.6 MB of values),
        with NaN in its one masked cell; returns its manifest path."""
        n_time, n_lat, n_lon = 2000, 40, 40
        (tmp_path / "m.csv").write_text(
            f"n_lat,{n_lat}\nn_lon,{n_lon}\nn_time,{n_time}\ndt,0.1\n"
            "values_file,v.csv\nmask_file,mask.csv\n"
        )
        (tmp_path / "v.csv").write_text(("0," * (n_lat * n_lon - 1) + "nan\n") * n_time)
        mask_rows = ["1" + ",1" * (n_lon - 1)] * (n_lat - 1) + ["1," * (n_lon - 1) + "0"]
        (tmp_path / "mask.csv").write_text("\n".join(mask_rows) + "\n")
        return str(tmp_path / "m.csv")

    def test_loaded_grid_is_not_copied(self, tmp_path, monkeypatch):
        # building the GridField from load_grid's array allocates far less
        # than one copy of it
        manifest = self.write_large_grid(tmp_path)
        n_time, n_lat, n_lon = 2000, 40, 40
        construct, peaks = fieldmap.GridField, []

        def traced(**kwargs):
            tracemalloc.start()
            try:
                field = construct(**kwargs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            return field

        monkeypatch.setattr(fieldmap, "GridField", traced)
        field = load_grid(manifest)
        assert field.values.shape == (n_time, n_lat, n_lon) and not field.mask[-1, -1]
        assert peaks[0] < field.values.nbytes / 4

    def test_parse_holds_one_copy_of_the_grid(self, tmp_path):
        # the parsed rows go straight into the grid's array: beyond it, only
        # a chunk of text and its block are held at a time
        manifest = self.write_large_grid(tmp_path)
        tracemalloc.start()
        try:
            field = load_grid(manifest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * field.values.nbytes

    @pytest.mark.parametrize(
        "n_time, rows, found",
        [
            (3, "1,2,3,4\n5,6,7,8\n", 2),
            (3, "1,2,3,4\n" * 5, 5),
            (3, '"1",2,3,4\n' * 5, 5),  # the row scan's count
            (-1, "1,2,3,4\n" * 5, 5),
            (10**15, "1,2,3,4\n" * 5, 5),  # more rows than the file can hold
        ],
        ids=["too-few", "too-many", "too-many-scanned", "negative", "beyond-file"],
    )
    def test_row_count_must_match_manifest(self, tmp_path, monkeypatch, n_time, rows, found):
        path = tmp_path / "m.csv"
        path.write_text(f"n_lat,2\nn_lon,2\nn_time,{n_time}\ndt,1.0\nvalues_file,v.csv\n")
        (tmp_path / "v.csv").write_text(rows)
        # two rows of 8 characters per chunk: rows past n_time in later chunks
        monkeypatch.setattr(series, "CHUNK_CHARS", 9)
        with pytest.raises(GridFormatError, match=f"expected {n_time} rows, found {found}$"):
            load_grid(str(path))

    @pytest.mark.parametrize(
        "example, owned",
        [
            (np.arange(10.0).reshape(2, 5), lambda v: TimeSeries(v, 1.0).values),
            (np.arange(20.0).reshape(5, 2, 2), lambda v: GridField(v, 1.0, np.ones((2, 2))).values),
            (np.eye(2, dtype=bool), lambda v: GridField(np.zeros((3, 2, 2)), 1.0, v).mask),
            (np.arange(4.0).reshape(2, 2), lambda v: LinearModel2D(np.zeros(2), v, 0.0, 0.0).a),
        ],
        ids=["TimeSeries", "GridField", "GridField.mask", "LinearModel2D"],
    )
    def test_caller_arrays_are_copied(self, example, owned):
        values = example.copy()
        frozen_view = values.view()
        frozen_view.setflags(write=False)
        for given in (values, frozen_view):
            kept = owned(given)
            assert not np.shares_memory(kept, values)
            assert not kept.flags.writeable
        assert values.flags.writeable
        values.flat[0] = values.flat[1]
        assert np.array_equal(kept, example)
        # an array that nothing can write to is kept as it is
        frozen = example.copy()
        frozen.setflags(write=False)
        assert np.shares_memory(owned(frozen), frozen)
        # an unwritable F-ordered array is copied to C order
        f_ordered = np.asfortranarray(example)
        f_ordered.setflags(write=False)
        kept = owned(f_ordered)
        assert kept.flags.c_contiguous and not np.shares_memory(kept, f_ordered)
        assert np.array_equal(kept, example)

    def test_missing_manifest_keys(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("n_lat,2\nn_lon,2\n")
        with pytest.raises(GridFormatError):
            load_grid(str(path))

    def test_missing_mask_file(self, tmp_path):
        _, field, _ = coupled_fixture(seed=8)
        manifest = write_grid(field, tmp_path, "fixture")
        (tmp_path / "fixture_mask.csv").unlink()
        with pytest.raises(InputError, match="^cannot read .*fixture_mask.csv: .*No such file"):
            load_grid(manifest)

    @pytest.mark.parametrize("flag", ["2", "true", "", "yes", "1.0", "-1", "O", "l"])
    def test_mask_flags_other_than_0_or_1_rejected(self, tmp_path, flag):
        path = tmp_path / "m.csv"
        path.write_text(
            "n_lat,2\nn_lon,2\nn_time,3\ndt,1.0\nvalues_file,v.csv\nmask_file,mask.csv\n"
        )
        (tmp_path / "v.csv").write_text("1,2,3,4\n5,6,7,8\n9,1,2,4\n")
        (tmp_path / "mask.csv").write_text(" 1 ,0\n# comment\n1,0\n")
        assert load_grid(str(path)).mask.tolist() == [[True, False], [True, False]]
        (tmp_path / "mask.csv").write_text(f"1,0\n# comment\n1,{flag}\n")
        with pytest.raises(GridFormatError, match=f"mask row 2: flag {flag!r} is not 0 or 1"):
            load_grid(str(path))

    def test_bad_cell_count(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("n_lat,2\nn_lon,2\nn_time,3\ndt,1.0\nvalues_file,v.csv\n")
        (tmp_path / "v.csv").write_text("1,2,3\n4,5,6\n7,8,9\n")
        with pytest.raises(LengthMismatch, match="v.csv: row 1: expected 4 columns, found 3$") as exc:
            load_grid(str(path))
        assert exc.value.row == 1

    @pytest.mark.parametrize(
        "bad, error, message",
        [("9,x,9,9", NonFiniteValue, "row 6, column 1: 'x'"),
         ("9,9,9", LengthMismatch, "row 6: expected 4 columns, found 3")],
        ids=["non-numeric", "short-row"],
    )
    def test_bad_value_row_is_named(self, tmp_path, monkeypatch, bad, error, message):
        # data row 6, after a comment and in the fourth chunk of at most two
        # lines: rows keep their numbers across chunks and skip comment lines
        path = tmp_path / "m.csv"
        path.write_text("n_lat,2\nn_lon,2\nn_time,8\ndt,1.0\nvalues_file,v.csv\n")
        rows = ["1,2,3,4"] * 8
        rows[5] = bad
        rows.insert(2, "# comment")
        (tmp_path / "v.csv").write_text("\n".join(rows) + "\n")
        monkeypatch.setattr(series, "CHUNK_CHARS", 9)
        with pytest.raises(error, match=f"v.csv: {message}$") as exc:
            load_grid(str(path))
        assert exc.value.row == 6

    def test_unmasked_non_finite_value_is_named(self, tmp_path):
        # the first in file order: row 5 comes before row 6, whose bad cell
        # has the lower column; the masked column 1 may hold NaN
        path = tmp_path / "m.csv"
        path.write_text("n_lat,2\nn_lon,2\nn_time,8\ndt,1.0\nvalues_file,v.csv\nmask_file,mask.csv\n")
        (tmp_path / "mask.csv").write_text("1,0\n1,1\n")
        rows = ["1,2,3,4"] * 8
        rows[1], rows[4], rows[5] = "1,nan,3,4", "1,2,3, NaN", "1,2,-inf,4"
        rows.insert(2, "# comment")
        (tmp_path / "v.csv").write_text("\n".join(rows) + "\n")
        with pytest.raises(NonFiniteValue, match="v.csv: row 5, column 3: 'NaN'$") as exc:
            load_grid(str(path))
        assert exc.value.row == 5

    @pytest.mark.parametrize("chars", [1, 7, 50, series.CHUNK_CHARS, "ranges"])
    def test_unmasked_nan_is_named_in_file_order(self, tmp_path, monkeypatch, chars):
        # an unmasked nan in row 3 comes before a text cell in row 8, at every
        # chunk size and with a range per line; masked, a nan is no error,
        # also beside the text cell
        path = tmp_path / "m.csv"
        path.write_text("n_lat,1\nn_lon,3\nn_time,10\ndt,1.0\nvalues_file,v.csv\n")
        rows = [f"{i}.0,{i}.5,{i}.25\n" for i in range(10)]
        rows[2], rows[7] = "2.0,nan,2.25\n", "7.0,-inf,abc\n"
        (tmp_path / "v.csv").write_text("".join(rows))
        if chars == "ranges":
            split_before_every_line(monkeypatch, str(tmp_path / "v.csv"))
        else:
            monkeypatch.setattr(series, "CHUNK_CHARS", chars)
        with pytest.raises(NonFiniteValue, match="v.csv: row 3, column 1: 'nan'$") as exc:
            load_grid(str(path))
        assert exc.value.row == 3
        (tmp_path / "mask.csv").write_text("1,0,1\n")
        with path.open("a") as fh:
            fh.write("mask_file,mask.csv\n")
        with pytest.raises(NonFiniteValue, match="v.csv: row 8, column 2: 'abc'$") as exc:
            load_grid(str(path))
        assert exc.value.row == 8
        assert_no_child_left()

    @staticmethod
    def record_opens(monkeypatch):
        """Record the name of every file that the loaders open, in order."""
        opened, open_input = [], series._open_input

        def recorded(path):
            opened.append(os.path.basename(path))
            return open_input(path)

        monkeypatch.setattr(series, "_open_input", recorded)
        monkeypatch.setattr(fieldmap, "_open_input", recorded)
        return opened

    def test_values_file_is_read_once(self, tmp_path, monkeypatch):
        # the manifest, the mask, then the values, each opened once, also
        # when an unmasked nan raises after a chunk read at a time
        path = tmp_path / "m.csv"
        path.write_text("n_lat,1\nn_lon,2\nn_time,9\ndt,1.0\nvalues_file,v.csv\nmask_file,mask.csv\n")
        (tmp_path / "mask.csv").write_text("1,1\n")
        (tmp_path / "v.csv").write_text("1,2\n" * 6 + "1,inf\n" + "1,2\n" * 2)
        monkeypatch.setattr(series, "CHUNK_CHARS", 9)
        opened = self.record_opens(monkeypatch)
        with pytest.raises(NonFiniteValue, match="v.csv: row 7, column 1: 'inf'$"):
            load_grid(str(path))
        assert opened == ["m.csv", "mask.csv", "v.csv"]

    def test_bad_mask_is_reported_before_the_values_are_opened(self, tmp_path, monkeypatch):
        path = tmp_path / "m.csv"
        path.write_text("n_lat,1\nn_lon,2\nn_time,3\ndt,1.0\nvalues_file,v.csv\nmask_file,mask.csv\n")
        (tmp_path / "mask.csv").write_text("1,2\n")
        (tmp_path / "v.csv").write_text("abc,1\n1\n")
        opened = self.record_opens(monkeypatch)
        with pytest.raises(GridFormatError, match="mask row 1: flag '2' is not 0 or 1$"):
            load_grid(str(path))
        assert opened == ["m.csv", "mask.csv"]

    def test_parse_with_ranges_forced(self, tmp_path, monkeypatch):
        monkeypatch.setattr(series, "SPLIT_BYTES", 1 << 16)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        self.test_parse_holds_one_copy_of_the_grid(tmp_path)
        assert_no_child_left()

    def test_cut_before_every_line_matches_one_range(self, tmp_path, monkeypatch):
        # CRLF line ends, '#' lines and NaN in the masked cell
        mask = np.ones((3, 4), dtype=bool)
        mask[1, 2] = False
        values = np.random.default_rng(5).standard_normal((12, 3, 4))
        values[:, 1, 2] = np.nan
        manifest = write_grid(GridField(values=values, dt=DT, mask=mask), tmp_path, "g")
        values_file = tmp_path / "g_values.csv"
        lines = values_file.read_text().splitlines()
        lines[5:5] = ["# mid-file comment", ""]
        values_file.write_bytes(("\r\n".join(lines) + "\r\n# end\r\n").encode())
        forked = split_before_every_line(monkeypatch, str(values_file))
        assert load_grid(manifest).values.tobytes() == values.tobytes()
        assert len(forked) == len(lines)  # a range for each line after the first
        assert_no_child_left()

    @pytest.mark.parametrize(
        "n_time, rows, found",
        [
            (3, "1,2,3,4\n" * 5, 5),
            (3, '1,2,3,4\n"1",2,3,4\n' + "1,2,3,4\n" * 3, 5),
            (10**15, "1,2,3,4\n" * 5, 5),
        ],
        ids=["too-many", "too-many-scanned", "beyond-file"],
    )
    def test_row_count_with_cuts(self, tmp_path, monkeypatch, n_time, rows, found):
        path = tmp_path / "m.csv"
        path.write_text(f"n_lat,2\nn_lon,2\nn_time,{n_time}\ndt,1.0\nvalues_file,v.csv\n")
        (tmp_path / "v.csv").write_text(rows)
        split_before_every_line(monkeypatch, str(tmp_path / "v.csv"))
        with pytest.raises(GridFormatError, match=f"expected {n_time} rows, found {found}$"):
            load_grid(str(path))
        assert_no_child_left()

    @pytest.mark.parametrize(
        "bad, error, message",
        [("9,x,9,9", NonFiniteValue, "row 6, column 1: 'x'"),
         ("9,9,9", LengthMismatch, "row 6: expected 4 columns, found 3")],
        ids=["non-numeric", "short-row"],
    )
    def test_bad_value_row_named_with_cuts(self, tmp_path, monkeypatch, bad, error, message):
        path = tmp_path / "m.csv"
        path.write_text("n_lat,2\nn_lon,2\nn_time,8\ndt,1.0\nvalues_file,v.csv\n")
        rows = ["1,2,3,4"] * 8
        rows[5] = bad
        rows.insert(2, "# comment")
        (tmp_path / "v.csv").write_text("\n".join(rows) + "\n")
        split_before_every_line(monkeypatch, str(tmp_path / "v.csv"))
        with pytest.raises(error, match=f"v.csv: {message}$") as exc:
            load_grid(str(path))
        assert exc.value.row == 6
        assert_no_child_left()

    def test_grid_invariants(self):
        with pytest.raises(ValueError):
            GridField(values=np.zeros((2, 2, 2)), dt=1.0, mask=np.ones((2, 2), bool))
        values = np.zeros((5, 2, 2))
        values[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            GridField(values=values, dt=1.0, mask=np.ones((2, 2), bool))
        # a masked non-finite cell is acceptable
        mask = np.ones((2, 2), bool)
        mask[0, 0] = False
        GridField(values=values, dt=1.0, mask=mask)
