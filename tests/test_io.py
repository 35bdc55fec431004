"""Serialization helpers: value formatting, digests, manifests."""

import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomol import io
from atomol.io import (
    _PARSERS,
    SCHEMA,
    Coded,
    ConfigError,
    build_manifest,
    config_digest,
    default_config,
    format_value,
    load_manifest,
    write_json,
    write_table,
)
from atomol.regimes import RegimeLabel, RegimeMap
from oracles import (CELL_HEADER, cell_rows, write_cells, write_csv_rows,
                     write_json_rows)


def test_every_schema_type_has_a_parser():
    # the dataclass sections take their type names from annotations
    for section, keys in SCHEMA.items():
        for key, (type_name, default) in keys.items():
            assert type_name in _PARSERS, (section, key)
            assert _PARSERS[type_name](default) == default, (section, key)


class TestFormatValue:
    def test_shortest_round_trip_floats(self):
        for x in (0.1, 1.0 / 3.0, 1e-11, -2.5e300, 0.0):
            text = format_value(x)
            assert float(text) == x
            assert text == repr(x)

    def test_numpy_scalars_format_as_plain_floats(self):
        x = np.float64(0.010279860182236639)
        assert format_value(x) == "0.010279860182236639"
        assert format_value(np.sqrt(np.float64(2.0))) == repr(float(np.sqrt(2.0)))

    def test_bools_and_ints(self):
        assert format_value(True) == "true"
        assert format_value(False) == "false"
        assert format_value(7) == "7"


class _Float(float):
    """A float subclass: format_value's text, not its own repr."""

    def __repr__(self):
        return "_Float"


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
# a column's values: one exact type, or a mix of the types the CLI and
# numpy hand the writer
_COLUMN_VALUES = [
    _FLOATS, st.integers(), st.booleans(),
    st.text(alphabet="abc xyz-_.", max_size=6),
    st.one_of(_FLOATS, st.none(), st.builds(np.float64, _FLOATS),
              st.builds(np.float32, st.floats(width=32)),
              st.builds(_Float, _FLOATS), st.booleans(), st.integers(),
              st.builds(np.int64, st.integers(-2 ** 63, 2 ** 63 - 1))),
]


def _equal_value(v):
    """A value equal to v that may format differently (1.0 for 1)."""
    if isinstance(v, (int, np.integer)):
        return float(v)
    return np.float64(v) if isinstance(v, float) else v


@st.composite
def tables(draw):
    """(header, columns, rows): 1-4 named columns, each plain or coded,
    and the same table as one list per row.  A coded column's values hold
    equal values of other types besides the drawn ones, and its codes
    are a list or an array, or the codes object of the coded column
    before it, with as many values (which write_table fuses where the
    two are adjacent) or more."""
    n_rows = draw(st.integers(0, 12))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        values = draw(st.sampled_from(_COLUMN_VALUES))
        if draw(st.booleans()):
            coded = [col for col in columns if isinstance(col, Coded)]
            if coded and draw(st.booleans()):
                codes = coded[-1].codes
                n = draw(st.integers(len(coded[-1].values) // 2, 4))
                distinct = draw(st.lists(values, min_size=n, max_size=n))
            else:
                distinct = draw(st.lists(values, min_size=1, max_size=4))
                size = 2 * len(distinct)
                codes = draw(st.lists(st.integers(-size, size - 1),
                                      min_size=n_rows, max_size=n_rows))
                if draw(st.booleans()):
                    codes = np.array(codes, dtype=np.int64)
            distinct += [_equal_value(v) for v in distinct]
            columns.append(Coded(distinct, codes))
        else:
            columns.append(draw(st.lists(values, min_size=n_rows,
                                         max_size=n_rows)))
    # names in any order, some needing json escapes
    header = draw(st.lists(st.text(alphabet='abz"\\é', min_size=1, max_size=3),
                           unique=True, min_size=len(columns),
                           max_size=len(columns)))
    full = [[col.values[k] for k in col.codes] if isinstance(col, Coded)
            else col for col in columns]
    return header, columns, [list(row) for row in zip(*full)]


class TestWriteTable:
    def test_exact_bytes(self, tmp_path):
        write_table(tmp_path, "t", ["a", "b"], [[1.5, 0.1], [True, False]],
                    "csv")
        assert (tmp_path / "t.csv").read_text() == "a,b\n1.5,true\n0.1,false\n"

    def test_every_value_type_formats_as_format_value(self, tmp_path):
        # plain floats take a direct repr path; numpy scalars (a float
        # subclass among them), bools, ints and strings must still read
        # as format_value gives them
        row = [0.1, -0.0, 1e-300, np.float64(1.0 / 3.0), np.float32(0.1),
               np.int64(7), True, False, 3, "none", math.inf, math.nan]
        out = write_table(tmp_path, "t", [f"x{k}" for k in range(len(row))],
                          [[v] for v in row], "csv")
        assert out.read_text().splitlines()[1] == ",".join(
            format_value(v) for v in row)
        assert out.read_text().splitlines()[1].split(",")[:4] == [
            "0.1", "-0.0", "1e-300", "0.3333333333333333"]

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(table=tables(), block=st.sampled_from([1, 5, 4096]))
    def test_bytes_are_the_row_writers(self, tmp_path_factory, table, block):
        # per-column formatting, once per coded value, across block
        # edges, gives the bytes of the row-by-row oracles
        header, columns, rows = table
        tmp = tmp_path_factory.mktemp("table")
        for fmt, oracle in (("csv", write_csv_rows), ("json", write_json_rows)):
            with mock.patch.object(io, "_BLOCK", block):
                try:
                    oracle(tmp / f"rows.{fmt}", header, rows)
                    if fmt == "json":  # coded values no row uses are formatted too
                        json.dumps([col.values for col in columns
                                    if isinstance(col, Coded)])
                except TypeError:  # json takes no numpy int or float32
                    with pytest.raises(TypeError):
                        write_table(tmp, "columns", header, columns, fmt)
                    continue
                out = write_table(tmp, "columns", header, columns, fmt)
            assert out.read_bytes() == (tmp / f"rows.{fmt}").read_bytes()

    @pytest.mark.parametrize("fmt, text", [("csv", "a,b\n"), ("json", "[]\n")])
    def test_zero_rows_write_what_no_records_do(self, tmp_path, fmt, text):
        for columns in ([[], []], [Coded([1.0], []), ()]):
            assert write_table(tmp_path, "t", ["a", "b"], columns,
                               fmt).read_text() == text

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("block", [1, 4096])
    def test_ragged_columns_raise_before_writing(self, tmp_path, fmt, block):
        with mock.patch.object(io, "_BLOCK", block):
            for columns in ([[1.0, 2.0], [3.0]], [[1.0], [2.0, 3.0]],
                            [Coded([1.0], [0, 0]), [3.0]], [[1.0, 2.0]],
                            [[1.0], [2.0], [3.0]]):
                with pytest.raises(ValueError, match="columns for 2 names"):
                    write_table(tmp_path, "t", ["a", "b"], columns, fmt)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("block", [1, 4096])
    def test_unencodable_json_value_leaves_no_file(self, tmp_path, block):
        # json.dumps takes no numpy int; the error comes once the file
        # is open, after the rows of the blocks before it are written
        with mock.patch.object(io, "_BLOCK", block):
            with pytest.raises(TypeError):
                write_table(tmp_path, "t", ["a"], [[1, 2, np.int64(3)]],
                            "json")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_format_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown output format"):
            write_table(tmp_path, "t", ["x"], [Coded([0.0], [0])], "xml")
        assert list(tmp_path.iterdir()) == []


# -0.0, subnormals, huge magnitudes, infinities and NaN among the axes
AXIS_VALUES = st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308,
                               1.7976931348623157e308, -1e300, math.inf,
                               math.nan]) | st.floats()


@st.composite
def regime_maps(draw):
    """Maps of any shape whose cells draw codes from a table of a few
    labels, each also present as distinct but equal entries: one with the
    same values, one with a float n_interior, which formats differently."""
    nc, nr = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    distinct = draw(st.lists(st.builds(
        RegimeLabel, st.sampled_from(["I", "II", "III", "IV", "boundary",
                                      "none"]),
        st.integers(0, 3), st.booleans()), min_size=1, max_size=4))
    pool = distinct + [dataclasses.replace(lab) for lab in distinct] + [
        dataclasses.replace(lab, n_interior=float(lab.n_interior))
        for lab in distinct]
    codes = draw(st.lists(st.integers(0, len(pool) - 1), min_size=nc * nr,
                          max_size=nc * nr))
    axes = [np.array(draw(st.lists(AXIS_VALUES, min_size=n, max_size=n)))
            for n in (nc, nr)]
    return RegimeMap(*axes, codes=np.reshape(codes, (nc, nr)),
                     table=tuple(pool), omega=1.0, gamma=0.0)


class TestWriteCells:
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(rmap=regime_maps())
    def test_bytes_are_the_row_writers(self, tmp_path_factory, rmap):
        # one text per axis value and table entry gives the bytes of
        # the row-by-row oracles on one row per cell
        tmp = tmp_path_factory.mktemp("cells")
        rows = cell_rows(rmap)
        write_csv_rows(tmp / "rows.csv", CELL_HEADER, rows)
        write_json_rows(tmp / "rows.json", CELL_HEADER, rows)
        for fmt in ("csv", "json"):
            out = write_cells(tmp, rmap, fmt)
            assert out == tmp / f"cells.{fmt}"
            assert out.read_bytes() == (tmp / f"rows.{fmt}").read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_an_empty_grid_writes_what_no_rows_do(self, tmp_path, fmt):
        rmap = RegimeMap(np.zeros(0), np.zeros(0), np.zeros((0, 0), dtype=int),
                         (), 1.0, 0.0)
        write_table(tmp_path, "rows", CELL_HEADER, [[]] * len(CELL_HEADER), fmt)
        assert (write_cells(tmp_path, rmap, fmt).read_bytes()
                == (tmp_path / f"rows.{fmt}").read_bytes())

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_bad_grid_raises_before_writing(self, tmp_path, fmt):
        table = (RegimeLabel("I", 1, False),)
        for c_axis, shape in (([0.0, 1.0], (1, 2)), ([0.0], (1, 1)),
                              ([0.0, 1.0], (2, 1))):
            rmap = RegimeMap(np.array(c_axis), np.array([0.5, 1.5]),
                             np.zeros(shape, dtype=int), table, 1.0, 0.0)
            with pytest.raises(ValueError):
                write_cells(tmp_path, rmap, fmt)
        assert list(tmp_path.iterdir()) == []


class TestManifest:
    def test_digest_ignores_timestamps(self):
        params = default_config()
        m1 = build_manifest("evolve", params, {"omega": 1.0}, ["x.csv"])
        m2 = build_manifest("evolve", params, {"omega": 1.0}, ["x.csv"])
        assert m1["config_digest"] == m2["config_digest"]
        assert m1["config_digest"] == config_digest("evolve", params)

    def test_digest_tracks_parameters(self):
        params = default_config()
        changed = dict(params)
        changed["model.u"] = 2.0
        assert config_digest("evolve", params) != config_digest("evolve", changed)

    def test_round_trip(self, tmp_path):
        params = default_config()
        manifest = build_manifest("trap", params, {"gamma_plus": 0.0}, [])
        path = tmp_path / "manifest.json"
        write_json(path, manifest)
        loaded = load_manifest(path)
        assert loaded["parameters"] == params
        assert loaded["command"] == "trap"

    def test_json_is_sorted_and_newline_terminated(self, tmp_path):
        path = tmp_path / "x.json"
        write_json(path, {"b": 1, "a": 2})
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == {"a": 2, "b": 1}
        assert text.index('"a"') < text.index('"b"')

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(Exception):
            load_manifest(path)
