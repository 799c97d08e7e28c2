import json
import struct
import tempfile
import tracemalloc
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcrash.archive import BLOCK_RECORDS, read_graphs, sidecar_path, write_graphs
from flagcrash.cli import main
from flagcrash.corrnet import EDGE_DTYPE, WeightedDigraph, WindowSeries, correlation_series
from flagcrash.errors import DataError
from flagcrash.ingest import (
    PriceTable,
    ReturnMatrix,
    read_returns_csv,
    serialize_price_csv,
    write_returns_csv,
)
from flagcrash.tables import (
    BLOCK_CELLS,
    parse_day,
    read_feature_csv,
    read_scores_csv,
    write_feature_csv,
    write_scores_csv,
)

from oracles import (
    _reference_read_graphs,
    random_graph_sequence,
    reference_read_series,
    reference_write_graphs,
    series_of,
)


def read_or_message(read, path):
    """`read(path)`, or the message of the DataError it raises."""
    try:
        return read(path)
    except DataError as exc:
        return str(exc)


def small_series(kind):
    """The 6-window, 4-ticker correlation series of a seeded random panel."""
    rng = np.random.default_rng(5)
    dates = [date(2020, 1, 1) + timedelta(days=i) for i in range(30)]
    returns = ReturnMatrix(dates, ["a", "b", "c", "d"], rng.normal(size=(30, 4)))
    return correlation_series(returns, width=25, kind=kind)


class TestGraphArchive:
    def test_roundtrip_preserves_everything(self, tmp_path):
        graphs = random_graph_sequence(3, 7, 12)
        for g in graphs:  # an archive holds one vertex count
            g.n_vertices = 12
        path = tmp_path / "graphs.bin"
        write_graphs(path, series_of(graphs), {"window": 25, "correlation": "ccm"})
        records, params = _reference_read_graphs(path)
        assert params == {"window": 25, "correlation": "ccm"}
        assert [(r.as_of_date, r.n_vertices) for r in records] == [
            (g.as_of_date, 12) for g in graphs
        ]
        # random digraphs list edges row-major
        assert [r.edges.tolist() for r in records] == [g.edges for g in graphs]
        back = read_graphs(path)
        assert (back.dates, back.kind, back.tickers) == ([g.as_of_date for g in graphs], "ccm", None)
        assert back.weights.tobytes() == series_of(graphs).weights.tobytes()

    @pytest.mark.parametrize("kind", ["pearson", "ccm"])
    def test_series_reads_back_bitwise(self, tmp_path, kind):
        series = small_series(kind)
        path = tmp_path / "graphs.bin"
        params = {"correlation": kind, "tickers": series.tickers}
        write_graphs(path, series, params)
        back = read_graphs(path)
        assert back.weights.tobytes() == series.weights.tobytes()
        assert (back.dates, back.kind, back.tickers) == (series.dates, kind, series.tickers)
        # the series' nonzero entries are the records' edges, in record order
        records, _ = _reference_read_graphs(path)
        assert [len(r.edges) for r in records] == np.count_nonzero(
            series.weights, axis=(1, 2)
        ).tolist()
        assert [(s, t) for r in records for s, t, _ in r.edges.tolist()] == [
            (s, t) for w in series.weights for s, t in zip(*np.nonzero(w))
        ]

    def test_empty_graph_list(self, tmp_path):
        path = tmp_path / "empty.bin"
        write_graphs(path, WindowSeries(np.zeros((0, 3, 3)), [], "ccm"), {})
        assert path.read_bytes() == struct.pack("<4sIQ", b"FCGR", 1, 0)
        assert _reference_read_graphs(path) == ([], {})
        # no stage can use a series without windows
        with pytest.raises(DataError, match=f"{path}: archive holds no graphs"):
            read_graphs(path)

    def test_read_holds_a_block_of_edges_not_the_file(self, tmp_path):
        # 1000 dense 20-vertex windows span many check blocks; the reader
        # peaks at the array plus one block's edges and their check, far
        # below the array plus the file's edges (the whole-file edge array
        # alone broke this bound by 2x)
        rng = np.random.default_rng(1)
        weights = rng.uniform(0.01, 1.0, (1000, 20, 20))
        weights[:, np.eye(20, dtype=bool)] = 0.0
        dates = [date(2001, 1, 1) + timedelta(days=i) for i in range(1000)]
        path = tmp_path / "graphs.bin"
        write_graphs(path, WindowSeries(weights, dates, "ccm"), {"correlation": "ccm"})
        edge_bytes = EDGE_DTYPE.itemsize * np.count_nonzero(weights)
        assert len(dates) >= 8 * BLOCK_RECORDS
        tracemalloc.start()
        try:
            back = read_graphs(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.weights.tobytes() == weights.tobytes()
        assert peak < weights.nbytes + edge_bytes / 2

    def test_write_holds_a_block_of_records_not_the_series(self, tmp_path):
        # 1000 dense 39-vertex windows, as a market-scale CCM series has:
        # the writer peaks at one block's indices, edges and record bytes,
        # far below the three index arrays of one nonzero over the series
        rng = np.random.default_rng(2)
        weights = rng.uniform(0.01, 1.0, (1000, 39, 39))
        weights[:, np.eye(39, dtype=bool)] = 0.0
        dates = [date(2001, 1, 1) + timedelta(days=i) for i in range(1000)]
        series = WindowSeries(weights, dates, "ccm")
        whole_series_indices = 3 * np.dtype(np.intp).itemsize * np.count_nonzero(weights)
        tracemalloc.start()
        try:
            write_graphs(tmp_path / "graphs.bin", series, {"correlation": "ccm"})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < whole_series_indices / 4
        assert read_graphs(tmp_path / "graphs.bin").weights.tobytes() == weights.tobytes()

    def test_sidecar_written(self, tmp_path):
        path = tmp_path / "g.bin"
        write_graphs(path, WindowSeries(np.zeros((0, 3, 3)), [], "ccm"), {"k": 1})
        assert sidecar_path(path).exists()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataError, match="magic"):
            read_graphs(path)

    def test_truncated_rejected(self, tmp_path):
        graphs = [
            WeightedDigraph(3, [(0, 1, 0.5), (1, 2, 0.25)], date(2020, 1, 2))
        ]
        path = tmp_path / "t.bin"
        write_graphs(path, series_of(graphs), {})
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(DataError, match="truncated"):
            read_graphs(path)

    @pytest.mark.parametrize(
        "days, params, message",
        [
            ((1, 2), {"tickers": ["a", "b"]}, "tickers"),
            ((1, 2), {"tickers": "abc"}, "tickers"),
            ((1, 2, 2), {}, "dates do not increase, at 2020-01-02"),
            ((1, 3, 2), {}, "dates do not increase, at 2020-01-02"),
        ],
        ids=["short-tickers", "tickers-not-list", "repeated-date", "decreasing-date"],
    )
    def test_bad_archive_writes_no_file(self, tmp_path, days, params, message):
        weights = np.zeros((len(days), 3, 3))
        weights[:, 0, 1] = 0.5
        series = WindowSeries(weights, [date(2020, 1, day) for day in days], "ccm")
        path = tmp_path / "x.bin"
        with pytest.raises(DataError, match=message):
            write_graphs(path, series, params)
        assert list(tmp_path.iterdir()) == []


def fcgr_bytes(records):
    """A hand-written FCGR v1 archive of (date text, n_vertices, edges) records."""
    out = struct.pack("<4sIQ", b"FCGR", 1, len(records))
    for day, n, edges in records:
        out += struct.pack("<10sIQ", day.encode("ascii"), n, len(edges))
        out += b"".join(struct.pack("<IId", s, t, w) for s, t, w in edges)
    return out


GOOD = ("2020-01-02", 3, [(0, 1, 0.5), (1, 2, 0.25)])

CORRUPT = {
    "vertex-index": [("2020-01-02", 3, [(0, 7, 0.5)])],
    "self-loop": [("2020-01-02", 3, [(1, 1, 0.5)])],
    "duplicate-edge": [("2020-01-02", 3, [(0, 1, 0.5), (0, 1, 0.25)])],
    "nan-weight": [("2020-01-02", 3, [(0, 1, float("nan"))])],
    "inf-weight": [("2020-01-02", 3, [(0, 1, float("inf"))])],
    "zero-weight": [("2020-01-02", 3, [(0, 1, 0.0)])],
    "negative-weight": [("2020-01-02", 3, [(0, 1, -0.5)])],
    "repeated-date": [GOOD, GOOD],
    "decreasing-date": [GOOD, ("2020-01-01", 3, [])],
    "bad-date": [("2020-13-45", 3, [])],
    # strptime reads "2020-01- 9" as 2020-01-09; a record date must be written as isoformat
    "space-in-date": [GOOD, ("2020-01- 9", 3, [])],
    # date.fromisoformat reads both as 2020-01-09, in forms isoformat never writes
    "week-date": [GOOD, ("2020-W02-4", 3, [])],
    "basic-date": [GOOD, ("20200109  ", 3, [])],
    "mixed-vertex-count": [GOOD, ("2020-01-03", 4, []), ("2020-01-06", 3, [])],
    "too-many-vertices": [("2020-01-02", 2**31, [])],
    # faults in two windows, each with two kinds of fault
    "two-windows": [
        GOOD,
        ("2020-01-03", 3, [(0, 1, 0.5), (2, 1, -1.0), (0, 1, float("nan"))]),
        ("2020-01-06", 3, [(1, 1, 0.5), (0, 9, 0.5)]),
    ],
}


class TestArchiveValidation:
    def test_hand_written_archive_reads_back(self, tmp_path):
        path = tmp_path / "g.bin"
        path.write_bytes(fcgr_bytes([GOOD, ("2020-01-03", 3, [])]))
        records, params = _reference_read_graphs(path)
        assert ([r.n_vertices for r in records], [len(r.edges) for r in records]) == ([3, 3], [2, 0])
        assert params == {} and records[0].edges.dtype == EDGE_DTYPE
        assert records[0].edges.tolist() == [(0, 1, 0.5), (1, 2, 0.25)]
        series = read_graphs(path)
        assert series.dates == [date(2020, 1, 2), date(2020, 1, 3)]
        assert series.weights.shape == (2, 3, 3)
        assert series.kind == "ccm" and series.tickers is None
        assert np.array_equal(series.weights[0], [[0, 0.5, 0], [0, 0, 0.25], [0, 0, 0]])
        assert not series.weights[1].any()

    def test_edge_blocks_hold_the_same_edges(self, tmp_path):
        # a hand-written record may list its edges in any order
        path = tmp_path / "g.bin"
        edges = [(2, 0, 0.75), (1, 2, 0.25), (0, 1, 0.5)]
        path.write_bytes(fcgr_bytes([("2020-01-02", 3, edges)]))
        ((record,), _) = _reference_read_graphs(path)
        assert record.edges.dtype == EDGE_DTYPE and record.edges.tolist() == edges
        (w,) = read_graphs(path).weights
        assert [(s, t, w[s, t]) for s, t, _ in edges] == edges
        assert np.count_nonzero(w) == len(edges)
        assert w.tobytes() == reference_read_series(path).weights.tobytes()

    def test_writer_matches_hand_written_layout(self, tmp_path):
        graphs = [WeightedDigraph(3, [(0, 1, 0.5), (1, 2, 0.25)], date(2020, 1, 2))]
        write_graphs(tmp_path / "g.bin", series_of(graphs), {})
        assert (tmp_path / "g.bin").read_bytes() == fcgr_bytes([GOOD])

    @pytest.mark.parametrize("name", sorted(CORRUPT))
    def test_corrupt_record_rejected(self, tmp_path, name):
        # each archive fails with the message of the first window and fault
        # that the reference reader names
        path = tmp_path / "g.bin"
        path.write_bytes(fcgr_bytes(CORRUPT[name]))
        with pytest.raises(DataError) as err:
            read_graphs(path)
        assert str(err.value) == read_or_message(reference_read_series, path)

    def test_edge_count_beyond_file_rejected(self, tmp_path):
        path = tmp_path / "g.bin"
        data = bytearray(fcgr_bytes([GOOD]))
        struct.pack_into("<Q", data, 16 + 14, 2**63)
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match="truncated"):
            read_graphs(path)

    def test_bad_sidecar_rejected(self, tmp_path):
        path = tmp_path / "g.bin"
        path.write_bytes(fcgr_bytes([GOOD]))
        sidecar_path(path).write_text("{not json")
        with pytest.raises(DataError, match="sidecar"):
            read_graphs(path)

    def test_non_object_sidecar_rejected(self, tmp_path):
        path = tmp_path / "g.bin"
        path.write_bytes(fcgr_bytes([GOOD]))
        sidecar_path(path).write_text("[1, 2]")
        with pytest.raises(DataError, match="not a JSON object"):
            read_graphs(path)

    @pytest.mark.parametrize("tickers", [["a", "b"], "abc"], ids=["short", "not-list"])
    def test_sidecar_tickers_must_match_vertex_count(self, tmp_path, tickers):
        path = tmp_path / "g.bin"
        path.write_bytes(fcgr_bytes([GOOD]))
        sidecar_path(path).write_text(json.dumps({"tickers": tickers}))
        with pytest.raises(DataError, match="tickers"):
            read_graphs(path)

    @pytest.mark.parametrize("kind", ["Pearson", "CCM", 5, None, ["ccm"]])
    def test_sidecar_correlation_must_be_a_known_kind(self, tmp_path, kind):
        # any other kind would be taken for CCM's asymmetric windows
        path = tmp_path / "g.bin"
        path.write_bytes(fcgr_bytes([GOOD]))
        sidecar_path(path).write_text(json.dumps({"correlation": kind}))
        with pytest.raises(DataError) as err:
            read_graphs(path)
        assert str(err.value) == read_or_message(reference_read_series, path)
        assert str(err.value).startswith(f"{sidecar_path(path)}: correlation is {kind!r}")
        out = tmp_path / "out.csv"
        assert main(["pca", "--dim", "raw", "--graphs", str(path), "--out", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize(
        "params, kind",
        [(None, "ccm"), ({}, "ccm"), ({"correlation": "ccm"}, "ccm"),
         ({"correlation": "pearson"}, "pearson")],
        ids=["no-sidecar", "absent", "ccm", "pearson"],
    )
    def test_sidecar_correlation_gives_the_kind(self, tmp_path, params, kind):
        path = tmp_path / "g.bin"
        path.write_bytes(fcgr_bytes([GOOD]))
        if params is not None:
            sidecar_path(path).write_text(json.dumps(params))
        assert read_graphs(path).kind == reference_read_series(path).kind == kind

    @pytest.mark.parametrize("name", ["vertex-index", "nan-weight", "mixed-vertex-count"])
    @pytest.mark.parametrize(
        "command",
        [
            ["pca", "--dim", "raw"],
            ["tda"],
            ["gnn", "--model", "ocgin", "--epochs", "1"],
        ],
        ids=["pca", "tda", "gnn"],
    )
    def test_cli_exits_3_on_corrupt_archive(self, tmp_path, name, command):
        path = tmp_path / "g.bin"
        path.write_bytes(fcgr_bytes(CORRUPT[name]))
        out = tmp_path / "out.csv"
        assert main(command + ["--graphs", str(path), "--out", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("name", sorted(CORRUPT))
    def test_tda_exits_3_on_every_corrupt_archive(self, tmp_path, name):
        path = tmp_path / "g.bin"
        path.write_bytes(fcgr_bytes(CORRUPT[name]))
        out = tmp_path / "out.csv"
        assert main(["tda", "--graphs", str(path), "--out", str(out)]) == 3
        assert not out.exists()


VALID = small_series("ccm")


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["pearson", "ccm"]),
    st.one_of(  # single records, and counts about the writer's block of records
        st.integers(1, 7),
        st.sampled_from([BLOCK_RECORDS - 1, BLOCK_RECORDS, 2 * BLOCK_RECORDS + 1]),
    ),
    st.integers(1, 6),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_archive_bytes_and_arrays_match_the_reference(kind, count, n, density, seed):
    """Random series, some of their windows edgeless, are written to the
    reference writer's bytes and read back bitwise."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.0, 1.0, (count, n, n))
    weights[rng.random((count, n, n)) >= density] = 0.0
    weights[:, np.eye(n, dtype=bool)] = 0.0
    if kind == "pearson":
        weights[:, np.tri(n, dtype=bool)] = 0.0
    weights[rng.random(count) < 0.3] = 0.0
    gaps = np.cumsum(rng.integers(1, 4, count)).tolist()
    dates = [date(2021, 3, 1) + timedelta(days=gap) for gap in gaps]
    series = WindowSeries(weights, dates, kind, [f"t{i}" for i in range(n)])
    params = {"correlation": kind, "tickers": series.tickers}
    with tempfile.TemporaryDirectory() as tmp:
        path, ref = Path(tmp) / "graphs.bin", Path(tmp) / "reference.bin"
        write_graphs(path, series, params)
        reference_write_graphs(ref, series, params)
        assert path.read_bytes() == ref.read_bytes()
        assert sidecar_path(path).read_bytes() == sidecar_path(ref).read_bytes()
        back = read_graphs(path)
        assert back.weights.tobytes() == weights.tobytes()
        assert (back.dates, back.kind, back.tickers) == (dates, kind, series.tickers)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_damaged_archive_loads_or_raises_data_error(data):
    """A truncated archive, or one with flipped bytes, beside its intact
    sidecar either loads into the reference reader's array or raises
    DataError with its message, and the CLI then exits 3."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graphs.bin"
        write_graphs(path, VALID, {"correlation": "ccm", "tickers": VALID.tickers})
        blob = bytearray(path.read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            flips = st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255))
            for at, mask in data.draw(st.lists(flips, min_size=1, max_size=8), label="flips"):
                blob[at] ^= mask
        path.write_bytes(bytes(blob))
        expected = read_or_message(reference_read_series, path)
        try:
            back = read_graphs(path)
        except DataError as exc:
            assert str(exc) == expected
            out = Path(tmp) / "out.csv"
            assert main(["pca", "--graphs", str(path), "--out", str(out)]) == 3
            assert not out.exists()
        else:
            assert back.weights.tobytes() == expected.weights.tobytes()
            assert (back.dates, back.kind, back.tickers) == (
                expected.dates, expected.kind, expected.tickers
            )


class TestFeatureTables:
    def test_feature_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        dates = [date(2020, 1, 2), date(2020, 1, 3)]
        values = rng.normal(size=(2, 4))
        path = tmp_path / "f.csv"
        write_feature_csv(path, dates, ["a", "b", "c", "d"], values)
        rdates, cols, rvalues = read_feature_csv(path)
        assert rdates == dates and cols == ["a", "b", "c", "d"]
        assert np.array_equal(rvalues, values)  # repr round-trips exactly

    def test_scores_roundtrip(self, tmp_path):
        dates = [date(2020, 1, 2), date(2020, 1, 3), date(2020, 1, 6)]
        scores = np.array([0.1, 2.5, -1.0])
        path = tmp_path / "s.csv"
        write_scores_csv(path, dates, scores)
        rdates, rscores = read_scores_csv(path)
        assert rdates == dates
        assert np.array_equal(rscores, scores)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    def test_bytes_equal_per_value_formatter(self, tmp_path, dtype):
        values = np.array(
            [[-0.0, 5e-324, 1e16], [1e-5, 0.1 + 0.2, 2.0**53], [-1.5, 7.0, 1e300]]
        )
        if dtype is not np.float64:
            values = np.round(values * 1e3).clip(-1e6, 1e6).astype(dtype)
        dates = [date(2020, 1, 2), date(2020, 1, 3), date(2020, 1, 6)]
        path = tmp_path / "f.csv"
        write_feature_csv(path, dates, ["a", "b", "c"], values)
        as_float = np.asarray(values, dtype=np.float64)
        expected = "date,a,b,c\n" + "".join(
            d.isoformat() + "," + ",".join(repr(float(v)) for v in row) + "\n"
            for d, row in zip(dates, as_float)
        )
        assert path.read_bytes() == expected.encode("utf-8")

    def test_shape_mismatch_rejected(self, tmp_path):
        with pytest.raises(DataError):
            write_feature_csv(
                tmp_path / "bad.csv", [date(2020, 1, 2)], ["a"], np.zeros((2, 1))
            )

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("date,score\n2020-01-02,nan\n")
        with pytest.raises(DataError, match="finite"):
            read_scores_csv(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_never_written(self, tmp_path, bad):
        path = tmp_path / "nan.csv"
        with pytest.raises(DataError, match="non-finite"):
            write_scores_csv(path, [date(2020, 1, 2), date(2020, 1, 3)], [0.5, bad])
        assert not path.exists()


def write_table(path, rows):
    path.write_text("date,a\n" + "".join(f"{row}\n" for row in rows))
    return path


class TestFeatureDates:
    """Dates parse exactly as `datetime.strptime(text, "%Y-%m-%d")` does,
    also when the same text was parsed before in the process."""

    @pytest.mark.parametrize("bad", ["2010-02-30", "2010/01/05"])
    def test_bad_date_rejected_on_its_line(self, tmp_path, bad):
        good = write_table(tmp_path / "good.csv", ["2010-01-04,1.0", "2010-01-05,2.0"])
        table = write_table(tmp_path / "bad.csv", ["2010-01-04,1.0", f"{bad},2.0"])
        for _ in range(2):
            read_feature_csv(good)
            with pytest.raises(DataError, match=f"line 3: bad date '{bad}'"):
                read_feature_csv(table)

    def test_accepts_what_strptime_accepts(self, tmp_path):
        # dates must increase, so the unpadded and the padded text are two days
        rows = ["2010-1-5,1.0", "2010-01-06,2.0", "2010-1-07,3.0"]
        path = write_table(tmp_path / "f.csv", rows)
        for _ in range(2):
            dates, _, _ = read_feature_csv(path)
            assert dates == [date(2010, 1, 5), date(2010, 1, 6), date(2010, 1, 7)]

    @pytest.mark.parametrize(
        "text", ["2020-1-9", "2020-01- 9", "20200109", "2020-W02-4", "2020-02-30", "2020-01-09"]
    )
    def test_parse_day_reads_as_strptime(self, text):
        # a canonical date skips strptime; every other spelling keeps its
        # date or its message
        try:
            expected = datetime.strptime(text, "%Y-%m-%d").date()
        except ValueError:
            with pytest.raises(ValueError, match=f"^bad date '{text}', want YYYY-MM-DD$"):
                parse_day(text)
        else:
            assert parse_day(text) == expected

    @pytest.mark.parametrize("second", ["2010-01-05", "2010-1-5", "2010-01-04"])
    def test_dates_must_increase(self, tmp_path, second):
        path = write_table(tmp_path / "f.csv", ["2010-01-05,1.0", f"{second},2.0"])
        with pytest.raises(DataError, match=r"f\.csv line 3: dates do not increase, 2010-01-0"):
            read_feature_csv(path)

    @pytest.mark.parametrize(
        "row, message",
        [("2010-01-05,1.0,2.0", "line 3: column count"), ("2010-01-05,inf", "finite")],
        ids=["column-count", "non-finite"],
    )
    def test_rows_still_checked(self, tmp_path, row, message):
        path = write_table(tmp_path / "f.csv", ["2010-01-04,1.0", row])
        read_feature_csv(write_table(tmp_path / "ok.csv", ["2010-01-05,1.0"]))
        with pytest.raises(DataError, match=message):
            read_feature_csv(path)


def test_table_writers_bytes(tmp_path):
    """Each writer's bytes: shortest round-trip repr for prices and features,
    12 significant digits for returns, an empty cell for a missing price."""
    dates = [date(2010, 1, 4), date(2010, 1, 5)]
    values = np.array([[0.1 + 0.2, 1e-320, 7.0], [2 / 3, 5.0, 1e22]])
    missing = np.array([[False, False, True], [False, False, False]])
    prices = serialize_price_csv(PriceTable(dates, ["A", "B", "C"], values, missing))
    assert prices == (
        "date,A,B,C\n2010-01-04,0.30000000000000004,1e-320,\n"
        "2010-01-05,0.6666666666666666,5.0,1e+22\n"
    )
    write_returns_csv(ReturnMatrix(dates, ["A", "B", "C"], values), tmp_path / "r.csv")
    assert (tmp_path / "r.csv").read_bytes() == (
        b"date,A,B,C\n2010-01-04,0.3,9.99988867183e-321,7\n2010-01-05,0.666666666667,5,1e+22\n"
    )
    write_feature_csv(tmp_path / "f.csv", dates, ["A", "B", "C"], values)
    assert (tmp_path / "f.csv").read_bytes() == (
        b"date,A,B,C\n2010-01-04,0.30000000000000004,1e-320,7.0\n"
        b"2010-01-05,0.6666666666666666,5.0,1e+22\n"
    )


@pytest.mark.parametrize("kind, triangle", [("pearson", np.triu), ("pearson", np.tril), ("ccm", None)])
def test_pca_raw_bytes_equal_the_per_cell_writer(tmp_path, kind, triangle):
    # a mirrored Pearson table formats each distinct cell once and writes it
    # twice, from an archive with upper- or lower-triangle edges alike; a CCM
    # table is not symmetric and formats every cell
    from flagcrash.pipeline import stage_pca

    rng = np.random.default_rng(17)
    t, n = 30, 6
    w = rng.uniform(-1, 1, size=(t, n, n)) / rng.choice([1.0, 3.0, 7e-5], size=(t, n, n))
    w[np.broadcast_to(np.eye(n, dtype=bool), w.shape) | (w < 0)] = 0.0
    if triangle is not None:
        w = triangle(w, 1 if triangle is np.triu else -1)
    dates = [date(2021, 1, 1) + timedelta(days=i) for i in range(t)]
    archive = tmp_path / "graphs.bin"
    write_graphs(archive, WindowSeries(w, dates, kind), {"correlation": kind})
    series = read_graphs(archive)
    assert series.kind == kind and np.array_equal(series.weights, w)
    out = tmp_path / "pca_raw.csv"
    stage_pca(series, {"raw": out})
    full = w + w.transpose(0, 2, 1) if kind == "pearson" else w
    lines = ["date," + ",".join(f"c{i + 1}" for i in range(n * n))]
    lines += [d.isoformat() + "," + ",".join(repr(v) for v in row) for d, row in
              zip(dates, full.reshape(t, -1).tolist())]
    assert out.read_text(encoding="utf-8") == "\n".join(lines) + "\n"


@pytest.mark.parametrize("flip", [None, (0, 1, 2), (3, 2, 0), (5, 0, 0)])
def test_symmetric_rows_bytes_equal_the_per_cell_writer(tmp_path, flip):
    # rows of symmetric 3 x 3 matrices, but for one cell given another sign
    # (-0.0 for 0.0 too) or value: only bitwise symmetric rows take the mirror
    rng = np.random.default_rng(4)
    m = rng.normal(size=(6, 3, 3)).round(rng.integers(0, 17))
    m = m + m.transpose(0, 2, 1)
    m[:, 1, 2] = m[:, 2, 1] = 0.0
    if flip is not None:
        w, a, b = flip
        m[w, a, b] = -m[w, a, b] if m[w, a, b] else -0.0
    values = m.reshape(6, 9)
    dates = [date(2021, 1, 1) + timedelta(days=i) for i in range(6)]
    columns = [f"c{i}" for i in range(9)]
    write_feature_csv(tmp_path / "t.csv", dates, columns, values)
    lines = ["date," + ",".join(columns)]
    lines += [d.isoformat() + "," + ",".join(repr(v) for v in row)
              for d, row in zip(dates, values.tolist())]
    assert (tmp_path / "t.csv").read_text(encoding="utf-8") == "\n".join(lines) + "\n"


SPECIAL_CELLS = [-0.0, 5e-324, 1e16, 1e-05, 2.0**53]


@pytest.mark.parametrize("width", [1, 4, 144, 1521])
def test_writers_bytes_over_several_blocks(tmp_path, width):
    # tables of two whole blocks of cells and part of a third, special cells
    # among them; a 144-column table is a mirrored 12 x 12 matrix a row, so
    # the feature writer takes its mirror
    rows = 2 * max(1, BLOCK_CELLS // width) + 3
    rng = np.random.default_rng(width)
    values = rng.normal(size=(rows, width)) * 10.0 ** rng.integers(-8, 8, (rows, width))
    at = rng.random((rows, width)) < 0.1
    values[at] = rng.choice(SPECIAL_CELLS, at.sum())
    if width == 144:
        m = values.reshape(rows, 12, 12)
        lower = np.tri(12, k=-1, dtype=bool)
        values = np.where(lower, m.transpose(0, 2, 1), m).reshape(rows, width)
    dates = [date(1995, 1, 2) + timedelta(days=i) for i in range(rows)]
    columns = [f"c{i}" for i in range(width)]

    def per_cell(cell, grid, gaps=None):
        gaps = np.zeros(grid.shape, dtype=bool) if gaps is None else gaps
        lines = ["date," + ",".join(columns)]
        lines += [d.isoformat() + "," + ",".join("" if g else cell(v) for v, g in zip(row, row_gaps))
                  for d, row, row_gaps in zip(dates, grid.tolist(), gaps.tolist())]
        return "\n".join(lines) + "\n"

    write_feature_csv(tmp_path / "f.csv", dates, columns, values)
    assert (tmp_path / "f.csv").read_text(encoding="utf-8") == per_cell(repr, values)

    missing = rng.random((rows, width)) < 0.05
    table = PriceTable(dates, columns, values, missing)
    assert serialize_price_csv(table) == per_cell(repr, values, missing)

    held = write_returns_csv(ReturnMatrix(dates, columns, values), tmp_path / "r.csv")
    assert (tmp_path / "r.csv").read_text(encoding="utf-8") == per_cell("{:.12g}".format, values)
    back = read_returns_csv(tmp_path / "r.csv")
    assert (held.dates, held.tickers) == (back.dates, back.tickers)
    assert held.returns.flags.c_contiguous and held.returns.dtype == back.returns.dtype
    assert held.returns.tobytes() == back.returns.tobytes()
