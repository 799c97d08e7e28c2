from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcrash.errors import DataError
from flagcrash.ingest import (
    PriceTable,
    align_and_filter,
    log_returns,
    parse_price_csv,
    read_returns_csv,
    serialize_price_csv,
    write_returns_csv,
)

from oracles import reference_forward_fill, reference_parse_price_csv

CSV_3x2 = """date,AAA,BBB
2020-01-02,10.0,20.0
2020-01-03,10.5,19.5
2020-01-06,11.0,21.0
"""


def test_parse_full_panel():
    t = parse_price_csv(CSV_3x2)
    assert t.shape == (3, 2)
    assert t.tickers == ["AAA", "BBB"]
    assert not t.missing.any()
    assert t.dates == [date(2020, 1, 2), date(2020, 1, 3), date(2020, 1, 6)]
    assert t.prices[2, 1] == 21.0


def test_parse_empty_cell_sets_missing():
    t = parse_price_csv("date,A,B\n2020-01-02,1.0,\n2020-01-03,2.0,3.0\n")
    assert t.shape == (2, 2)
    assert t.missing[0, 1] and not t.missing[0, 0] and not t.missing[1].any()


def test_parse_unparseable_cell_is_missing():
    t = parse_price_csv("date,A\n2020-01-02,oops\n")
    assert t.missing[0, 0]


def test_parse_negative_price_names_date_and_ticker():
    with pytest.raises(DataError, match=r"2020-01-03.*BBB"):
        parse_price_csv("date,AAA,BBB\n2020-01-02,1,2\n2020-01-03,1,-1.0\n")


def test_parse_duplicate_date_rejected():
    with pytest.raises(DataError, match="2020-01-02"):
        parse_price_csv("date,A\n2020-01-02,1\n2020-01-02,2\n")


def test_parse_bad_header():
    with pytest.raises(DataError, match="header"):
        parse_price_csv("time,A\n2020-01-02,1\n")
    with pytest.raises(DataError, match="duplicate ticker"):
        parse_price_csv("date,A,A\n2020-01-02,1,2\n")


def test_parse_header_only_keeps_every_ticker_column():
    for parse in (parse_price_csv, reference_parse_price_csv):
        t = parse("date,A,B\n")
        assert t.shape == t.missing.shape == (0, 2) and t.tickers == ["A", "B"]


@pytest.mark.parametrize(
    "text, message",
    [
        ("date,A\n2020-01-02,1\n\n2020-01-02,2\n", "line 4: duplicate date 2020-01-02"),
        ("date,A,B\n2020-01-02,1,2\n2020-01-03,1,-1.0\n",
         "line 3: non-positive price -1.0 at (2020-01-03, B)"),
    ],
)
def test_parse_errors_name_file_and_line(tmp_path, text, message):
    path = tmp_path / "prices.csv"
    path.write_text(text, encoding="utf-8")
    with open(path, encoding="utf-8") as f, pytest.raises(DataError) as got:
        parse_price_csv(f)
    assert str(got.value) == f"{path} {message}"


def test_parse_rows_sorted_by_date():
    t = parse_price_csv("date,A\n2020-01-03,2\n2020-01-02,1\n")
    assert t.dates == [date(2020, 1, 2), date(2020, 1, 3)]
    assert list(t.prices[:, 0]) == [1.0, 2.0]


def test_align_identity_on_complete_panel():
    t = parse_price_csv(CSV_3x2)
    out = align_and_filter(t, date(2020, 1, 1), date(2020, 12, 31), 1.0)
    assert out.dates == t.dates
    assert out.tickers == t.tickers
    assert np.array_equal(out.prices, t.prices)


def test_align_restricts_date_range():
    t = parse_price_csv(CSV_3x2)
    out = align_and_filter(t, date(2020, 1, 3), date(2020, 1, 6), 1.0)
    assert out.dates == [date(2020, 1, 3), date(2020, 1, 6)]


def test_align_drops_low_coverage_ticker():
    csv = "date,A,B\n2020-01-02,1,\n2020-01-03,2,\n2020-01-06,3,9\n"
    out = align_and_filter(parse_price_csv(csv), date(2020, 1, 1), date(2020, 12, 31), 0.9)
    assert out.tickers == ["A"]


def test_align_forward_fills_interior_gap():
    csv = "date,A\n2020-01-02,5\n2020-01-03,\n2020-01-06,7\n"
    out = align_and_filter(parse_price_csv(csv), date(2020, 1, 1), date(2020, 12, 31), 0.5)
    assert not out.missing.any()
    assert list(out.prices[:, 0]) == [5.0, 5.0, 7.0]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30), st.integers(1, 5), st.floats(0.0, 0.9), st.integers(0, 2**32 - 1))
def test_align_forward_fill_matches_the_row_loop(rows, cols, gap_rate, seed):
    """Gaps of any length, a column's last rows among them, take the price of
    the column's last present row, bit for bit as the row-by-row fill gives."""
    rng = np.random.default_rng(seed)
    prices = rng.uniform(1.0, 100.0, (rows, cols)).round(rng.integers(0, 17))
    missing = rng.random((rows, cols)) < gap_rate
    missing[0] = False
    prices[missing] = np.nan
    dates = [date(2020, 1, 1) + timedelta(days=i) for i in range(rows)]
    table = PriceTable(dates, [f"t{j}" for j in range(cols)], prices, missing)
    out = align_and_filter(table, dates[0], date(2099, 1, 1), 0.01)  # keeps every column
    assert out.tickers == table.tickers and not out.missing.any()
    assert out.prices.tobytes() == reference_forward_fill(prices, missing).tobytes()


def test_align_leading_gap_drops_ticker():
    csv = "date,A,B\n2020-01-02,,1\n2020-01-03,2,2\n"
    out = align_and_filter(parse_price_csv(csv), date(2020, 1, 1), date(2020, 12, 31), 0.5)
    assert out.tickers == ["B"]


def test_align_empty_result_errors():
    csv = "date,A\n2020-01-02,,\n".replace(",,", ",")  # one missing-only ticker
    t = parse_price_csv("date,A\n2020-01-02,\n2020-01-03,\n")
    with pytest.raises(DataError, match="coverage"):
        align_and_filter(t, date(2020, 1, 1), date(2020, 12, 31), 1.0)


def test_log_returns_analytic():
    e = float(np.e)
    t = parse_price_csv(
        f"date,A\n2020-01-02,1.0\n2020-01-03,{e!r}\n2020-01-06,{e * e!r}\n"
    )
    rm = log_returns(t)
    assert rm.dates == [date(2020, 1, 3), date(2020, 1, 6)]
    np.testing.assert_allclose(rm.returns[:, 0], [1.0, 1.0], rtol=1e-12)


def test_log_returns_constant_prices():
    t = parse_price_csv("date,A\n2020-01-02,5\n2020-01-03,5\n2020-01-06,5\n")
    np.testing.assert_array_equal(log_returns(t).returns[:, 0], [0.0, 0.0])


def test_log_returns_frozen_value():
    # ln(1.1) evaluated with 30-digit precision: 0.0953101798043248600439521232808
    t = parse_price_csv("date,A\n2020-01-02,100\n2020-01-03,110\n")
    np.testing.assert_allclose(
        log_returns(t).returns[0, 0], 0.095310179804324860, rtol=1e-12
    )


def test_log_returns_requires_complete_panel():
    t = parse_price_csv("date,A\n2020-01-02,\n2020-01-03,2\n")
    with pytest.raises(DataError, match="complete"):
        log_returns(t)


@given(
    st.lists(
        st.floats(min_value=0.01, max_value=1000.0, allow_nan=False),
        min_size=2,
        max_size=40,
    )
)
def test_price_reconstruction_roundtrip(prices):
    """exp(cumsum(returns)) * p0 reproduces the series to 1e-12 relative."""
    arr = np.array(prices)
    dates = [date.fromordinal(737000 + i) for i in range(len(arr))]
    table = PriceTable(
        dates=dates,
        tickers=["X"],
        prices=arr.reshape(-1, 1),
        missing=np.zeros((len(arr), 1), dtype=bool),
    )
    rm = log_returns(table)
    rebuilt = arr[0] * np.exp(np.cumsum(rm.returns[:, 0]))
    np.testing.assert_allclose(rebuilt, arr[1:], rtol=1e-12)
    assert rm.returns.shape[0] == len(arr) - 1


@settings(max_examples=25)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=10**6),
)
def test_parse_serialize_parse_idempotent(n_rows, n_cols, seed):
    rng = np.random.default_rng(seed)
    prices = rng.uniform(0.5, 500.0, size=(n_rows, n_cols))
    missing = rng.random((n_rows, n_cols)) < 0.2
    missing[0] = False  # keep at least one clean row
    table = PriceTable(
        dates=[date.fromordinal(738000 + 2 * i) for i in range(n_rows)],
        tickers=[f"T{j}" for j in range(n_cols)],
        prices=prices,
        missing=missing,
    )
    once = parse_price_csv(serialize_price_csv(table))
    twice = parse_price_csv(serialize_price_csv(once))
    assert once.dates == twice.dates and once.tickers == twice.tickers
    assert np.array_equal(once.missing, twice.missing)
    assert np.array_equal(
        once.prices[~once.missing], twice.prices[~twice.missing]
    )


def test_returns_csv_roundtrip(tmp_path):
    t = parse_price_csv(CSV_3x2)
    rm = log_returns(t)
    p = tmp_path / "returns.csv"
    write_returns_csv(rm, p)
    back = read_returns_csv(p)
    assert back.dates == rm.dates and back.tickers == rm.tickers
    np.testing.assert_allclose(back.returns, rm.returns, rtol=1e-11)


# cells of every kind the parser tells apart: prices, missing cells (empty,
# whitespace, NaN, infinite, overflowing, unparseable) and non-positive prices
CELLS = [
    "", " ", " \t ", "\x1c", "nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e400",
    "-1e400", "abc", "1x", "1e-320", "1.5", " 2.25 ", "\x1c3\x1f", "7", "1_000",
]
NON_POSITIVE = ["0", "00", "-0", "0.0", "-0.0", "-2.5", "-1e-300"]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parse_matches_per_cell_reference(data):
    """Prices, missing mask and error message, line number included, all
    match the per-cell loop."""
    n_cols = data.draw(st.integers(min_value=1, max_value=3))
    # half the panels may hold non-positive prices, and so mostly fail
    bad = data.draw(st.booleans())
    cell = st.sampled_from(CELLS + NON_POSITIVE) if bad else st.sampled_from(CELLS)
    cell = cell | st.floats(**({} if bad else {"min_value": 5e-324})).map(repr)
    # dates from a small pool, so rows also come unsorted or duplicated
    days = st.integers(min_value=0, max_value=25).map(lambda i: date(2020, 1, 2 + i).isoformat())
    rows = data.draw(st.lists(st.lists(cell, min_size=n_cols, max_size=n_cols), max_size=5))
    dates = data.draw(st.lists(days, min_size=len(rows), max_size=len(rows)))
    # blank lines before some rows, which the line numbers count
    blank = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    text = "date," + ",".join(f"T{j}" for j in range(n_cols)) + "\n" + "".join(
        "\n" * b + ",".join([d, *r]) + "\n" for d, r, b in zip(dates, rows, blank)
    )
    try:
        want = reference_parse_price_csv(text)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            parse_price_csv(text)
        assert str(got.value) == str(exc)
        return
    got = parse_price_csv(text)
    assert got.dates == want.dates and got.tickers == want.tickers
    assert got.prices.dtype == want.prices.dtype and got.missing.dtype == want.missing.dtype
    assert np.array_equal(got.prices, want.prices, equal_nan=True)
    assert np.array_equal(got.missing, want.missing)
