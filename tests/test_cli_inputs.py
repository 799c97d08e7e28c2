"""Input files and flag defaults at the command line.

Every malformed input file ends in exit 2 or 3 with a one-line message,
never in a traceback; the hypothesis tests damage each CSV kind the CLI
reads (prices, returns, events, feature and score tables) and run the
command that reads it.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcrash.cli import build_parser, main
from flagcrash.corrnet import CcmParams
from flagcrash.evaluation import DEFAULT_LOOKBACK, DEFAULT_PERCENTILE
from flagcrash.gnn import GlocalConfig, OcginConfig
from flagcrash.pipeline import PipelineConfig


def run_cli(argv) -> tuple[int, str]:
    """Exit code and stderr of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def good(tmp_path_factory):
    """One valid file of each kind: prices, events, returns, features, scores."""
    root = tmp_path_factory.mktemp("inputs")
    files = {k: root / f"{k}.csv" for k in ("prices", "events", "returns", "features", "scores")}
    steps = [
        ["synth", "--stocks", "4", "--days", "80", "--episodes", "30:10:0.9,60:8:0.9",
         "--seed", "5", "--out-prices", files["prices"], "--out-events", files["events"]],
        ["ingest", "--prices", files["prices"], "--start", "2000-01-01", "--end", "2099-01-01",
         "--out", files["returns"]],
        ["graphs", "--returns", files["returns"], "--corr", "pearson", "--window", "5",
         "--out", root / "graphs.bin"],
        ["pca", "--graphs", root / "graphs.bin", "--dim", "3", "--out", files["features"]],
        ["score", "--features", files["features"], "--method", "mahalanobis",
         "--out", files["scores"]],
    ]
    for argv in steps:
        assert run_cli(argv) == (0, "")
    return files


def reader_commands(kind, path, good, out):
    """Every command line that reads `path` as a file of `kind`."""
    if kind == "prices":
        return [["ingest", "--prices", path, "--start", "2000-01-01", "--end", "2099-01-01",
                 "--out", out]]
    if kind == "returns":
        return [["graphs", "--returns", path, "--corr", corr, "--window", "5", "--out", out]
                for corr in ("pearson", "ccm")]
    if kind == "events":
        return [["evaluate", "--scores", good["scores"], "--events", path, "--out", out]]
    if kind == "features":
        return [["score", "--features", path, "--method", "mahalanobis", "--out", out],
                ["score", "--features", path, "--method", "lof", "--lof-k", "3", "--out", out]]
    return [["evaluate", "--scores", path, "--events", good["events"], "--out", out]]


KINDS = ["prices", "returns", "events", "features", "scores"]


def assert_clean_exit(code, err):
    assert code in (0, 2, 3), err
    if code:
        assert err.startswith(("data error: ", "config error: ")), err
        assert err.count("\n") == 1 and "Traceback" not in err, err


@pytest.mark.parametrize("kind", KINDS)
def test_non_utf8_byte_is_a_data_error(good, tmp_path, kind):
    blob = good[kind].read_bytes()
    at = blob.index(b"\n") + 3  # inside the first data row
    bad = tmp_path / "bad.csv"
    bad.write_bytes(blob[:at] + b"\xff" + blob[at:])
    for argv in reader_commands(kind, bad, good, tmp_path / "out"):
        code, err = run_cli(argv)
        assert code == 3 and err.startswith("data error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["returns", "features", "scores"])
def test_non_numeric_cell_names_path_and_line(good, tmp_path, kind):
    lines = good[kind].read_text().split("\n")
    lines[2] = ",".join([lines[2].split(",")[0], "x1"] + lines[2].split(",")[2:])
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines))
    for argv in reader_commands(kind, bad, good, tmp_path / "out"):
        code, err = run_cli(argv)
        assert code == 3, err
        assert err.startswith(f"data error: {bad} line 3: ") and "'x1'" in err, err
        assert not (tmp_path / "out").exists()


def test_flag_defaults_are_the_library_defaults():
    parse = build_parser().parse_args
    ocgin, glocal, ccm = OcginConfig(), GlocalConfig(), CcmParams()
    args = parse(["gnn", "--graphs", "g", "--model", "ocgin", "--out", "o"])
    assert (args.lr, args.weight_decay, args.lam) == (ocgin.lr, ocgin.weight_decay, glocal.lam)
    for flag, field in (("layers", "layers"), ("hidden", "hidden"), ("batch", "batch_size"),
                        ("epochs", "epochs"), ("seed", "seed"), ("lr", "lr")):
        # one flag serves both models, so their configs must agree
        assert getattr(args, flag) == getattr(ocgin, field) == getattr(glocal, field), flag
    args = parse(["graphs", "--returns", "r", "--out", "o"])
    assert (args.window, args.corr) == (PipelineConfig.window, PipelineConfig.correlation)
    assert (args.ccm_e, args.ccm_tau) == (ccm.embedding_dim, ccm.lag)
    args = parse(["evaluate", "--scores", "s", "--events", "e", "--out", "o"])
    assert (args.percentile, args.lookback) == (DEFAULT_PERCENTILE, DEFAULT_LOOKBACK)
    args = parse(["ingest", "--prices", "p", "--start", "s", "--end", "e", "--out", "o"])
    assert args.min_coverage == PipelineConfig.min_coverage
    assert parse(["tda", "--graphs", "g", "--out", "o"]).essential == PipelineConfig.essential


NASTY_CELLS = st.one_of(
    st.sampled_from([
        "", " ", "nan", "inf", "-inf", "-1", "0", "1e308", "-1e308", "1e-320", "1_0",
        "abc", '"', "2020-13-01", "2020-02-30", "2020-02", "9" * 30, "9" * 30 + "-01", "\x00",
        "é",
    ]),
    st.text(max_size=8),
)


@st.composite
def damaged(draw, blob: bytes) -> bytes:
    """`blob` truncated, with flipped bytes, or with one cell replaced."""
    how = draw(st.sampled_from(["truncate", "flip", "cell"]), label="how")
    if how == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1), label="length")]
    if how == "flip":
        out = bytearray(blob)
        flips = st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255))
        for at, mask in draw(st.lists(flips, min_size=1, max_size=8), label="flips"):
            out[at] ^= mask
        return bytes(out)
    lines = blob.decode("utf-8").split("\n")
    row = draw(st.integers(0, len(lines) - 1), label="row")
    cells = lines[row].split(",")
    cells[draw(st.integers(0, len(cells) - 1), label="column")] = draw(NASTY_CELLS, label="cell")
    lines[row] = ",".join(cells)
    return "\n".join(lines).encode("utf-8")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy on numbers like 1e308
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_damaged_csv_exits_cleanly(good, kind, data):
    blob = data.draw(damaged(good[kind].read_bytes()), label="file")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{kind}.csv"
        path.write_bytes(blob)
        for argv in reader_commands(kind, path, good, Path(tmp) / "out"):
            assert_clean_exit(*run_cli(argv))


@pytest.mark.parametrize("kind", ["returns", "features", "scores"])
def test_header_only_table_is_a_data_error(good, tmp_path, kind):
    bad = tmp_path / "bad.csv"
    bad.write_text(good[kind].read_text().split("\n")[0] + "\n")
    for argv in reader_commands(kind, bad, good, tmp_path / "out"):
        assert run_cli(argv) == (3, f"data error: {bad}: no data rows\n")
