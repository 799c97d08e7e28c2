"""Input files and flag defaults at the command line.

Every malformed input file ends in exit 2 or 3 with a one-line message,
never in a traceback; the hypothesis tests damage each CSV kind the CLI
reads (prices, returns, events, feature and score tables) and run the
command that reads it.
"""

import argparse
import contextlib
import io
import tempfile
from dataclasses import fields
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcrash import corrnet, features, gnn, pipeline
from flagcrash.archive import read_graphs
from flagcrash.checkpoint import save_checkpoint
from flagcrash.cli import build_parser, main
from flagcrash.corrnet import CcmParams
from flagcrash.evaluation import DEFAULT_LOOKBACK, DEFAULT_PERCENTILE
from flagcrash.errors import ConfigError
from flagcrash.gnn import GlocalConfig, OcginConfig, TrainConfig
from flagcrash.pipeline import PipelineConfig, load_config
from flagcrash.synth import parse_episode_spec
from flagcrash.tables import write_scores_csv


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


@pytest.mark.parametrize("kind", KINDS)
def test_byte_order_mark_reads_like_the_file_without_it(good, tmp_path, kind):
    # spreadsheet exports start with a UTF-8 byte-order mark
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + good[kind].read_bytes())
    for argv, plain in zip(reader_commands(kind, marked, good, tmp_path / "out"),
                           reader_commands(kind, good[kind], good, tmp_path / "ref")):
        # a report names its method after the scores path unless told otherwise
        named = ["--method-name", "m"] if argv[0] == "evaluate" else []
        assert run_cli(argv + named) == (0, "") == run_cli(plain + named)
        assert (tmp_path / "out").read_bytes() == (tmp_path / "ref").read_bytes()


def test_config_byte_order_mark_reads_like_the_file_without_it(good, tmp_path):
    text = (f"[data]\nprices = {good['prices']}\nevents = {good['events']}\n"
            "start = 2000-01-01\nend = 2099-01-01\n[gnn]\nmodels = ocgin\n")
    plain, marked = tmp_path / "plain.ini", tmp_path / "marked.ini"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    one, two = load_config(marked), load_config(plain)
    assert one == two and one.config_hash() == two.config_hash()


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


@pytest.mark.parametrize("kind", ["prices", "returns", "features", "scores"])
@pytest.mark.parametrize("damage", ["bad-date", "compact-date", "extra-cell"])
def test_bad_row_names_path_and_line(good, tmp_path, kind, damage):
    # the price CSV is read by the same row reader as the other tables
    lines = good[kind].read_text().split("\n")
    day, rest = lines[3].split(",", 1)
    lines[3] = {"bad-date": f"{day[:-1]}x,{rest}",
                "compact-date": f"{day.replace('-', '')},{rest}",
                "extra-cell": f"{lines[3]},1.0"}[damage]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines))
    for argv in reader_commands(kind, bad, good, tmp_path / "out"):
        code, err = run_cli(argv)
        assert code == 3 and err.startswith(f"data error: {bad} line 4: "), err
        assert err.count("\n") == 1, err
        if damage != "extra-cell":
            assert f"bad date {lines[3].split(',')[0]!r}, want YYYY-MM-DD" in err, err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("day", ["20100104", "2010-1-4"])
def test_config_and_flag_dates_read_as_strptime_does(good, tmp_path, day):
    config = tmp_path / "run.ini"
    config.write_text(
        f"[data]\nprices = {good['prices']}\nevents = {good['events']}\n"
        f"start = {day}\nend = 2099-01-01\n[run]\noutput_dir = {tmp_path / 'runs'}\n"
    )
    out = tmp_path / "returns.csv"
    ingest = ["ingest", "--prices", good["prices"], "--start", day, "--end", "2099-01-01",
              "--out", out]
    if day == "20100104":  # not a date to strptime's %Y-%m-%d, on every Python
        cause = "bad date '20100104', want YYYY-MM-DD"
        assert run_cli(["run", "--config", config]) == (
            2, f"config error: bad config {config}: {cause}\n")
        assert run_cli(ingest) == (2, f"config error: {cause}\n")
        assert sorted(tmp_path.iterdir()) == [config]
    else:
        assert load_config(config).start == date(2010, 1, 4)
        assert run_cli(ingest) == (0, "")
        assert out.read_bytes() == good["returns"].read_bytes()


def test_flag_defaults_are_the_library_defaults():
    parse = build_parser().parse_args
    shared, ocgin, glocal, ccm = TrainConfig(), OcginConfig(), GlocalConfig(), CcmParams()
    args = parse(["gnn", "--graphs", "g", "--model", "ocgin", "--out", "o"])
    # absent, each model's own flag leaves its config's default in place, and
    # given, it must belong to the chosen model
    assert (args.weight_decay, args.lam) == (None, None)
    for flag, field in (("layers", "layers"), ("hidden", "hidden"), ("batch", "batch_size"),
                        ("epochs", "epochs"), ("seed", "seed"), ("lr", "lr")):
        # one flag serves both models, so it takes the default of their shared config
        assert getattr(args, flag) == getattr(shared, field) == getattr(ocgin, field), flag
        assert getattr(args, flag) == getattr(glocal, field), flag
    args = parse(["graphs", "--returns", "r", "--out", "o"])
    assert (args.window, args.corr) == (PipelineConfig.window, PipelineConfig.correlation)
    assert (args.ccm_e, args.ccm_tau) == (ccm.embedding_dim, ccm.lag)
    args = parse(["evaluate", "--scores", "s", "--events", "e", "--out", "o"])
    assert (args.percentile, args.lookback) == (DEFAULT_PERCENTILE, DEFAULT_LOOKBACK)
    args = parse(["ingest", "--prices", "p", "--start", "s", "--end", "e", "--out", "o"])
    assert args.min_coverage == PipelineConfig.min_coverage
    assert parse(["tda", "--graphs", "g", "--out", "o"]).essential == PipelineConfig.essential


def test_every_model_list_is_gnn_models(good):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    [model] = [a for a in sub.choices["gnn"]._actions if a.dest == "model"]
    assert model.choices == list(gnn.MODELS)

    def accepted(name):
        config = PipelineConfig(prices_path=str(good["prices"]), events_path=str(good["events"]),
                                start=date(2000, 1, 1), end=date(2099, 1, 1), gnn_models=(name,))
        try:
            config.validate()
        except ConfigError as exc:
            assert str(exc) == f"unknown gnn model {name!r}"
            return False
        return True

    names = [*gnn.MODELS, "gin", "OCGIN", "glocal", "TrainConfig"]
    assert [name for name in names if accepted(name)] == list(gnn.MODELS)
    axes = [f.metadata["axis"][0] for f in fields(PipelineConfig) if f.metadata.get("axis")]
    assert list(dict.fromkeys(axes)) == list(gnn.MODELS)


def test_gnn_epochs_alone_trains_at_the_config_defaults(good, tmp_path):
    graphs = good["returns"].parent / "graphs.bin"
    out, checkpoint = tmp_path / "scores.csv", tmp_path / "model.bin"
    assert run_cli(["gnn", "--graphs", graphs, "--model", "glocalkd", "--epochs", "2",
                    "--checkpoint", checkpoint, "--out", out]) == (0, "")
    series, config = read_graphs(graphs), GlocalConfig(epochs=2)
    state = gnn.glocalkd_train(series.weights, config)
    scores = gnn.glocalkd_scores(state, series.weights, config.batch_size)
    write_scores_csv(tmp_path / "ref.csv", series.dates, scores)
    save_checkpoint(state, tmp_path / "ref.bin")
    pairs = [(out, "ref.csv"), (checkpoint, "ref.bin"), (f"{checkpoint}.json", "ref.bin.json")]
    for one, two in pairs:
        assert Path(one).read_bytes() == (tmp_path / two).read_bytes(), two


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


@pytest.fixture
def no_window(monkeypatch):
    """Fail the test if any correlation window is computed."""

    def computed(*args, **kwargs):
        raise AssertionError("a window was computed")

    monkeypatch.setattr(corrnet, "pearson_corr", computed)
    monkeypatch.setattr(corrnet, "ccm_corr", computed)


def out_of_order(good, tmp_path, kind, row):
    """`good[kind]` with the date of file line 4 also on line row + 1."""
    lines = good[kind].read_text().split("\n")
    lines[row] = ",".join([lines[3].split(",")[0]] + lines[row].split(",")[1:])
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines))
    return bad


@pytest.mark.parametrize("row", [4, 6], ids=["repeated-date", "decreasing-date"])
def test_returns_dates_must_increase(good, tmp_path, row, no_window):
    # the archive reader rejects such dates, so `graphs` must not write them;
    # the returns reader stops before any window is computed
    bad = out_of_order(good, tmp_path, "returns", row)
    out = tmp_path / "g.bin"
    code, err = run_cli(["graphs", "--returns", bad, "--corr", "pearson", "--window", "3",
                         "--out", out])
    assert code == 3 and err.startswith(f"data error: {bad} line {row + 1}: "), err
    assert "dates do not increase" in err and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("row", [4, 6], ids=["repeated-date", "decreasing-date"])
@pytest.mark.parametrize("kind", ["features", "scores"])
def test_table_dates_must_increase(good, tmp_path, kind, row):
    bad = out_of_order(good, tmp_path, kind, row)
    for argv in reader_commands(kind, bad, good, tmp_path / "out"):
        code, err = run_cli(argv)
        assert code == 3 and err.startswith(f"data error: {bad} line {row + 1}: "), err
        assert "dates do not increase" in err and err.count("\n") == 1, err
        assert list(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("unit", ["1e-160", "1e200"], ids=["subnormal-spread", "huge-spread"])
def test_mahalanobis_scores_tables_of_extreme_spread(tmp_path, unit):
    # such rows' covariance under- or overflows unless they are rescaled
    # first: a singular-matrix traceback, or a rejection as non-finite
    rows = ["1,0,0", "0,0,0", "0,1,0", "0,0,1", "1,1,0"]
    scores = []
    for name, one in [("unit", "1"), ("extreme", unit)]:
        table, out = tmp_path / f"{name}.csv", tmp_path / f"{name}-scores.csv"
        table.write_text("date,f0,f1,f2\n" + "".join(
            f"2020-01-0{i + 1},{r.replace('1', one)}\n" for i, r in enumerate(rows)))
        assert run_cli(["score", "--features", table, "--method", "mahalanobis",
                        "--out", out]) == (0, "")
        scores.append([float(line.split(",")[1]) for line in out.read_text().split()[1:]])
    assert scores[1] == pytest.approx(scores[0], rel=1e-9)


def test_mahalanobis_scores_rows_near_the_float64_limit(tmp_path):
    # the column mean of these rows overflows unless they are scaled first
    table, out = tmp_path / "near-limit.csv", tmp_path / "scores.csv"
    rows = ["1e308,0", "1e308,1", "0,2", "0,0"]
    table.write_text("date,f0,f1\n" + "".join(
        f"2020-01-0{i + 1},{r}\n" for i, r in enumerate(rows)))
    assert run_cli(["score", "--features", table, "--method", "mahalanobis",
                    "--out", out]) == (0, "")
    scores = [float(line.split(",")[1]) for line in out.read_text().split()[1:]]
    assert len(scores) == 4 and np.isfinite(scores).all()


def test_malformed_episode_spec_exits_3(tmp_path):
    code, err = run_cli(["synth", "--episodes", "a:b:c", "--out-prices", tmp_path / "p.csv",
                         "--out-events", tmp_path / "e.csv"])
    assert (code, err) == (3, "data error: bad episode spec 'a:b:c', want start:length:coupling\n")


@pytest.mark.parametrize("episodes", [None, "", " , "])
def test_synth_without_episodes_exits_2_writing_nothing(tmp_path, episodes):
    # an events file without events is one that evaluate and run reject
    prices, events = tmp_path / "p.csv", tmp_path / "e.csv"
    argv = ["synth", "--out-prices", prices, "--out-events", events]
    code, err = run_cli(argv + ([] if episodes is None else ["--episodes", episodes]))
    assert (code, err) == (
        2, "config error: synth needs at least one episode: --episodes start:length:coupling\n"
    )
    assert not prices.exists() and not events.exists()
    assert parse_episode_spec("") == []


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("command", [
    ["graphs", "--returns", "r.csv", "--out", "g.bin"],
    ["tda", "--graphs", "g.bin", "--out", "tda.csv"],
    ["run", "--config", "run.ini"],
], ids=["graphs", "tda", "run"])
def test_jobs_below_one_is_a_usage_error(command, jobs, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(command + ["--jobs", jobs])
    assert exit_.value.code == 2
    assert f"argument --jobs: must be >= 1, got {jobs}" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "-7"])
@pytest.mark.parametrize("command", [
    ["synth", "--out-prices", "p.csv", "--out-events", "e.csv"],
    ["gnn", "--graphs", "g.bin", "--model", "glocalkd", "--out", "s.csv"],
], ids=["synth", "gnn"])
def test_negative_seed_is_a_usage_error(command, seed, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(command + ["--seed", seed])
    assert exit_.value.code == 2
    assert f"argument --seed: must be >= 0, got {seed}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, layer, name",
    [("graphs", corrnet, "correlation_series"), ("tda", pipeline, "tda_features"),
     ("pca", features, "svd"), ("gnn", gnn, "ocgin_train"), ("score", pipeline, "lof_scores")],
)
@pytest.mark.parametrize("message", ["", "Unable to allocate 70.7 MiB"])
def test_memory_error_exits_4_naming_the_command(
    good, tmp_path, monkeypatch, command, layer, name, message
):
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(layer, name, exhausted)
    graphs = good["returns"].parent / "graphs.bin"
    flags = {
        "graphs": ["--returns", good["returns"], "--window", "5"],
        "tda": ["--graphs", graphs],
        "pca": ["--graphs", graphs, "--dim", "2"],
        "gnn": ["--graphs", graphs, "--model", "ocgin", "--epochs", "1"],
        "score": ["--features", good["features"], "--method", "lof", "--lof-k", "3"],
    }[command]
    code, err = run_cli([command, *flags, "--out", tmp_path / "out"])
    detail = f": {message}" if message else ""
    assert (code, err) == (4, f"stage '{command}' failed: out of memory{detail}\n")
    assert not any(tmp_path.iterdir())
