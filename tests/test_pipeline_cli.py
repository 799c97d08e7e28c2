import dataclasses
import json
import os
import platform
import re
import subprocess
import sys
from collections import Counter
from datetime import date
from pathlib import Path

import numpy as np
import pytest
import scipy
from numpy.lib.stride_tricks import sliding_window_view

import flagcrash
from flagcrash import ph
from flagcrash.archive import read_graphs, write_graphs
from flagcrash.cli import main
from flagcrash.corrnet import CcmParams, WindowSeries
from flagcrash.detectors import LOF_BLOCK_ROWS
from flagcrash.errors import ConfigError
from flagcrash.ingest import read_returns_csv, serialize_price_csv
from flagcrash.pipeline import PipelineConfig, gnn_grid, load_config, run_pipeline
from flagcrash.synth import Episode, make_synthetic
from flagcrash.tables import read_feature_csv, read_scores_csv
from oracles import reference_ccm_corr


@pytest.fixture(scope="module")
def synth_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("synthdata")
    prices = root / "prices.csv"
    events = root / "events.csv"
    code = main(
        [
            "synth",
            "--stocks", "8",
            "--days", "260",
            "--episodes", "150:15:0.9",
            "--seed", "3",
            "--out-prices", str(prices),
            "--out-events", str(events),
        ]
    )
    assert code == 0
    return prices, events


@pytest.fixture(scope="module")
def dense_files(tmp_path_factory):
    """A one-factor `synth` panel of 39 tickers and 125 days (100 CCM
    windows of about 1440 of 1482 edges), with a stress episode in the
    middle.  Prices start between 8 and 80 and are quoted in cents, so
    that returns tie, and ticker S05 stays flat for 30 days, longer than
    a window, so that its windows take the zero-variance path."""
    root = tmp_path_factory.mktemp("densedata")
    episodes = [Episode(0, 70, 0.6), Episode(70, 15, 0.9), Episode(85, 39, 0.6)]
    table, events = make_synthetic(39, 125, episodes, seed=11)
    prices = np.round(table.prices * np.random.default_rng(11).uniform(8, 80, 39), 2)
    prices[40:70, 5] = prices[40, 5]
    (root / "prices.csv").write_text(serialize_price_csv(dataclasses.replace(table, prices=prices)))
    lines = ["date,label"] + [f"{e.date_spec},{e.label}" for e in events.events]
    (root / "events.csv").write_text("\n".join(lines) + "\n")
    return root / "prices.csv", root / "events.csv"


def config_text(prices, events, outdir, gnn_models=""):
    return f"""
[data]
prices = {prices}
events = {events}
start = 2010-01-01
end = 2011-12-31
min_coverage = 1.0

[network]
window = 25
correlation = pearson
ccm_embedding = 2
ccm_lag = 1

[features]
tda_norms = l1
pca_dims = raw

[detectors]
methods = mahalanobis
lof_k = 5

[gnn]
models = {gnn_models}
ocgin_lr = 0.003
ocgin_weight_decay = 0.0001
ocgin_batch = 64
ocgin_layers = 2
hidden = 5
epochs = 8

[eval]
percentile = 97.5
lookback = 50

[run]
output_dir = {outdir}
seed = 7
"""


def every_branch_config(prices, events, outdir, kind):
    """The config of a run of correlation `kind` through every branch: TDA,
    PCA raw and 3, Mahalanobis and LOF at k 5 and 20, OCGIN and GLocalKD."""
    return (
        config_text(prices, events, outdir, gnn_models="ocgin,glocalkd")
        .replace("correlation = pearson", f"correlation = {kind}")
        .replace("methods = mahalanobis", "methods = mahalanobis,lof")
        .replace("lof_k = 5", "lof_k = 5,20")
        .replace("pca_dims = raw", "pca_dims = raw,3")
        .replace(
            "epochs = 8",
            "epochs = 3\nglocal_lr = 0.003\nglocal_batch = 64\n"
            "glocal_layers = 2\nglocal_lambda = 0.5",
        )
    )


@pytest.fixture(scope="module")
def pipeline_runs(synth_files, tmp_path_factory):
    """One `every_branch_config` run at --jobs 1 per correlation kind.  Maps
    "pearson" and "ccm" to the run's config and directory."""
    prices, events = synth_files
    root = tmp_path_factory.mktemp("pipeline")
    runs = {}
    for kind in ("pearson", "ccm"):
        cfg_path = root / f"{kind}.ini"
        cfg_path.write_text(every_branch_config(prices, events, root / "runs", kind))
        config = load_config(cfg_path)
        runs[kind] = (config, run_pipeline(config))
    return runs


GOLDEN = Path(__file__).parent / "golden" / "pipeline_runs.json"


def environment_stamp() -> dict:
    """What a run's bits depend on besides the code and the BLAS thread
    count: the Python minor version, numpy, scipy, the BLAS each links (as
    their build configs name it; "unknown" where they cannot tell) and the
    machine, with the SIMD extensions numpy finds on it."""

    def config(module):
        try:
            return module.show_config(mode="dicts")
        except TypeError:  # numpy < 1.25 and scipy < 1.11 only print it
            return {}

    numpy_config, scipy_config = config(np), config(scipy)

    def blas(info):
        dep = info.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', 'unknown')} {dep.get('version', 'unknown')}"

    simd = numpy_config.get("SIMD Extensions", {}).get("found", [])
    return {
        "python": ".".join(platform.python_version_tuple()[:2]),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": blas(numpy_config), "scipy": blas(scipy_config)},
        "machine": " ".join([platform.machine(), *simd]),
    }


def test_outputs_equal_the_golden_digests(synth_files, dense_files, tmp_path):
    """The `every_branch_config` runs, Pearson and CCM on `synth_files` and
    CCM on the dense, tied `dense_files` ("dense-ccm"), at one BLAS thread
    in a fresh process, give every output the digest committed for this
    environment stamp in tests/golden/; on any other stamp, the report_*.json files
    (flag counts and scores of discrete events) must still match.  After
    an intended change of outputs, paste the entry the failure prints in
    place of the stamp's entry (or add it, for a new stamp)."""
    runs = {"pearson": (synth_files, "pearson"), "ccm": (synth_files, "ccm"),
            "dense-ccm": (dense_files, "ccm")}
    configs = []
    for name, ((prices, events), kind) in runs.items():
        configs.append(tmp_path / f"{name}.ini")
        configs[-1].write_text(every_branch_config(prices, events, tmp_path / name, kind))
    code = (
        "import sys\n"
        "from flagcrash.pipeline import load_config, run_pipeline\n"
        "for path in sys.argv[1:]:\n"
        "    print(run_pipeline(load_config(path)))\n"
    )
    path = [str(Path(flagcrash.__file__).parents[1])]
    path += [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(path))
    run = subprocess.run([sys.executable, "-c", code, *map(str, configs)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    outputs = {
        name: json.loads((Path(run_dir) / "manifest.json").read_text())["outputs"]
        for name, run_dir in zip(runs, run.stdout.splitlines())
    }
    entry = {"stamp": environment_stamp(), "outputs": outputs}
    golden = json.loads(GOLDEN.read_text())
    same_stamp = [g["outputs"] for g in golden if g["stamp"] == entry["stamp"]]
    shown = json.dumps(entry, indent=2, sort_keys=True)
    if same_stamp:
        assert outputs == same_stamp[0], shown
    else:
        def reports(runs):
            return {kind: {name: digest for name, digest in files.items()
                           if name.startswith("report_")} for kind, files in runs.items()}

        assert reports(outputs) == reports(golden[0]["outputs"]), shown


class TestStageCommands:
    def test_full_stage_chain(self, synth_files, tmp_path):
        prices, events = synth_files
        returns = tmp_path / "returns.csv"
        graphs = tmp_path / "graphs.bin"
        tda = tmp_path / "tda.csv"
        pca = tmp_path / "pca.csv"
        scores = tmp_path / "scores.csv"
        report = tmp_path / "report.json"

        assert main([
            "ingest", "--prices", str(prices), "--start", "2010-01-01",
            "--end", "2011-12-31", "--min-coverage", "1.0", "--out", str(returns),
        ]) == 0
        assert main([
            "graphs", "--returns", str(returns), "--window", "25",
            "--corr", "pearson", "--out", str(graphs),
        ]) == 0
        assert main(["tda", "--graphs", str(graphs), "--out", str(tda)]) == 0
        assert main(["pca", "--graphs", str(graphs), "--dim", "3", "--out", str(pca)]) == 0
        assert main([
            "score", "--features", str(tda), "--method", "mahalanobis",
            "--out", str(scores),
        ]) == 0
        assert main([
            "evaluate", "--scores", str(scores), "--events", str(events),
            "--out", str(report),
        ]) == 0

        dates, cols, values = read_feature_csv(tda)
        assert cols == ["l1_h0", "l2_h0", "l1_h1", "l2_h1"]
        _, pca_cols, pca_values = read_feature_csv(pca)
        assert pca_cols == ["c1", "c2", "c3"]
        sdates, svals = read_scores_csv(scores)
        assert sdates == dates
        payload = json.loads(report.read_text())
        assert set(payload) >= {
            "method", "precision", "recall", "f_score", "per_event", "monthly_counts",
        }

    def test_gnn_command(self, pipeline_runs, tmp_path):
        # each call assembles its batches into buffers that it reuses, so a
        # batch or a result that kept a stale view would show as a score that
        # differs between repeats, at a short last batch or at one batch of
        # every window
        graphs = pipeline_runs["ccm"][1] / "graphs.bin"
        windows = len(read_graphs(graphs))
        assert windows % 7
        for model, flags in [("ocgin", []), ("glocalkd", ["--lambda", "0.5"])]:
            ckpt = tmp_path / f"{model}.bin"
            for batch in (7, windows):
                outs = [tmp_path / f"{model}-{batch}-{i}.csv" for i in range(2)]
                for out in outs:
                    assert main([
                        "gnn", "--graphs", str(graphs), "--model", model, "--lr", "0.003",
                        *flags, "--layers", "2", "--hidden", "4", "--batch", str(batch),
                        "--epochs", "2", "--seed", "1", "--checkpoint", str(ckpt),
                        "--out", str(out),
                    ]) == 0
                assert outs[0].read_bytes() == outs[1].read_bytes(), (model, batch)
                _, scores = read_scores_csv(outs[0])
                assert len(scores) == windows and (scores >= 0).all(), (model, batch)
                assert np.isfinite(scores).all(), (model, batch)
            assert ckpt.exists() and (tmp_path / f"{model}.bin.json").exists()

    def test_tda_parallel_matches_serial(self, synth_files, tmp_path, monkeypatch):
        prices, _ = synth_files
        returns = tmp_path / "r.csv"
        graphs = tmp_path / "g.bin"
        main([
            "ingest", "--prices", str(prices), "--start", "2010-01-01",
            "--end", "2010-06-30", "--min-coverage", "1.0", "--out", str(returns),
        ])
        main([
            "graphs", "--returns", str(returns), "--window", "25",
            "--corr", "pearson", "--out", str(graphs),
        ])
        serial = tmp_path / "tda1.csv"
        parallel = tmp_path / "tda2.csv"
        assert main(["tda", "--graphs", str(graphs), "--out", str(serial)]) == 0
        # the series fits one chunk, which would map in this process: chunks of
        # 16 windows make worker processes share it
        monkeypatch.setattr(ph, "CHUNK_TRIPLES", 16 * 8**3)
        assert len(ph.window_chunks(read_graphs(graphs).weights)) >= 2
        assert main([
            "tda", "--graphs", str(graphs), "--jobs", "2", "--out", str(parallel),
        ]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_exit_codes(self, tmp_path, capsys):
        assert main([
            "ingest", "--prices", str(tmp_path / "missing.csv"),
            "--start", "2010-01-01", "--end", "2010-02-01",
            "--out", str(tmp_path / "o.csv"),
        ]) != 0
        bad = tmp_path / "bad.csv"
        bad.write_text("date,A\n2020-01-02,-5\n")
        assert main([
            "ingest", "--prices", str(bad), "--start", "2010-01-01",
            "--end", "2030-01-01", "--out", str(tmp_path / "o.csv"),
        ]) == 3
        assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 2
        for text in ("prices = x\n", "[data]\nprices = a\nprices = b\n"):
            malformed = tmp_path / "malformed.ini"
            malformed.write_text(text)
            assert main(["run", "--config", str(malformed)]) == 2
        # an archive without records: one message, naming it, from every stage
        empty = tmp_path / "empty.bin"
        write_graphs(empty, WindowSeries(np.zeros((0, 3, 3)), [], "ccm"), {})
        out = tmp_path / "out.csv"
        for command in (["pca", "--dim", "abc"], ["pca", "--dim", "\u00b2"]):
            assert main(command + ["--graphs", str(empty), "--out", str(out)]) == 2
        messages = set()
        for command in (["pca"], ["tda"], ["gnn", "--model", "ocgin"]):
            capsys.readouterr()
            assert main(command + ["--graphs", str(empty), "--out", str(out)]) == 3
            messages.add(capsys.readouterr().err)
        assert messages == {f"data error: {empty}: archive holds no graphs\n"}
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, key",
        [("--batch", "ocgin_batch"), ("--layers", "ocgin_layers"), ("--hidden", "hidden"),
         ("--epochs", "epochs"), ("--dim", "pca_dims")],
    )
    def test_gnn_size_below_one_rejected(self, synth_files, tmp_path, capsys, flag, key):
        prices, events = synth_files
        text = config_text(prices, events, tmp_path / "runs", gnn_models="ocgin")
        text = text.replace("tda_norms = l1", "tda_norms =")
        text = text.replace("pca_dims = raw", "pca_dims =")
        # a dim below 1 is a config error (test_dims_below_one_rejected_at_load);
        # one above the table's rank fails at stage pca.  A run fits PCA once,
        # at its largest dim, yet the first dim out of range still fails it,
        # with the message of that dim's own fit
        value = "raw,3,200,500" if key == "pca_dims" else "0"
        text = re.sub(rf"^{key} =.*$", f"{key} = {value}", text, flags=re.M)
        cfg_path = tmp_path / "pipeline.ini"
        cfg_path.write_text(text)
        capsys.readouterr()
        out = tmp_path / "out.csv"
        if key == "pca_dims":
            assert main(["run", "--config", str(cfg_path)]) == 4
            (failed,) = (tmp_path / "runs").glob("*/FAILED")
            graphs = failed.parent / "graphs.bin"
            cause = "target dimension 200 out of range [1, 64]"
            assert capsys.readouterr().err == f"stage 'pca' failed: {cause}\n"
            assert failed.read_text() == f"stage: pca\ncause: {cause}\n"
            assert main(["pca", "--graphs", str(graphs), "--dim", "200", "--out", str(out)]) == 3
            assert capsys.readouterr().err == f"data error: {cause}\n"
            assert main(["pca", "--graphs", str(graphs), "--dim", "0", "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                "config error: pca dim must be 'raw' or an integer >= 1, got '0'\n"
            )
        else:
            # every grid size is checked at load, before a run directory exists
            assert main(["run", "--config", str(cfg_path)]) == 2
            assert capsys.readouterr().err == f"config error: {key} must be >= 1, got 0\n"
            assert not (tmp_path / "runs").exists()
            returns, graphs = tmp_path / "returns.csv", tmp_path / "graphs.bin"
            assert main([
                "ingest", "--prices", str(prices), "--start", "2010-01-01",
                "--end", "2011-12-31", "--out", str(returns),
            ]) == 0
            assert main([
                "graphs", "--returns", str(returns), "--corr", "pearson", "--out", str(graphs),
            ]) == 0
            name = {"--batch": "batch_size"}.get(flag, flag[2:])
            for model in ("ocgin", "glocalkd"):
                for bad in ("0", "-3"):
                    capsys.readouterr()
                    command = ["gnn", "--graphs", str(graphs), "--model", model,
                               "--epochs", "1", flag, bad, "--out", str(out)]
                    assert main(command) == 3
                    assert capsys.readouterr().err == (
                        f"data error: {name} must be at least 1, got {bad}\n"
                    )
        assert not out.exists()

    def test_gnn_negative_rate_rejected(self, synth_files, tmp_path, capsys):
        # the run's rates are checked at load (test_dims_below_one_rejected_at_load)
        prices, _ = synth_files
        returns, graphs = tmp_path / "returns.csv", tmp_path / "graphs.bin"
        assert main([
            "ingest", "--prices", str(prices), "--start", "2010-01-01",
            "--end", "2011-12-31", "--out", str(returns),
        ]) == 0
        assert main([
            "graphs", "--returns", str(returns), "--corr", "pearson", "--out", str(graphs),
        ]) == 0
        out, checkpoint = tmp_path / "out.csv", tmp_path / "model.bin"
        cases = [(model, "--lr", "lr") for model in ("ocgin", "glocalkd")]
        cases += [("ocgin", "--weight-decay", "weight_decay"), ("glocalkd", "--lambda", "lam")]
        for model, flag, name in cases:
            for bad in ("-1", "nan"):
                capsys.readouterr()
                command = ["gnn", "--graphs", str(graphs), "--model", model, "--epochs", "1",
                           flag, bad, "--checkpoint", str(checkpoint), "--out", str(out)]
                assert main(command) == 3
                assert capsys.readouterr().err == (
                    f"data error: {name} must be >= 0, got {float(bad)}\n"
                )
        assert not out.exists() and not checkpoint.exists()

    @pytest.mark.parametrize(
        "model, flag, owner",
        [("glocalkd", "--weight-decay", "ocgin"), ("ocgin", "--lambda", "glocalkd")],
    )
    def test_gnn_flag_of_the_other_model_rejected(self, tmp_path, capsys, model, flag, owner):
        graphs = tmp_path / "graphs.bin"
        weights = np.tile(np.triu(np.full((3, 3), 0.5), 1), (4, 1, 1))
        dates = [date(2020, 1, 2 + i) for i in range(4)]
        write_graphs(graphs, WindowSeries(weights, dates, "pearson"), {})
        before = sorted(tmp_path.iterdir())
        out, checkpoint = tmp_path / "out.csv", tmp_path / "model.bin"
        for value in ("0.1", "-1"):
            command = ["gnn", "--graphs", str(graphs), "--model", model, "--epochs", "1",
                       flag, value, "--checkpoint", str(checkpoint), "--out", str(out)]
            assert main(command) == 2
            assert capsys.readouterr().err == (
                f"config error: {flag} applies to --model {owner}, not to {model}\n"
            )
        assert sorted(tmp_path.iterdir()) == before
        # the same archive trains when the flag is left out
        assert main(command[:-6] + ["--out", str(out)]) == 0

    def test_non_finite_gnn_scores_are_never_written(self, synth_files, tmp_path, capsys):
        prices, events = synth_files
        text = config_text(prices, events, tmp_path / "runs", gnn_models="ocgin")
        text = text.replace("tda_norms = l1", "tda_norms =").replace("pca_dims = raw", "pca_dims =")
        cfg_path = tmp_path / "pipeline.ini"
        # a finite rate so large that training overflows
        cfg_path.write_text(re.sub(r"^ocgin_lr =.*$", "ocgin_lr = 1e300", text, flags=re.M))
        capsys.readouterr()
        assert main(["run", "--config", str(cfg_path)]) == 4
        (failed,) = (tmp_path / "runs").glob("*/FAILED")
        assert failed.read_text().startswith("stage: gnn\ncause: refusing to write ")
        assert "non-finite values" in capsys.readouterr().err
        assert not list(failed.parent.glob("scores_*.csv"))
        out, checkpoint = tmp_path / "out.csv", tmp_path / "model.bin"
        for model in ("ocgin", "glocalkd"):
            command = ["gnn", "--graphs", str(failed.parent / "graphs.bin"), "--model", model,
                       "--lr", "1e300", "--epochs", "2", "--checkpoint", str(checkpoint)]
            assert main(command + ["--out", str(out)]) == 3
            assert capsys.readouterr().err == (
                f"data error: refusing to write {out}: the table has non-finite values\n"
            )
        assert not out.exists() and not checkpoint.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [("pca_dims", "0", "pca dim must be 'raw' or an integer >= 1, got '0'"),
         ("pca_dims", "raw,3,00", "pca dim must be 'raw' or an integer >= 1, got '00'"),
         ("lof_k", "0", "lof_k must be >= 1, got 0"),
         ("lof_k", "5,-3", "lof_k must be >= 1, got -3"),
         ("percentile", "100", "percentile must be in (0, 100), got 100.0"),
         ("percentile", "0", "percentile must be in (0, 100), got 0.0"),
         ("percentile", "nan", "percentile must be in (0, 100), got nan"),
         ("lookback", "0", "lookback must be >= 1, got 0"),
         ("seed", "-1", "seed must be >= 0, got -1"),
         ("window", "2", "window must be >= 3, got 2"),
         ("min_coverage", "0", "min_coverage must be in (0, 1], got 0.0"),
         ("min_coverage", "1.5", "min_coverage must be in (0, 1], got 1.5"),
         ("min_coverage", "nan", "min_coverage must be in (0, 1], got nan"),
         ("ccm_embedding", "1", "ccm_embedding must be >= 2, got 1"),
         ("ccm_lag", "0", "ccm_lag must be >= 1, got 0"),
         ("window correlation ccm_embedding ccm_lag", "5 ccm 3 2",
          "window of width 5 too short for embedding (E=3, tau=2): 1 shadow points, need 5"),
         ("hidden", "0", "hidden must be >= 1, got 0"),
         ("epochs", "0", "epochs must be >= 1, got 0"),
         ("ocgin_batch", "0", "ocgin_batch must be >= 1, got 0"),
         ("ocgin_layers", "0", "ocgin_layers must be >= 1, got 0"),
         ("glocal_batch", "0", "glocal_batch must be >= 1, got 0"),
         ("glocal_layers", "0", "glocal_layers must be >= 1, got 0"),
         ("glocal_lambda", "-1", "glocal_lambda must be >= 0, got -1.0"),
         ("glocal_lambda", "nan", "glocal_lambda must be >= 0, got nan"),
         ("ocgin_lr", "-1", "ocgin_lr must be >= 0, got -1.0"),
         ("ocgin_lr", "0.01,nan", "ocgin_lr must be >= 0, got nan"),
         ("ocgin_weight_decay", "-1", "ocgin_weight_decay must be >= 0, got -1.0"),
         ("ocgin_weight_decay", "nan", "ocgin_weight_decay must be >= 0, got nan"),
         ("glocal_lr", "-1", "glocal_lr must be >= 0, got -1.0"),
         ("glocal_lr", "nan", "glocal_lr must be >= 0, got nan")],
    )
    def test_dims_below_one_rejected_at_load(self, synth_files, tmp_path, capsys, key, value,
                                             message):
        prices, events = synth_files
        text = config_text(prices, events, tmp_path / "runs")
        # `key` and `value` list one or more space-separated settings
        for k, v in zip(key.split(), value.split()):
            text, found = re.subn(rf"^{k} =.*$", f"{k} = {v}", text, flags=re.M)
            if not found:  # config_text leaves the glocal_* keys out
                text = text.replace("[gnn]\n", f"[gnn]\n{k} = {v}\n")
        cfg_path = tmp_path / "pipeline.ini"
        cfg_path.write_text(text)
        capsys.readouterr()
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "runs").exists()


class TestRunPipeline:
    def test_single_branch_run(self, synth_files, tmp_path):
        prices, events = synth_files
        cfg_path = tmp_path / "pipeline.ini"
        cfg_path.write_text(config_text(prices, events, tmp_path / "runs"))
        config = load_config(cfg_path)
        run_dir = run_pipeline(config)
        assert (run_dir / "returns.csv").exists()
        assert (run_dir / "graphs.bin").exists()
        assert (run_dir / "results.csv").exists()
        assert (run_dir / "summary.csv").exists()
        assert (run_dir / "manifest.json").exists()
        assert not (run_dir / "FAILED").exists()
        reports = sorted(run_dir.glob("report_*.json"))
        charts = sorted(run_dir.glob("chart_*.svg"))
        assert len(reports) == 2  # tda-l1 and pca-raw, mahalanobis only
        assert len(charts) == 2
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert "results.csv" in manifest["outputs"]

    def test_rerun_identical_outputs(self, synth_files, tmp_path):
        prices, events = synth_files
        cfg_path = tmp_path / "pipeline.ini"
        cfg_path.write_text(config_text(prices, events, tmp_path / "runs"))
        config = load_config(cfg_path)
        dir_a = run_pipeline(config)
        dir_b = run_pipeline(config)
        assert dir_a != dir_b
        man_a = json.loads((dir_a / "manifest.json").read_text())["outputs"]
        man_b = json.loads((dir_b / "manifest.json").read_text())["outputs"]
        assert man_a == man_b
        assert (dir_a / "results.csv").read_bytes() == (dir_b / "results.csv").read_bytes()

    def test_stage_isolation_files_reproduce_pipeline(self, synth_files, pipeline_runs,
                                                      tmp_path):
        prices, events = synth_files
        gnn_flags = ["--lr", "0.003", "--batch", "64", "--layers", "2", "--hidden", "5",
                     "--epochs", "3", "--seed", "7"]
        out = tmp_path / "standalone.csv"
        for kind, (_, run_dir) in pipeline_runs.items():
            assert main([
                "ingest", "--prices", str(prices), "--start", "2010-01-01",
                "--end", "2011-12-31", "--min-coverage", "1.0", "--out", str(out),
            ]) == 0
            assert out.read_bytes() == (run_dir / "returns.csv").read_bytes(), kind
            # feed the pipeline's own intermediates to the standalone commands
            archive = tmp_path / "standalone.bin"
            assert main([
                "graphs", "--returns", str(run_dir / "returns.csv"), "--window", "25",
                "--corr", kind, "--out", str(archive),
            ]) == 0
            for suffix in ("", ".json"):
                piped = run_dir / f"graphs.bin{suffix}"
                assert Path(f"{archive}{suffix}").read_bytes() == piped.read_bytes(), kind
            graphs = ["--graphs", str(run_dir / "graphs.bin")]
            for command, piped in [
                (["tda"], "tda.csv"),
                (["pca", "--dim", "raw"], "pca_raw.csv"),
                (["pca", "--dim", "3"], "pca_3.csv"),
                (["gnn", "--model", "ocgin", "--weight-decay", "0.0001", *gnn_flags],
                 "scores_ocgin_lr_0.003_wd_0.0001_batch_64_layers_2.csv"),
                (["gnn", "--model", "glocalkd", "--lambda", "0.5", *gnn_flags],
                 "scores_glocalkd_lr_0.003_lambda_0.5_batch_64_layers_2.csv"),
            ]:
                assert main(command + graphs + ["--out", str(out)]) == 0
                assert out.read_bytes() == (run_dir / piped).read_bytes(), (kind, piped)
            # LOF reads a table in blocks of rows; these tables span two
            assert len(read_feature_csv(run_dir / "pca_raw.csv")[0]) > LOF_BLOCK_ROWS
            for table, branch in (("tda_l1", "tda-l1"), ("pca_raw", "pca-raw")):
                for flags, method in [
                    (["--method", "mahalanobis"], "mahalanobis"),
                    (["--method", "lof", "--lof-k", "5"], "lof-k5"),
                    (["--method", "lof", "--lof-k", "20"], "lof-k20"),
                ]:
                    assert main([
                        "score", "--features", str(run_dir / f"{table}.csv"),
                        *flags, "--out", str(out),
                    ]) == 0
                    piped = run_dir / f"scores_{branch}+{method}.csv"
                    assert out.read_bytes() == piped.read_bytes(), (kind, piped.name)
            # summary.csv names each family's first best method in method order
            families: dict[str, list] = {}
            for path in run_dir.glob("report_*.json"):
                r = json.loads(path.read_text())
                families.setdefault(r["method"].split("+")[0].split(" ")[0], []).append(r)
            best = {
                family: max(sorted(rs, key=lambda r: r["method"]), key=lambda r: r["f_score"])
                for family, rs in families.items()
            }
            summary = (run_dir / "summary.csv").read_text().splitlines()[1:]
            assert [line.split(",")[:2] for line in summary] == [
                [family, best[family]["method"]] for family in sorted(best)
            ]
            report, chart = tmp_path / "standalone.json", tmp_path / "standalone.svg"
            for method, slug in [
                ("tda-l1+lof-k5", "tda-l1+lof-k5"),
                ("ocgin lr=0.003 wd=0.0001 batch=64 layers=2",
                 "ocgin_lr_0.003_wd_0.0001_batch_64_layers_2"),
            ]:
                assert main([
                    "evaluate", "--scores", str(run_dir / f"scores_{slug}.csv"),
                    "--events", str(events), "--method-name", method,
                    "--chart", str(chart), "--out", str(report),
                ]) == 0
                assert report.read_bytes() == (run_dir / f"report_{slug}.json").read_bytes()
                assert chart.read_bytes() == (run_dir / f"chart_{slug}.svg").read_bytes()

    def test_single_branch_yields_single_report(self, synth_files, tmp_path):
        prices, events = synth_files
        cfg_path = tmp_path / "pipeline.ini"
        text = config_text(prices, events, tmp_path / "runs").replace(
            "pca_dims = raw", "pca_dims ="
        )
        cfg_path.write_text(text)
        run_dir = run_pipeline(load_config(cfg_path))
        assert len(list(run_dir.glob("report_*.json"))) == 1

    def test_gnn_grid_parallel_matches_serial(self, pipeline_runs, tmp_path, monkeypatch):
        # at two jobs, CCM windows, persistence chunks and GNN grid cells each
        # fan out over worker processes; every output must keep its bytes
        monkeypatch.setattr(ph, "CHUNK_TRIPLES", 64 * 8**3)
        for kind, (config, serial) in pipeline_runs.items():
            assert len(ph.window_chunks(read_graphs(serial / "graphs.bin").weights)) >= 2
            assert len(gnn_grid(config)) >= 2
            parallel = run_pipeline(
                dataclasses.replace(config, output_dir=str(tmp_path / kind)), jobs=2
            )
            serial_outputs, parallel_outputs = (
                json.loads((d / "manifest.json").read_text())["outputs"]
                for d in (serial, parallel)
            )
            assert serial_outputs == parallel_outputs, kind

    def test_ccm_windows_equal_the_oracle(self, pipeline_runs):
        # every window of the run, recomputed from its returns one by one and
        # thresholded as correlation_series thresholds
        config, run_dir = pipeline_runs["ccm"]
        returns = read_returns_csv(run_dir / "returns.csv")
        series = read_graphs(run_dir / "graphs.bin")
        blocks = sliding_window_view(returns.returns, config.window, axis=0).transpose(0, 2, 1)
        expected = np.stack([reference_ccm_corr(block, config.ccm_params) for block in blocks])
        expected[~(expected > 0.0)] = 0.0
        assert expected.tobytes() == series.weights.tobytes()
        assert list(series.dates) == list(returns.dates[config.window - 1 :])

    def test_no_branch_selected_rejected(self, synth_files, tmp_path):
        prices, events = synth_files
        cfg_path = tmp_path / "pipeline.ini"
        text = config_text(prices, events, tmp_path / "runs").replace(
            "tda_norms = l1", "tda_norms ="
        ).replace("pca_dims = raw", "pca_dims =")
        cfg_path.write_text(text)
        with pytest.raises(ConfigError, match="branch"):
            load_config(cfg_path)

    def test_missing_prices_rejected_at_load(self, tmp_path):
        cfg_path = tmp_path / "pipeline.ini"
        cfg_path.write_text(config_text(tmp_path / "ghost.csv", "tsx60", tmp_path))
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(cfg_path)

    def test_failed_marker_on_stage_error(self, synth_files, tmp_path):
        prices, events = synth_files
        cfg_path = tmp_path / "pipeline.ini"
        # window wider than the panel -> graphs stage fails
        text = config_text(prices, events, tmp_path / "runs").replace(
            "window = 25", "window = 5000"
        )
        cfg_path.write_text(text)
        config = load_config(cfg_path)
        from flagcrash.errors import StageError

        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert err.value.stage == "graphs"
        failed = sorted((tmp_path / "runs").glob("*/FAILED"))
        assert failed and "graphs" in failed[-1].read_text()

    def test_header_only_events_fail_at_setup(self, synth_files, tmp_path, capsys):
        prices, _ = synth_files
        events = tmp_path / "events.csv"
        events.write_text("date,label\n")
        cfg_path = tmp_path / "pipeline.ini"
        cfg_path.write_text(config_text(prices, events, tmp_path / "runs"))
        capsys.readouterr()
        assert main(["run", "--config", str(cfg_path)]) == 4
        cause = "events CSV has a header but no events"
        assert capsys.readouterr().err == f"stage 'setup' failed: {cause}\n"
        (failed,) = (tmp_path / "runs").glob("*/FAILED")
        assert failed.read_text() == f"stage: setup\ncause: {cause}\n"
        assert not (failed.parent / "returns.csv").exists()
        scores, report = tmp_path / "scores.csv", tmp_path / "report.json"
        scores.write_text("date,score\n2010-02-01,1.0\n")
        assert main([
            "evaluate", "--scores", str(scores), "--events", str(events), "--out", str(report),
        ]) == 3
        assert capsys.readouterr().err == f"data error: {cause}\n"
        assert not report.exists()

    def test_gnn_branch_in_pipeline(self, synth_files, tmp_path):
        prices, events = synth_files
        cfg_path = tmp_path / "pipeline.ini"
        text = config_text(prices, events, tmp_path / "runs", gnn_models="ocgin")
        cfg_path.write_text(text)
        config = load_config(cfg_path)
        run_dir = run_pipeline(config)
        rows = (run_dir / "results.csv").read_text().splitlines()
        assert any(r.startswith("ocgin") for r in rows[1:])
        summary = (run_dir / "summary.csv").read_text()
        assert "ocgin" in summary

    def test_gnn_grid_method_labels(self, synth_files, tmp_path):
        prices, events = synth_files
        text = config_text(prices, events, tmp_path / "runs", gnn_models="ocgin,glocalkd")
        text = text.replace("tda_norms = l1", "tda_norms =").replace(
            "pca_dims = raw", "pca_dims ="
        ).replace("ocgin_lr = 0.003", "ocgin_lr = 0.003,0.00001").replace(
            "epochs = 8",
            "epochs = 2\nglocal_lr = 0.003\nglocal_batch = 64\n"
            "glocal_layers = 2\nglocal_lambda = 0.25,0.5",
        )
        cfg_path = tmp_path / "pipeline.ini"
        cfg_path.write_text(text)
        run_dir = run_pipeline(load_config(cfg_path))
        rows = (run_dir / "results.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == [
            "glocalkd lr=0.003 lambda=0.25 batch=64 layers=2",
            "glocalkd lr=0.003 lambda=0.5 batch=64 layers=2",
            "ocgin lr=0.003 wd=0.0001 batch=64 layers=2",
            "ocgin lr=1e-05 wd=0.0001 batch=64 layers=2",
        ]


class TestLoadConfig:
    def test_data_section_alone_gives_dataclass_defaults(self, synth_files, tmp_path):
        prices, events = synth_files
        cfg_path = tmp_path / "pipeline.ini"
        cfg_path.write_text(
            f"[data]\nprices = {prices}\nevents = {events}\n"
            "start = 2010-01-01\nend = 2011-12-31\n"
        )
        config = load_config(cfg_path)
        for f in dataclasses.fields(PipelineConfig):
            if f.default is not dataclasses.MISSING and f.name != "raw_text":
                assert getattr(config, f.name) == f.default, f.name
        assert config.ccm_params == CcmParams()

    @pytest.mark.parametrize(
        "name, points",
        [("tsx60-reproduction.ini", {"ocgin": 96, "glocalkd": 72}),
         ("synthetic-demo.ini", {"ocgin": 1, "glocalkd": 1})],
    )
    def test_shipped_configs_load_and_expand(self, synth_files, tmp_path, name, points):
        prices, events = synth_files
        text = (Path(__file__).parents[1] / "configs" / name).read_text()
        text = re.sub(r"^prices =.*$", f"prices = {prices}", text, flags=re.M)
        cfg_path = tmp_path / name
        cfg_path.write_text(re.sub(r"^events =.*$", f"events = {events}", text, flags=re.M))
        grid = gnn_grid(load_config(cfg_path))
        assert Counter(train["model"] for _, train in grid) == points
        assert len({method for method, _ in grid}) == len(grid)
