"""Configuration loading and end-to-end pipeline orchestration.

Each config key is declared once, on its `PipelineConfig` field: INI
section and key, parser, default, least allowed value and, for a GNN
hyperparameter, its grid axis.  `load_config` reads the fields and
`validate` checks every value before a run directory exists.

Past ingest and graph building, each `stage_*` function takes its input
in memory, writes its output file and returns its result.  A run hands
the returns, window series, feature tables and scores from stage to stage
in memory; the returns are `float` of the cells written to returns.csv,
so graph building (`build_graphs`, which `stage_graphs` runs on the file
read back) sees the values it would read.  The standalone commands read
their inputs from the files a run writes, so chaining the commands
reproduces the run byte for byte.  A run without GNN models lets its
window series go once TDA and PCA's flattening have read it, before the
PCA fit and the detectors; one with them keeps it for the GNN stage.
Scoring has no stage of its own: `score_table` serves both a run and
`flagcrash score`.
A run keeps one (method, family, precision, recall, f_score) row per
method, and one writer turns those rows into results.csv and summary.csv.
"""

from __future__ import annotations

import configparser
import hashlib
import itertools
import json
import platform
from dataclasses import MISSING, dataclass, field, fields
from datetime import date, datetime
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, archive, corrnet, gnn, tables
from .charts import monthly_counts_svg
from .corrnet import CcmParams
from .detectors import AnomalySeries, lof_scores, mahalanobis_scores
from .errors import ConfigError, DataError, StageError
from .evaluation import (
    DEFAULT_LOOKBACK,
    DEFAULT_PERCENTILE,
    BUILTIN_EVENT_FILES,
    EventList,
    load_events,
    metrics,
    threshold_anomalies,
)
from .features import fit_pca
from .ingest import (
    ReturnMatrix,
    align_and_filter,
    log_returns,
    parse_price_csv,
    read_returns_csv,
    write_returns_csv,
)
from .ph import tda_features, window_chunks


def _split(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in _split(text))


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in _split(text))


def _key(section, key, parse=str, default=MISSING, least=None, axis=None):
    """A field read by `parse` from `key` in `section`, else `default`; `least`
    bounds it (each entry of a tuple) and `axis` = (model, stage_gnn keyword,
    label key, label format) makes it an axis of that model's grid."""
    return field(
        default=default,
        metadata={"ini": (section, key), "parse": parse, "least": least, "axis": axis},
    )


@dataclass
class PipelineConfig:
    prices_path: str = _key("data", "prices")
    events_path: str = _key("data", "events")
    start: date = _key("data", "start", tables.parse_day)
    end: date = _key("data", "end", tables.parse_day)
    min_coverage: float = _key("data", "min_coverage", float, 1.0)
    window: int = _key("network", "window", int, 25, least=3)
    correlation: str = _key("network", "correlation", str, "ccm")
    ccm_embedding: int = _key("network", "ccm_embedding", int, CcmParams.embedding_dim, least=2)
    ccm_lag: int = _key("network", "ccm_lag", int, CcmParams.lag, least=1)
    tda_norms: tuple[str, ...] = _key("features", "tda_norms", _split, ("l1", "l2"))
    essential: str = _key("features", "essential", str, "drop")
    pca_dims: tuple[str, ...] = _key("features", "pca_dims", _split, ("raw", "10", "100"))
    detectors: tuple[str, ...] = _key("detectors", "methods", _split, ("mahalanobis", "lof"))
    lof_k: tuple[int, ...] = _key("detectors", "lof_k", _ints, (5, 10, 15, 20, 25, 30), least=1)
    gnn_models: tuple[str, ...] = _key("gnn", "models", _split, ())
    ocgin_lr: tuple[float, ...] = _key(
        "gnn", "ocgin_lr", _floats, (1e-2, 1e-3, 1e-4, 1e-5), least=0,
        axis=("ocgin", "lr", "lr", "g"))
    ocgin_weight_decay: tuple[float, ...] = _key(
        "gnn", "ocgin_weight_decay", _floats, (1e-3, 1e-4, 1e-5, 1e-6), least=0,
        axis=("ocgin", "weight_decay", "wd", "g"))
    ocgin_batch: tuple[int, ...] = _key(
        "gnn", "ocgin_batch", _ints, (25, 50, 100), least=1,
        axis=("ocgin", "batch_size", "batch", ""))
    ocgin_layers: tuple[int, ...] = _key(
        "gnn", "ocgin_layers", _ints, (2, 3), least=1, axis=("ocgin", "layers", "layers", ""))
    glocal_lr: tuple[float, ...] = _key(
        "gnn", "glocal_lr", _floats, (1e-2, 1e-3, 1e-4, 1e-5), least=0,
        axis=("glocalkd", "lr", "lr", "g"))
    glocal_lambda: tuple[float, ...] = _key(
        "gnn", "glocal_lambda", _floats, (0.1, 0.5, 0.9), least=0,
        axis=("glocalkd", "lam", "lambda", "g"))
    glocal_batch: tuple[int, ...] = _key(
        "gnn", "glocal_batch", _ints, (25, 50, 100), least=1,
        axis=("glocalkd", "batch_size", "batch", ""))
    glocal_layers: tuple[int, ...] = _key(
        "gnn", "glocal_layers", _ints, (2, 3), least=1,
        axis=("glocalkd", "layers", "layers", ""))
    hidden: int = _key("gnn", "hidden", int, 10, least=1)
    epochs: int = _key("gnn", "epochs", int, 150, least=1)
    percentile: float = _key("eval", "percentile", float, DEFAULT_PERCENTILE)
    lookback: int = _key("eval", "lookback", int, DEFAULT_LOOKBACK, least=1)
    output_dir: str = _key("run", "output_dir", str, "runs")
    seed: int = _key("run", "seed", int, 7, least=0)
    raw_text: str = ""

    @property
    def ccm_params(self) -> CcmParams:
        return CcmParams(self.ccm_embedding, self.ccm_lag)

    def validate(self) -> None:
        if self.correlation not in ("ccm", "pearson"):
            raise ConfigError(f"correlation must be ccm or pearson, got {self.correlation!r}")
        if self.essential not in ("drop", "cap"):
            raise ConfigError(f"essential must be drop or cap, got {self.essential!r}")
        feature_branch = bool(self.tda_norms or self.pca_dims) and bool(self.detectors)
        if not feature_branch and not self.gnn_models:
            raise ConfigError("config selects no feature/detector or gnn branch")
        for what, names, known in (
            ("gnn model", self.gnn_models, gnn.MODELS),
            ("detector", self.detectors, ("mahalanobis", "lof")),
            ("tda norm", self.tda_norms, ("l1", "l2")),
        ):
            for name in names:
                if name not in known:
                    raise ConfigError(f"unknown {what} {name!r}")
        for dim in self.pca_dims:
            check_pca_dim(dim)
        for f in fields(self):
            least, value = f.metadata.get("least"), getattr(self, f.name)
            if least is None:
                continue
            for v in value if isinstance(value, tuple) else (value,):
                if not v >= least:  # so that nan fails too
                    raise ConfigError(f"{f.metadata['ini'][1]} must be >= {least}, got {v}")
        if not 0.0 < self.min_coverage <= 1.0:
            raise ConfigError(f"min_coverage must be in (0, 1], got {self.min_coverage}")
        if not 0.0 < self.percentile < 100.0:
            raise ConfigError(f"percentile must be in (0, 100), got {self.percentile}")
        if self.correlation == "ccm":
            try:
                self.ccm_params.validate(self.window)
            except DataError as exc:
                raise ConfigError(str(exc)) from None
        if not Path(self.prices_path).exists():
            raise ConfigError(f"prices file {self.prices_path} does not exist")
        if (
            self.events_path.lower() not in BUILTIN_EVENT_FILES
            and not Path(self.events_path).exists()
        ):
            raise ConfigError(f"events file {self.events_path} does not exist")

    def config_hash(self) -> str:
        return hashlib.sha256(self.raw_text.encode("utf-8")).hexdigest()[:12]


def check_pca_dim(dim: str) -> None:
    """Raise ConfigError unless `dim` is "raw" or a decimal integer >= 1."""
    if dim != "raw" and not (dim.isascii() and dim.isdigit() and int(dim) >= 1):
        raise ConfigError(f"pca dim must be 'raw' or an integer >= 1, got {dim!r}")


def load_config(path) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        raw_text = path.read_text(encoding="utf-8-sig")
        parser = configparser.ConfigParser()
        parser.read_string(raw_text)
        cfg = PipelineConfig(
            raw_text=raw_text,
            **{
                f.name: f.metadata["parse"](parser.get(*f.metadata["ini"]))
                for f in fields(PipelineConfig)
                if "ini" in f.metadata
                and (f.default is MISSING or parser.has_option(*f.metadata["ini"]))
            },
        )
    except (ValueError, KeyError, configparser.Error) as exc:
        raise ConfigError(f"bad config {path}: {exc}") from exc
    cfg.validate()
    return cfg


def gnn_grid(config: PipelineConfig) -> list[tuple[str, dict]]:
    """(method label, stage_gnn keywords) of every point of every configured
    model's grid: the product of the model's axes, in field order."""
    axes: dict[str, list[tuple]] = {}
    for f in fields(config):
        if f.metadata.get("axis") and f.metadata["axis"][0] in config.gnn_models:
            model, *axis = f.metadata["axis"]
            axes.setdefault(model, []).append((*axis, getattr(config, f.name)))
    grid = []
    for model, model_axes in axes.items():
        keywords, labels, specs, values = zip(*model_axes)
        for point in itertools.product(*values):
            method = " ".join(
                [model] + [f"{k}={v:{spec}}" for k, v, spec in zip(labels, point, specs)]
            )
            grid.append((method, dict(
                model=model, hidden=config.hidden, epochs=config.epochs, seed=config.seed,
                **dict(zip(keywords, point)),
            )))
    return grid


# ---------------------------------------------------------------------------
# stages

FeatureTable = tuple[list[date], list[str], np.ndarray]  # dates, columns, values


def stage_ingest(prices_path, start, end, min_coverage, out_path) -> ReturnMatrix:
    """Write the returns of the aligned price panel; returns them as the file
    holds them, as `read_returns_csv` would read them back."""
    with open(prices_path, "r", encoding="utf-8-sig") as f:
        table = parse_price_csv(f)
    table = align_and_filter(table, start, end, min_coverage)
    return write_returns_csv(log_returns(table), out_path)


def stage_graphs(
    returns_path, window, kind, ccm_params: CcmParams, out_path, jobs: int = 1
) -> corrnet.WindowSeries:
    return build_graphs(read_returns_csv(returns_path), window, kind, ccm_params, out_path, jobs)


def build_graphs(
    returns: ReturnMatrix, window, kind, ccm_params: CcmParams, out_path, jobs: int = 1
) -> corrnet.WindowSeries:
    """`stage_graphs` on returns in memory: the window series, archived at `out_path`."""
    series = corrnet.correlation_series(
        returns, width=window, kind=kind, ccm_params=ccm_params, jobs=jobs
    )
    archive.write_graphs(
        out_path,
        series,
        params={
            "window": window,
            "correlation": kind,
            "ccm_embedding": ccm_params.embedding_dim,
            "ccm_lag": ccm_params.lag,
            "tickers": returns.tickers,
        },
    )
    return series


def stage_tda(series: corrnet.WindowSeries, essential, out_path, jobs: int = 1) -> FeatureTable:
    fn = partial(tda_features, essential=essential)
    values = np.concatenate(corrnet.parallel_map(fn, window_chunks(series.weights), jobs))
    table = (series.dates, ["l1_h0", "l2_h0", "l1_h1", "l2_h1"], values)
    tables.write_feature_csv(out_path, *table)
    return table


def stage_pca(series: corrnet.WindowSeries, out_paths: dict) -> dict[str, FeatureTable]:
    """Each window's flattened correlation matrix, raw or projected on its
    top d principal components, for each dim ("raw" or d) of `out_paths`,
    written to the dim's path; a Pearson matrix is mirrored first."""
    return _pca_tables(series.dates, _flat_windows(series), out_paths)


def _flat_windows(series: corrnet.WindowSeries) -> np.ndarray:
    """The (T, n * n) table of `stage_pca`: Pearson windows mirrored into a
    new array, cross-map windows a view of the series'."""
    w = series.weights
    if series.kind == "pearson":
        w = w + w.transpose(0, 2, 1)
    return w.reshape(len(w), -1)


def _pca_tables(dates, data: np.ndarray, out_paths: dict) -> dict[str, FeatureTable]:
    """`stage_pca` of the flattened windows `data`.  One fit at the largest
    d serves every d: a thin SVD's components do not depend on d.  The
    table is centered once, and each d projected with `project_matrix`'s
    product, so each table has its bytes."""
    numeric = [int(dim) for dim in out_paths if dim != "raw"]
    if numeric:
        # the first d out of range fails, as it did when each d had a fit of its own
        bad = [d for d in numeric if not 1 <= d <= min(data.shape)]
        model = fit_pca(data, bad[0] if bad else max(numeric))
        centered = data - model.mean
    out = {}
    for dim, path in out_paths.items():
        values = data if dim == "raw" else centered @ model.components[: int(dim)].T
        out[dim] = (dates, [f"c{i + 1}" for i in range(values.shape[1])], values)
        tables.write_feature_csv(path, *out[dim])
    return out


def score_table(dates, values, methods, lof_k) -> list[AnomalySeries]:
    """Series of every method in `methods` (LOF once per `lof_k` entry)
    over one feature table."""
    out = []
    for method in methods:
        if method == "mahalanobis":
            out.append(mahalanobis_scores(dates, values))
        elif method == "lof":
            out.extend(lof_scores(dates, values, lof_k))
        else:
            raise ConfigError(f"unknown scoring method {method!r}")
    return out


def stage_gnn(
    series: corrnet.WindowSeries,
    model: str,
    out_path,
    checkpoint_path=None,
    **train,
) -> np.ndarray:
    """Train `model`, a key of `gnn.MODELS`, on the series and write the
    score of every window; `train` sets fields of its config class there (a
    `gnn.TrainConfig`), whose defaults hold for the rest.  `gnn.<model>_train`
    and `_scores` are looked up at call time, so patches of them apply.
    Training and scoring batch the windows alike, so they share one layout."""
    if model not in gnn.MODELS:
        raise ConfigError(f"unknown gnn model {model!r}")
    config = gnn.MODELS[model](**train)
    layout = gnn._Layout(series.weights, config.batch_size)
    state = getattr(gnn, f"{model}_train")(layout, config)
    scores = getattr(gnn, f"{model}_scores")(state, layout, config.batch_size)
    # scores first: non-finite ones stop the stage before any file is written
    tables.write_scores_csv(out_path, series.dates, scores)
    if checkpoint_path is not None:
        from .checkpoint import save_checkpoint

        save_checkpoint(state, checkpoint_path)
    return scores


def stage_evaluate(
    dates,
    scores,
    events: EventList,
    percentile: float,
    lookback: int,
    method: str,
    report_path,
    chart_path=None,
) -> dict:
    series = AnomalySeries(dates=dates, scores=scores, method_tag=method)
    flags = threshold_anomalies(series, percentile)
    report = metrics(flags, dates, events, lookback, method=method)
    with open(report_path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    if chart_path is not None:
        monthly_counts_svg(
            report["monthly_counts"],
            [(e.label, e.resolved_date()) for e in events.events],
            title=method,
            path=chart_path,
            span=(dates[0], dates[-1]),
        )
    return report


# ---------------------------------------------------------------------------
# full pipeline


def _gnn_task(series: corrnet.WindowSeries, kwargs: dict) -> np.ndarray:
    return stage_gnn(series, **kwargs)


def _slug(method: str) -> str:
    out = []
    for ch in method:
        out.append(ch if ch.isalnum() or ch in ".+-" else "_")
    return "".join(out).strip("_")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_rows(path: Path, names: str, rows) -> None:
    """One CSV row per (name, name, precision, recall, f_score) tuple."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{names},precision,recall,f_score\n")
        for a, b, *values in rows:
            f.write(",".join([a, b, *(f"{v:.6f}" for v in values)]) + "\n")


def _make_run_dir(config: PipelineConfig) -> Path:
    base = Path(config.output_dir)
    base.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now().strftime("%Y%m%d-%H%M%S")
    name = f"{stamp}-{config.config_hash()}"
    run_dir = base / name
    suffix = 0
    while run_dir.exists():
        suffix += 1
        run_dir = base / f"{name}-{suffix}"
    run_dir.mkdir()
    return run_dir


def run_pipeline(config: PipelineConfig, jobs: int = 1) -> Path:
    """Execute every configured branch; returns the run directory."""
    config.validate()
    run_dir = _make_run_dir(config)
    stage = "setup"
    try:
        events = load_events(config.events_path)

        stage = "ingest"
        returns = stage_ingest(
            config.prices_path, config.start, config.end, config.min_coverage,
            run_dir / "returns.csv",
        )

        stage = "graphs"
        series = build_graphs(
            returns, config.window, config.correlation, config.ccm_params,
            run_dir / "graphs.bin", jobs=jobs,
        )
        del returns  # every later stage reads the series

        features: dict[str, FeatureTable] = {}
        if config.tda_norms:
            stage = "tda"
            dates, columns, values = stage_tda(
                series, config.essential, run_dir / "tda.csv", jobs=jobs
            )
            for norm in config.tda_norms:
                sel = [f"{norm}_h0", f"{norm}_h1"]
                table = (dates, sel, values[:, [columns.index(c) for c in sel]])
                tables.write_feature_csv(run_dir / f"tda_{norm}.csv", *table)
                features[f"tda-{norm}"] = table
        if config.pca_dims:
            stage = "pca"
            data = _flat_windows(series)
        dates = series.dates
        if not config.gnn_models:
            del series  # no later stage reads the windows (a cross-map `data` is their view)
        if config.pca_dims:
            paths = {dim: run_dir / f"pca_{dim}.csv" for dim in config.pca_dims}
            for dim, table in _pca_tables(dates, data, paths).items():
                features[f"pca-{dim}"] = table
            del data  # freed here unless a "raw" table holds it

        stage = "score"
        scores: dict[str, tuple[list[date], np.ndarray]] = {}
        for branch, (dates, _, values) in features.items():
            for one in score_table(dates, values, config.detectors, config.lof_k):
                method = f"{branch}+{one.method_tag}"
                tables.write_scores_csv(
                    run_dir / f"scores_{_slug(method)}.csv", one.dates, one.scores
                )
                scores[method] = (one.dates, one.scores)

        stage = "gnn"
        grid = gnn_grid(config)
        if grid:
            tasks = [dict(train, out_path=run_dir / f"scores_{_slug(m)}.csv") for m, train in grid]
            results = corrnet.parallel_map(partial(_gnn_task, series), tasks, jobs)
            scores.update((m, (series.dates, r)) for (m, _), r in zip(grid, results))

        stage = "evaluate"
        rows = []  # (method, family, precision, recall, f_score), in method order
        for method, (dates, values) in sorted(scores.items()):
            slug = _slug(method)
            report = stage_evaluate(
                dates, values, events, config.percentile, config.lookback, method,
                run_dir / f"report_{slug}.json", run_dir / f"chart_{slug}.svg",
            )
            family = method.split("+")[0].split(" ")[0]
            rows.append((method, family, report["precision"], report["recall"], report["f_score"]))

        stage = "report"
        best: dict[str, tuple] = {}
        for row in rows:  # a family's first best row wins a tie
            if row[1] not in best or row[4] > best[row[1]][4]:
                best[row[1]] = row
        _write_rows(run_dir / "results.csv", "method,family", rows)
        _write_rows(
            run_dir / "summary.csv", "family,best_method",
            [(family, method, *values) for family, (method, _, *values) in sorted(best.items())],
        )

        manifest = {
            "config_hash": config.config_hash(),
            "seed": config.seed,
            "versions": {
                "flagcrash": __version__,
                "numpy": np.__version__,
                "python": platform.python_version(),
            },
            "outputs": {
                p.name: _sha256(p)
                for p in sorted(run_dir.iterdir())
                if p.suffix in (".csv", ".json", ".bin", ".svg")
                and p.name != "manifest.json"
            },
        }
        with open(run_dir / "manifest.json", "w", encoding="utf-8") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
            f.write("\n")
    except Exception as exc:
        with open(run_dir / "FAILED", "w", encoding="utf-8") as f:
            f.write(f"stage: {stage}\ncause: {exc}\n")
        raise StageError(stage, exc) from exc
    return run_dir
