"""Configuration loading and end-to-end pipeline orchestration.

Past ingest and graph building, each `stage_*` function takes its input
in memory, writes its output file and returns its result.  A run hands
the window series, feature tables and scores from stage to stage in
memory; the standalone commands read them from the files a run writes,
so chaining the commands reproduces the run byte for byte.  Scoring has no
stage of its own: `score_table` serves both a run and `flagcrash score`.
A run keeps one (method, family, precision, recall, f_score) row per
method, and one writer turns those rows into results.csv and summary.csv.
"""

from __future__ import annotations

import configparser
import hashlib
import itertools
import json
import platform
from dataclasses import dataclass, field
from datetime import date, datetime
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, archive, corrnet, gnn, tables
from .charts import monthly_counts_svg
from .corrnet import CcmParams
from .detectors import AnomalySeries, lof_scores, mahalanobis_scores
from .errors import ConfigError, StageError
from .evaluation import (
    DEFAULT_LOOKBACK,
    DEFAULT_PERCENTILE,
    BUILTIN_EVENT_FILES,
    EventList,
    load_events,
    metrics,
    threshold_anomalies,
)
from .features import fit_pca, project_matrix
from .ingest import (
    align_and_filter,
    log_returns,
    parse_price_csv,
    read_returns_csv,
    write_returns_csv,
)
from .ph import tda_features, window_chunks


@dataclass
class PipelineConfig:
    prices_path: str
    events_path: str
    start: date
    end: date
    min_coverage: float = 1.0
    window: int = 25
    correlation: str = "ccm"
    ccm_params: CcmParams = field(default_factory=CcmParams)
    tda_norms: tuple[str, ...] = ("l1", "l2")
    essential: str = "drop"
    pca_dims: tuple[str, ...] = ("raw", "10", "100")
    detectors: tuple[str, ...] = ("mahalanobis", "lof")
    lof_k: tuple[int, ...] = (5, 10, 15, 20, 25, 30)
    gnn_models: tuple[str, ...] = ()
    ocgin_lr: tuple[float, ...] = (0.01, 0.001, 0.0001, 0.00001)
    ocgin_weight_decay: tuple[float, ...] = (0.001, 0.0001, 0.00001, 0.000001)
    ocgin_batch: tuple[int, ...] = (25, 50, 100)
    ocgin_layers: tuple[int, ...] = (2, 3)
    glocal_lr: tuple[float, ...] = (0.01, 0.001, 0.0001, 0.00001)
    glocal_batch: tuple[int, ...] = (25, 50, 100)
    glocal_layers: tuple[int, ...] = (2, 3)
    glocal_lambda: tuple[float, ...] = (0.1, 0.5, 0.9)
    hidden: int = 10
    epochs: int = 150
    percentile: float = DEFAULT_PERCENTILE
    lookback: int = DEFAULT_LOOKBACK
    output_dir: str = "runs"
    seed: int = 7
    raw_text: str = ""

    def validate(self) -> None:
        if self.correlation not in ("ccm", "pearson"):
            raise ConfigError(f"correlation must be ccm or pearson, got {self.correlation!r}")
        if self.essential not in ("drop", "cap"):
            raise ConfigError(f"essential must be drop or cap, got {self.essential!r}")
        feature_branch = bool(self.tda_norms or self.pca_dims) and bool(self.detectors)
        if not feature_branch and not self.gnn_models:
            raise ConfigError("config selects no feature/detector or gnn branch")
        for what, names, known in (
            ("gnn model", self.gnn_models, _GNN_GRIDS),
            ("detector", self.detectors, ("mahalanobis", "lof")),
            ("tda norm", self.tda_norms, ("l1", "l2")),
        ):
            for name in names:
                if name not in known:
                    raise ConfigError(f"unknown {what} {name!r}")
        for dim in self.pca_dims:
            check_pca_dim(dim)
        if any(k < 1 for k in self.lof_k):
            raise ConfigError(f"lof_k must be >= 1, got {min(self.lof_k)}")
        if not 0.0 < self.percentile < 100.0:
            raise ConfigError(f"percentile must be in (0, 100), got {self.percentile}")
        if self.lookback < 1:
            raise ConfigError(f"lookback must be >= 1, got {self.lookback}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
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


def _split(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in _split(text))


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in _split(text))


# (section, key, field, parser) of every optional config key; an absent key
# keeps the field's default.  `embedding_dim` and `lag` are CcmParams fields.
_CONFIG_KEYS = (
    ("data", "min_coverage", "min_coverage", float),
    ("network", "window", "window", int),
    ("network", "correlation", "correlation", str),
    ("network", "ccm_embedding", "embedding_dim", int),
    ("network", "ccm_lag", "lag", int),
    ("features", "tda_norms", "tda_norms", _split),
    ("features", "essential", "essential", str),
    ("features", "pca_dims", "pca_dims", _split),
    ("detectors", "methods", "detectors", _split),
    ("detectors", "lof_k", "lof_k", _ints),
    ("gnn", "models", "gnn_models", _split),
    ("gnn", "ocgin_lr", "ocgin_lr", _floats),
    ("gnn", "ocgin_weight_decay", "ocgin_weight_decay", _floats),
    ("gnn", "ocgin_batch", "ocgin_batch", _ints),
    ("gnn", "ocgin_layers", "ocgin_layers", _ints),
    ("gnn", "glocal_lr", "glocal_lr", _floats),
    ("gnn", "glocal_batch", "glocal_batch", _ints),
    ("gnn", "glocal_layers", "glocal_layers", _ints),
    ("gnn", "glocal_lambda", "glocal_lambda", _floats),
    ("gnn", "hidden", "hidden", int),
    ("gnn", "epochs", "epochs", int),
    ("eval", "percentile", "percentile", float),
    ("eval", "lookback", "lookback", int),
    ("run", "output_dir", "output_dir", str),
    ("run", "seed", "seed", int),
)


# Hyperparameter axes of each GNN grid in product order:
# (config field, stage_gnn keyword, method-label key, label format spec).
_GNN_GRIDS = {
    "ocgin": (
        ("ocgin_lr", "lr", "lr", "g"),
        ("ocgin_weight_decay", "weight_decay", "wd", "g"),
        ("ocgin_batch", "batch_size", "batch", ""),
        ("ocgin_layers", "layers", "layers", ""),
    ),
    "glocalkd": (
        ("glocal_lr", "lr", "lr", "g"),
        ("glocal_lambda", "lam", "lambda", "g"),
        ("glocal_batch", "batch_size", "batch", ""),
        ("glocal_layers", "layers", "layers", ""),
    ),
}


def load_config(path) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        raw_text = path.read_text(encoding="utf-8")
        parser = configparser.ConfigParser()
        parser.read_string(raw_text)
        values = {
            name: parse(parser.get(section, key))
            for section, key, name, parse in _CONFIG_KEYS
            if parser.has_option(section, key)
        }
        ccm = {k: values.pop(k) for k in ("embedding_dim", "lag") if k in values}
        cfg = PipelineConfig(
            prices_path=parser.get("data", "prices"),
            events_path=parser.get("data", "events"),
            start=date.fromisoformat(parser.get("data", "start")),
            end=date.fromisoformat(parser.get("data", "end")),
            ccm_params=CcmParams(**ccm),
            raw_text=raw_text,
            **values,
        )
    except (ValueError, KeyError, configparser.Error) as exc:
        raise ConfigError(f"bad config {path}: {exc}") from exc
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# stages

FeatureTable = tuple[list[date], list[str], np.ndarray]  # dates, columns, values


def stage_ingest(prices_path, start, end, min_coverage, out_path) -> None:
    with open(prices_path, "r", encoding="utf-8") as f:
        table = parse_price_csv(f)
    table = align_and_filter(table, start, end, min_coverage)
    write_returns_csv(log_returns(table), out_path)


def stage_graphs(
    returns_path, window, kind, ccm_params: CcmParams, out_path, jobs: int = 1
) -> corrnet.WindowSeries:
    returns = read_returns_csv(returns_path)
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
    written to the dim's path; a Pearson matrix is mirrored first.  One fit
    at the largest d serves every d: a thin SVD's components do not depend on d."""
    w = series.weights
    if series.kind == "pearson":
        w = w + w.transpose(0, 2, 1)
    data = w.reshape(len(w), -1)
    numeric = [int(dim) for dim in out_paths if dim != "raw"]
    if numeric:
        # the first d out of range fails, as it did when each d had a fit of its own
        bad = [d for d in numeric if not 1 <= d <= min(data.shape)]
        model = fit_pca(data, bad[0] if bad else max(numeric))
    out = {}
    for dim, path in out_paths.items():
        values = data if dim == "raw" else project_matrix(model.top(int(dim)), data)
        out[dim] = (series.dates, [f"c{i + 1}" for i in range(values.shape[1])], values)
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
    """Train `model` on the series and write the score of every window;
    `train` sets fields of the model's config (`gnn.OcginConfig` or
    `gnn.GlocalConfig`), and the config's defaults hold for the rest."""
    if model == "ocgin":
        config = gnn.OcginConfig(**train)
        state = gnn.ocgin_train(series.weights, config)
        scores = gnn.ocgin_scores(state, series.weights, config.batch_size)
    elif model == "glocalkd":
        config = gnn.GlocalConfig(**train)
        state = gnn.glocalkd_train(series.weights, config)
        scores = gnn.glocalkd_scores(state, series.weights, config.batch_size)
    else:
        raise ConfigError(f"unknown gnn model {model!r}")
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
        json.dump(report.to_dict(), f, indent=2)
        f.write("\n")
    if chart_path is not None:
        monthly_counts_svg(
            report.monthly_counts,
            [(e.label, e.resolved_date()) for e in events.events],
            title=method,
            path=chart_path,
            span=(dates[0], dates[-1]),
        )
    return report.to_dict()


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
        returns_csv = run_dir / "returns.csv"
        stage_ingest(
            config.prices_path, config.start, config.end, config.min_coverage, returns_csv
        )

        stage = "graphs"
        series = stage_graphs(
            returns_csv, config.window, config.correlation, config.ccm_params,
            run_dir / "graphs.bin", jobs=jobs,
        )

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
            paths = {dim: run_dir / f"pca_{dim}.csv" for dim in config.pca_dims}
            features.update((f"pca-{dim}", t) for dim, t in stage_pca(series, paths).items())

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
        methods, tasks = [], []
        for model, axes in _GNN_GRIDS.items():
            if model not in config.gnn_models:
                continue
            fields, keywords, labels, specs = zip(*axes)
            for point in itertools.product(*(getattr(config, f) for f in fields)):
                method = " ".join(
                    [model] + [f"{k}={v:{spec}}" for k, v, spec in zip(labels, point, specs)]
                )
                methods.append(method)
                tasks.append(dict(
                    model=model, out_path=run_dir / f"scores_{_slug(method)}.csv",
                    hidden=config.hidden, epochs=config.epochs, seed=config.seed,
                    **dict(zip(keywords, point)),
                ))
        results = corrnet.parallel_map(partial(_gnn_task, series), tasks, jobs)
        scores.update((m, (series.dates, r)) for m, r in zip(methods, results))

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
