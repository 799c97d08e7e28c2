"""Benchmark workloads: generated price panels plus a pipeline config.

A workload is a plain dict so that the harness can hand it to a worker
process as JSON and the smoke test can shrink it.  The program only ever
sees the files `write_inputs` produces: `prices.csv`, `events.csv` and
`config.ini`.  Everything is derived from the seed, so one seed always
gives byte-identical inputs.
"""

from __future__ import annotations

from pathlib import Path

DEFAULT_SEED = 1  # seed 2 is held out to check claims made on seed 1

WINDOW = 25


# Each workload stresses a different layer of the pipeline; its "why" is
# repeated in BENCHMARK.json.  `days` counts price rows, and a panel of
# `days` rows yields `days - WINDOW` sliding windows.  gnn-ccm plants no
# episodes: in a 39-ticker CCM panel they move the edge count, and so the
# GNN's cost, by +-15% between seeds.
WORKLOADS: dict[str, dict] = {
    "gnn-ccm": {
        "why": "independent 39-ticker panel with CCM graphs and one OCGIN plus "
        "one GLocalKD run, so GINE training dominates; no TDA",
        "tickers": 39,
        "days": WINDOW + 50,
        "episodes": [],
        "ini": {
            "network": {"correlation": "ccm"},
            "features": {"tda_norms": "", "pca_dims": "raw,10"},
            "detectors": {"methods": "mahalanobis,lof", "lof_k": "20"},
            "gnn": {
                "models": "ocgin,glocalkd",
                "ocgin_lr": "0.001",
                "ocgin_weight_decay": "0.0001",
                "ocgin_batch": "50",
                "ocgin_layers": "2",
                "glocal_lr": "0.001",
                "glocal_lambda": "0.1",
                "glocal_batch": "50",
                "glocal_layers": "2",
                "hidden": "10",
                "epochs": "10",
            },
        },
    },
    "long-pearson": {
        "why": "12 tickers, 2500 windows (60% of the paper's series) with seven "
        "planted episodes, so LOF's TxT distances and per-window costs dominate",
        "tickers": 12,
        "days": WINDOW + 2500,
        "episodes": [[start, 20, 0.8] for start in range(300, 2400, 300)],
        "ini": {
            "network": {"correlation": "pearson"},
            "features": {"tda_norms": "l1,l2", "pca_dims": "raw,10"},
            "detectors": {"methods": "mahalanobis,lof", "lof_k": "10,20"},
            "gnn": {"models": ""},
        },
    },
}


def n_windows(spec: dict) -> int:
    """Windows one run carries end to end: one per window-wide return slice."""
    return spec["days"] - 1 - WINDOW + 1


def make_panel(spec: dict, seed: int):
    """Price table and event list for `spec`, fully determined by `seed`.

    Prices are `flagcrash.synth.make_synthetic`'s: independent returns plus
    the planted episodes.  An episode stays visible until the last window
    that still holds one of its return rows, so that window's date is its
    event date.  Without episodes the one event is the last date, and with
    no more windows than the lookback every flag counts: such a workload
    measures cost, not detection skill.
    """
    from flagcrash.evaluation import Event, EventList
    from flagcrash.synth import Episode, make_synthetic

    episodes = [Episode(int(s), int(n), float(c)) for s, n, c in spec["episodes"]]
    table, _ = make_synthetic(spec["tickers"], spec["days"], episodes, seed)
    rows = [ep.start + ep.length + WINDOW - 1 for ep in episodes] or [spec["days"] - 1]
    events = EventList(
        [Event(table.dates[r].isoformat(), f"event-{i + 1}") for i, r in enumerate(rows)]
    )
    return table, events


def write_inputs(spec: dict, seed: int, directory: Path) -> Path:
    """Write prices.csv, events.csv and config.ini; return the config path."""
    from flagcrash.ingest import serialize_price_csv

    table, events = make_panel(spec, seed)
    prices = directory / "prices.csv"
    prices.write_text(serialize_price_csv(table), encoding="utf-8")
    events_csv = directory / "events.csv"
    events_csv.write_text(
        "date,label\n" + "".join(f"{e.date_spec},{e.label}\n" for e in events.events),
        encoding="utf-8",
    )
    sections = {
        "data": {
            "prices": str(prices),
            "events": str(events_csv),
            "start": "2010-01-01",
            "end": "2099-01-01",
            "min_coverage": "1.0",
        },
        "network": {"window": str(WINDOW), "ccm_embedding": "2", "ccm_lag": "1"},
        "features": {"essential": "drop"},
        "eval": {"percentile": "97.5", "lookback": "50"},
        "run": {"output_dir": str(directory / "runs"), "seed": str(seed)},
    }
    for section, values in spec["ini"].items():
        sections.setdefault(section, {}).update(values)
    config = directory / "config.ini"
    config.write_text(
        "".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()) + "\n"
            for name, values in sections.items()
        ),
        encoding="utf-8",
    )
    return config
