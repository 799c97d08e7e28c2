"""Command-line entry points.

Exit codes: 0 success, 2 config error, 3 data error, 4 stage failure.
"""

from __future__ import annotations

import argparse
import sys
from datetime import date

from .archive import read_series
from .corrnet import CcmParams
from .errors import ConfigError, DataError, StageError
from .evaluation import DEFAULT_LOOKBACK, DEFAULT_PERCENTILE, load_events
from .gnn import GlocalConfig, OcginConfig
from .ingest import serialize_price_csv
from .pipeline import (
    PipelineConfig,
    check_pca_dim,
    load_config,
    run_pipeline,
    stage_evaluate,
    stage_gnn,
    stage_graphs,
    stage_ingest,
    stage_pca,
    stage_score,
    stage_tda,
)
from .synth import make_synthetic, parse_episode_spec
from .tables import read_scores_csv


def _parse_date(text: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise ConfigError(f"bad date {text!r}, want YYYY-MM-DD") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagcrash",
        description="Correlation-graph anomaly detection for daily price panels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse prices, align panel, write log returns")
    p.add_argument("--prices", required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--end", required=True)
    p.add_argument("--min-coverage", type=float, default=PipelineConfig.min_coverage)
    p.add_argument("--out", required=True)

    p = sub.add_parser("graphs", help="sliding-window correlation graphs")
    p.add_argument("--returns", required=True)
    p.add_argument("--window", type=int, default=PipelineConfig.window)
    p.add_argument("--corr", choices=["ccm", "pearson"], default=PipelineConfig.correlation)
    p.add_argument("--ccm-e", type=int, default=CcmParams.embedding_dim)
    p.add_argument("--ccm-tau", type=int, default=CcmParams.lag)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)

    p = sub.add_parser("tda", help="persistence-norm features of each graph")
    p.add_argument("--graphs", required=True)
    p.add_argument("--essential", choices=["drop", "cap"], default=PipelineConfig.essential)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)

    p = sub.add_parser("pca", help="flattened-matrix features, optionally reduced")
    p.add_argument("--graphs", required=True)
    p.add_argument("--dim", default="raw", help="'raw' or a target dimension")
    p.add_argument("--out", required=True)

    p = sub.add_parser("gnn", help="train a graph model and score every graph")
    p.add_argument("--graphs", required=True)
    p.add_argument("--model", choices=["ocgin", "glocalkd"], required=True)
    p.add_argument("--lr", type=float, default=OcginConfig.lr)
    p.add_argument("--weight-decay", type=float, default=OcginConfig.weight_decay)
    p.add_argument("--lambda", dest="lam", type=float, default=GlocalConfig.lam)
    p.add_argument("--layers", type=int, default=OcginConfig.layers)
    p.add_argument("--hidden", type=int, default=OcginConfig.hidden)
    p.add_argument("--batch", type=int, default=OcginConfig.batch_size)
    p.add_argument("--epochs", type=int, default=OcginConfig.epochs)
    p.add_argument("--seed", type=int, default=OcginConfig.seed)
    p.add_argument("--checkpoint", default=None, help="optional model checkpoint path")
    p.add_argument("--out", required=True)

    p = sub.add_parser("score", help="detector scores over a feature table")
    p.add_argument("--features", required=True)
    p.add_argument("--method", choices=["mahalanobis", "lof"], required=True)
    p.add_argument("--lof-k", type=int, default=20)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="flag anomalies and match labeled events")
    p.add_argument("--scores", required=True)
    p.add_argument("--events", required=True, help="CSV path or 'tsx60'/'djia'")
    p.add_argument("--percentile", type=float, default=DEFAULT_PERCENTILE)
    p.add_argument("--lookback", type=int, default=DEFAULT_LOOKBACK)
    p.add_argument("--method-name", default=None)
    p.add_argument("--chart", default=None, help="optional SVG output path")
    p.add_argument("--out", required=True)

    p = sub.add_parser("run", help="full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("synth", help="synthetic stressed price panel")
    p.add_argument("--stocks", type=int, default=20)
    p.add_argument("--days", type=int, default=1500)
    p.add_argument(
        "--episodes",
        default="",
        help="comma list of start:length:coupling (return-row indices)",
    )
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out-prices", required=True)
    p.add_argument("--out-events", required=True)
    return parser


def _dispatch(args: argparse.Namespace) -> None:
    if args.command == "ingest":
        stage_ingest(
            args.prices, _parse_date(args.start), _parse_date(args.end),
            args.min_coverage, args.out,
        )
        print(f"wrote {args.out}")
    elif args.command == "graphs":
        stage_graphs(
            args.returns, args.window, args.corr,
            CcmParams(embedding_dim=args.ccm_e, lag=args.ccm_tau),
            args.out, jobs=args.jobs,
        )
        print(f"wrote {args.out} (+ {args.out}.json)")
    elif args.command == "tda":
        stage_tda(read_series(args.graphs), args.essential, args.out, jobs=args.jobs)
        print(f"wrote {args.out}")
    elif args.command == "pca":
        check_pca_dim(args.dim)
        stage_pca(read_series(args.graphs), args.dim, args.out)
        print(f"wrote {args.out}")
    elif args.command == "gnn":
        own = {"weight_decay": args.weight_decay} if args.model == "ocgin" else {"lam": args.lam}
        stage_gnn(
            read_series(args.graphs), args.model, args.out, lr=args.lr, layers=args.layers,
            hidden=args.hidden, batch_size=args.batch, epochs=args.epochs, seed=args.seed,
            checkpoint_path=args.checkpoint, **own,
        )
        print(f"wrote {args.out}")
    elif args.command == "score":
        stage_score(args.features, args.method, args.lof_k, args.out)
        print(f"wrote {args.out}")
    elif args.command == "evaluate":
        events = load_events(args.events)
        method = args.method_name or str(args.scores)
        report = stage_evaluate(
            *read_scores_csv(args.scores), events, args.percentile, args.lookback, method,
            args.out, args.chart,
        )
        print(
            f"precision={report['precision']:.4f} recall={report['recall']:.4f} "
            f"f={report['f_score']:.4f} -> {args.out}"
        )
    elif args.command == "run":
        config = load_config(args.config)
        run_dir = run_pipeline(config, jobs=args.jobs)
        print(f"run directory: {run_dir}")
    elif args.command == "synth":
        episodes = parse_episode_spec(args.episodes)
        table, events = make_synthetic(args.stocks, args.days, episodes, args.seed)
        with open(args.out_prices, "w", encoding="utf-8") as f:
            f.write(serialize_price_csv(table))
        with open(args.out_events, "w", encoding="utf-8") as f:
            f.write("date,label\n")
            for e in events.events:
                f.write(f"{e.date_spec},{e.label}\n")
        print(f"wrote {args.out_prices} and {args.out_events}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError, UnicodeDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except StageError as exc:
        print(f"{exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
