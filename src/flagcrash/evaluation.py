"""Anomaly flags, event matching, and precision/recall/f-score.

An event is signaled when a flagged date falls within the `lookback`
trading days up to and including the event's anchor (the last trading day
on or before its date).  Business days are the trading days actually
present in the score series; no exchange calendar is consulted.  Events
given at month granularity resolve to the 15th before anchoring.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from datetime import date
from importlib import resources

import numpy as np

from .detectors import AnomalySeries
from .errors import DataError

DEFAULT_PERCENTILE = 97.5
DEFAULT_LOOKBACK = 50

BUILTIN_EVENT_FILES = {
    "tsx60": "tsx60_events.csv",
    "djia": "djia_events.csv",
}


@dataclass(frozen=True)
class Event:
    date_spec: str  # YYYY-MM-DD or YYYY-MM
    label: str

    def resolved_date(self) -> date:
        spec = self.date_spec.strip()
        parts = spec.split("-")
        try:
            if len(parts) == 2:
                return date(int(parts[0]), int(parts[1]), 15)
            if len(parts) == 3:
                return date(int(parts[0]), int(parts[1]), int(parts[2]))
        except (ValueError, OverflowError):
            pass
        raise DataError(f"cannot parse event date {spec!r} (want YYYY-MM[-DD])")


@dataclass
class EventList:
    events: list[Event]

    def __post_init__(self):
        resolved = [e.resolved_date() for e in self.events]
        if any(b <= a for a, b in zip(resolved, resolved[1:])):
            raise DataError("event dates must be strictly increasing")


@dataclass
class DetectionReport:
    method: str
    precision: float
    recall: float
    f_score: float
    per_event: list[dict]  # {label, date, signaled, unsignalable}
    anomalous_dates: list[date]
    monthly_counts: list[tuple[str, int]]

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "precision": self.precision,
            "recall": self.recall,
            "f_score": self.f_score,
            "per_event": self.per_event,
            "anomalous_dates": [d.isoformat() for d in self.anomalous_dates],
            "monthly_counts": [[m, c] for m, c in self.monthly_counts],
        }


def parse_events_csv(source) -> EventList:
    """`date,label` rows; dates may be YYYY-MM or YYYY-MM-DD."""
    if isinstance(source, str):
        source = io.StringIO(source)
    try:
        rows = [row for row in csv.reader(source) if row and any(c.strip() for c in row)]
    except csv.Error as exc:  # a NUL byte before Python 3.11, an over-long field
        raise DataError(f"events CSV: {exc}") from None
    if not rows:
        raise DataError("events CSV is empty")
    start = 1 if rows[0][0].strip().lower() == "date" else 0
    events = []
    for row in rows[start:]:
        if len(row) < 2:
            raise DataError(f"events CSV row {row!r} needs date and label")
        events.append(Event(date_spec=row[0].strip(), label=row[1].strip()))
    return EventList(events=events)


def load_events(name_or_path) -> EventList:
    """Load a bundled event list ('tsx60', 'djia') or a CSV file path."""
    key = str(name_or_path).lower()
    if key in BUILTIN_EVENT_FILES:
        text = (
            resources.files("flagcrash.data")
            .joinpath(BUILTIN_EVENT_FILES[key])
            .read_text(encoding="utf-8")
        )
        return parse_events_csv(text)
    with open(name_or_path, "r", encoding="utf-8") as f:
        return parse_events_csv(f)


def threshold_anomalies(
    series: AnomalySeries, percentile: float = DEFAULT_PERCENTILE
) -> list[date]:
    """Dates whose score strictly exceeds the interpolated percentile."""
    if len(series.scores) == 0:
        raise DataError("cannot threshold an empty score series")
    if not 0.0 < percentile < 100.0:
        raise DataError(f"percentile must be in (0, 100), got {percentile}")
    cutoff = float(np.percentile(series.scores, percentile))
    return [d for d, s in zip(series.dates, series.scores) if s > cutoff]


def _event_anchor_index(trading_days: list[date], event_date: date) -> int | None:
    """Index of the last trading day <= event_date, or None if before all."""
    pos = bisect_right(trading_days, event_date)
    return pos - 1 if pos > 0 else None


def signal_events(
    flags: list[date],
    trading_days: list[date],
    events: EventList,
    lookback: int = DEFAULT_LOOKBACK,
) -> tuple[list[dict], list[bool]]:
    """Per-event signal status and per-flag attribution.

    Flag dates must appear in `trading_days`.  An event dated before the
    first trading day is reported unsignalable (and not signaled).
    """
    if lookback < 1:
        raise DataError(f"lookback must be >= 1, got {lookback}")
    if any(b < a for a, b in zip(trading_days, trading_days[1:])):
        raise DataError("trading days must be sorted")
    day_index = {d: i for i, d in enumerate(trading_days)}
    flag_indices = []
    for f in flags:
        if f not in day_index:
            raise DataError(f"flag date {f.isoformat()} is not a trading day")
        flag_indices.append(day_index[f])
    flag_indices.sort()

    per_event = []
    windows = []
    for event in events.events:
        resolved = event.resolved_date()
        anchor = _event_anchor_index(trading_days, resolved)
        if anchor is None:
            per_event.append(
                {
                    "label": event.label,
                    "date": event.date_spec,
                    "signaled": False,
                    "unsignalable": True,
                }
            )
            continue
        lo = anchor - (lookback - 1)
        hit = bisect_left(flag_indices, lo) < bisect_right(flag_indices, anchor)
        windows.append((lo, anchor))
        per_event.append(
            {
                "label": event.label,
                "date": event.date_spec,
                "signaled": bool(hit),
                "unsignalable": False,
            }
        )
    attributed = [
        any(lo <= day_index[f] <= hi for lo, hi in windows) for f in flags
    ]
    return per_event, attributed


def metrics(
    flags: list[date],
    trading_days: list[date],
    events: EventList,
    lookback: int = DEFAULT_LOOKBACK,
    method: str = "",
) -> DetectionReport:
    """recall over events, precision over flags, f as their harmonic mean."""
    if not events.events:
        raise DataError("metrics needs a non-empty event list")
    per_event, attributed = signal_events(flags, trading_days, events, lookback)
    n_signaled = sum(1 for e in per_event if e["signaled"])
    recall = n_signaled / len(per_event)
    precision = (sum(attributed) / len(flags)) if flags else 0.0
    f_score = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return DetectionReport(
        method=method,
        precision=precision,
        recall=recall,
        f_score=f_score,
        per_event=per_event,
        anomalous_dates=sorted(flags),
        monthly_counts=monthly_counts(flags),
    )


def monthly_counts(flags: list[date]) -> list[tuple[str, int]]:
    """Calendar-month histogram of flagged dates, sorted by month."""
    counts = Counter(f"{d.year:04d}-{d.month:02d}" for d in flags)
    return sorted(counts.items())
