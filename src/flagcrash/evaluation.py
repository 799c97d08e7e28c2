"""Anomaly flags, event matching, and precision/recall/f-score.

An event is signaled when a flagged date falls within the `lookback`
trading days up to and including the event's anchor (the last trading day
on or before its date).  Business days are the trading days actually
present in the score series; no exchange calendar is consulted.  Events
given at month granularity resolve to the 15th before anchoring.

Matching runs on two boolean masks over the trading days: the flagged
days, and the days inside some event's window.  An event is signaled when
its window's slice of the flag mask holds a flag; a flag counts toward
precision when the window mask covers its day.  `metrics` returns the
report as the dict that `report_*.json` holds.  `month_key` is the one
`YYYY-MM` key of the monthly histogram and of its chart.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from datetime import date
from importlib import resources

import numpy as np

from .detectors import AnomalySeries
from .errors import DataError
from .tables import parse_day

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
        try:
            return parse_day(spec + "-15" if spec.count("-") == 1 else spec)
        except ValueError:
            raise DataError(f"cannot parse event date {spec!r} (want YYYY-MM[-DD])") from None


@dataclass
class EventList:
    events: list[Event]

    def __post_init__(self):
        resolved = [e.resolved_date() for e in self.events]
        if any(b <= a for a, b in zip(resolved, resolved[1:])):
            raise DataError("event dates must be strictly increasing")


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
    if len(rows) == start:
        raise DataError("events CSV has a header but no events")
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
    with open(name_or_path, "r", encoding="utf-8-sig") as f:
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
    flagged = np.zeros(len(trading_days), dtype=bool)  # days holding a flag
    covered = np.zeros(len(trading_days), dtype=bool)  # days in some event's window
    for f in flags:
        if f not in day_index:
            raise DataError(f"flag date {f.isoformat()} is not a trading day")
        flagged[day_index[f]] = True

    per_event = []
    for event in events.events:
        # the anchor is the last trading day on or before the event; -1 when
        # the event precedes them all, which leaves its window empty
        anchor = bisect_right(trading_days, event.resolved_date()) - 1
        window = slice(max(anchor - lookback + 1, 0), anchor + 1)
        covered[window] = True
        per_event.append(
            {
                "label": event.label,
                "date": event.date_spec,
                "signaled": bool(flagged[window].any()),
                "unsignalable": anchor < 0,
            }
        )
    return per_event, [bool(covered[day_index[f]]) for f in flags]


def metrics(
    flags: list[date],
    trading_days: list[date],
    events: EventList,
    lookback: int = DEFAULT_LOOKBACK,
    method: str = "",
) -> dict:
    """recall over events, precision over flags, f as their harmonic mean:
    the report as `report_*.json` holds it, with ISO dates and
    `[month, count]` pairs."""
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
    return {
        "method": method,
        "precision": precision,
        "recall": recall,
        "f_score": f_score,
        "per_event": per_event,
        "anomalous_dates": [d.isoformat() for d in sorted(flags)],
        "monthly_counts": [[m, c] for m, c in monthly_counts(flags)],
    }


def month_key(d: date) -> str:
    """The `YYYY-MM` key of the calendar month holding `d`."""
    return f"{d.year:04d}-{d.month:02d}"


def monthly_counts(flags: list[date]) -> list[tuple[str, int]]:
    """Calendar-month histogram of flagged dates, sorted by month."""
    return sorted(Counter(map(month_key, flags)).items())
