from datetime import date, timedelta

import numpy as np
import pytest

from flagcrash.detectors import AnomalySeries
from flagcrash.errors import DataError
from flagcrash.evaluation import (
    Event,
    EventList,
    load_events,
    metrics,
    monthly_counts,
    parse_events_csv,
    signal_events,
    threshold_anomalies,
)


def weekdays(start: date, n: int) -> list[date]:
    days = []
    d = start
    while len(days) < n:
        if d.weekday() < 5:
            days.append(d)
        d += timedelta(days=1)
    return days


def series(scores, start=date(2015, 1, 5)):
    days = weekdays(start, len(scores))
    return AnomalySeries(dates=days, scores=np.asarray(scores, float), method_tag="t")


class TestThreshold:
    def test_200_distinct_scores_flag_exactly_5(self):
        s = series(np.arange(200, dtype=float))
        assert len(threshold_anomalies(s, 97.5)) == 5

    def test_all_equal_scores_flag_nothing(self):
        s = series(np.ones(50))
        assert threshold_anomalies(s, 97.5) == []

    def test_scores_1_to_1000(self):
        s = series(np.arange(1, 1001, dtype=float))
        flagged = threshold_anomalies(s, 97.5)
        assert 24 <= len(flagged) <= 25
        # interpolated cutoff is 975.025, so 976..1000 exceed it
        assert len(flagged) == 25

    def test_flags_are_top_scores(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=400)
        s = series(scores)
        flagged = set(threshold_anomalies(s))
        order = np.argsort(scores)
        expected = {s.dates[i] for i in order[-len(flagged) :]}
        assert flagged == expected

    def test_bad_arguments(self):
        with pytest.raises(DataError):
            threshold_anomalies(series([1.0]), 0.0)
        with pytest.raises(DataError):
            threshold_anomalies(
                AnomalySeries(dates=[], scores=np.array([]), method_tag="x")
            )


class TestSignalEvents:
    def setup_method(self):
        self.days = weekdays(date(2015, 1, 5), 200)
        self.events = EventList([Event(self.days[150].isoformat(), "crisis")])

    def test_flag_10_days_before_signals(self):
        flags = [self.days[140]]
        per_event, attributed = signal_events(flags, self.days, self.events, 50)
        assert per_event[0]["signaled"] is True
        assert attributed == [True]

    def test_flag_51_days_before_does_not_signal(self):
        flags = [self.days[150 - 51]]
        per_event, attributed = signal_events(flags, self.days, self.events, 50)
        assert per_event[0]["signaled"] is False
        assert attributed == [False]

    def test_anchor_day_itself_counts(self):
        per_event, _ = signal_events([self.days[150]], self.days, self.events, 50)
        assert per_event[0]["signaled"] is True

    def test_oldest_window_day_counts_but_one_earlier_does_not(self):
        per_event, _ = signal_events([self.days[101]], self.days, self.events, 50)
        assert per_event[0]["signaled"] is True
        per_event, _ = signal_events([self.days[100]], self.days, self.events, 50)
        assert per_event[0]["signaled"] is False

    def test_no_flags_no_signals(self):
        per_event, attributed = signal_events([], self.days, self.events, 50)
        assert per_event[0]["signaled"] is False and attributed == []

    def test_event_before_first_trading_day_unsignalable(self):
        events = EventList([Event("2014-01-02", "too-early")])
        per_event, _ = signal_events([], self.days, events, 50)
        assert per_event[0]["unsignalable"] is True

    def test_month_granular_event_resolves_to_15th(self):
        # month spec anchors at the last trading day <= the 15th
        events = EventList([Event("2015-03", "monthly")])
        per_event, _ = signal_events([], self.days, events, 50)
        assert per_event[0]["unsignalable"] is False
        anchor = max(d for d in self.days if d <= date(2015, 3, 15))
        flags = [anchor]
        per_event, attributed = signal_events(flags, self.days, events, 50)
        assert per_event[0]["signaled"] is True

    def test_flag_not_a_trading_day_rejected(self):
        with pytest.raises(DataError, match="not a trading day"):
            signal_events([date(2015, 1, 3)], self.days, self.events, 50)


class TestMetrics:
    def setup_method(self):
        self.days = weekdays(date(2015, 1, 5), 300)

    def test_half_recall_full_precision(self):
        events = EventList(
            [
                Event(self.days[100].isoformat(), "a"),
                Event(self.days[250].isoformat(), "b"),
            ]
        )
        flags = [self.days[95], self.days[98]]
        report = metrics(flags, self.days, events, 50)
        assert report.recall == pytest.approx(0.5)
        assert report.precision == pytest.approx(1.0)
        assert report.f_score == pytest.approx(2 / 3)

    def test_unattributed_flags_zero_precision_zero_f(self):
        events = EventList([Event(self.days[200].isoformat(), "a")])
        flags = [self.days[10]]
        report = metrics(flags, self.days, events, 50)
        assert report.precision == 0.0 and report.f_score == 0.0
        assert report.recall == 0.0

    def test_empty_events_rejected(self):
        with pytest.raises(DataError):
            metrics([], self.days, EventList([]), 50)

    def test_f_zero_iff_precision_or_recall_zero(self):
        events = EventList([Event(self.days[100].isoformat(), "a")])
        flags = [self.days[95], self.days[5]]
        report = metrics(flags, self.days, events, 50)
        assert report.recall == 1.0 and report.precision == 0.5
        assert report.f_score > 0.0

    @pytest.mark.parametrize("seed", range(500))
    def test_against_pairwise_brute_force(self, seed):
        rng = np.random.default_rng(7000 + seed)
        n_days = int(rng.integers(30, 120))
        days = weekdays(date(2012, 1, 2), n_days)
        lookback = int(rng.integers(2, 25))
        event_idx = sorted(
            rng.choice(n_days, size=int(rng.integers(1, 4)), replace=False)
        )
        events = EventList(
            [Event(days[i].isoformat(), f"e{i}") for i in event_idx]
        )
        flag_idx = sorted(
            rng.choice(n_days, size=int(rng.integers(0, 8)), replace=False)
        )
        flags = [days[i] for i in flag_idx]

        report = metrics(flags, days, events, lookback)

        # literal double loop over (flag, event) pairs
        signaled = set()
        attributed = set()
        for e_pos, ei in enumerate(event_idx):
            for fi in flag_idx:
                if ei - (lookback - 1) <= fi <= ei:
                    signaled.add(e_pos)
                    attributed.add(fi)
        want_recall = len(signaled) / len(event_idx)
        want_precision = len(attributed) / len(flag_idx) if flag_idx else 0.0
        assert report.recall == pytest.approx(want_recall)
        assert report.precision == pytest.approx(want_precision)

    def test_adding_flag_inside_window_never_decreases_recall(self):
        events = EventList([Event(self.days[100].isoformat(), "a")])
        base = metrics([self.days[5]], self.days, events, 50)
        more = metrics([self.days[5], self.days[90]], self.days, events, 50)
        assert more.recall >= base.recall

    def test_adding_flag_outside_windows_never_increases_precision(self):
        events = EventList([Event(self.days[100].isoformat(), "a")])
        base = metrics([self.days[90]], self.days, events, 50)
        more = metrics([self.days[90], self.days[299]], self.days, events, 50)
        assert more.precision <= base.precision


class TestMonthlyCounts:
    def test_empty(self):
        assert monthly_counts([]) == []

    def test_single_month(self):
        flags = [date(2020, 3, 2), date(2020, 3, 5), date(2020, 3, 30)]
        assert monthly_counts(flags) == [("2020-03", 3)]

    def test_year_boundary(self):
        flags = [date(2019, 12, 30), date(2020, 1, 2), date(2020, 1, 3)]
        assert monthly_counts(flags) == [("2019-12", 1), ("2020-01", 2)]


class TestEventFiles:
    def test_bundled_tsx60_events(self):
        events = load_events("tsx60")
        assert [e.date_spec for e in events.events] == [
            "2007-09",
            "2009-01",
            "2011-10",
            "2013-04",
            "2015-01",
            "2016-02",
            "2020-04",
        ]

    def test_bundled_djia_events(self):
        events = load_events("djia")
        assert len(events.events) == 7
        assert events.events[0].date_spec == "2007-09"
        assert events.events[-1].date_spec == "2020-03"

    def test_parse_events_csv_with_header_and_full_dates(self):
        text = "date,label\n2020-01-15,alpha\n2020-06,beta\n"
        events = parse_events_csv(text)
        assert events.events[0].resolved_date() == date(2020, 1, 15)
        assert events.events[1].resolved_date() == date(2020, 6, 15)

    def test_nonincreasing_events_rejected(self):
        with pytest.raises(DataError):
            EventList([Event("2020-05", "a"), Event("2020-04", "b")])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("date,label\n" + "9" * 30 + "-01,huge\n", "cannot parse event date"),
            ("date,label\n2020-01-15," + "x" * 200_000 + "\n", "field larger"),
        ],
        ids=["year-overflows", "field-too-long"],
    )
    def test_unreadable_event_rows_rejected(self, text, message):
        with pytest.raises(DataError, match=message):
            parse_events_csv(text)
