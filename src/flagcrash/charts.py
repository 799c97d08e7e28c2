"""Self-contained SVG bar charts of monthly anomaly counts.

No plotting dependency: the chart is a fixed-size SVG with one bar per
calendar month, from the earliest month among the counts, the events and
the span through the latest, and numbered vertical markers at the event
months.  Months are keyed by `evaluation.month_key`.
"""

from __future__ import annotations

import html
from datetime import date

from .evaluation import month_key

WIDTH = 960
HEIGHT = 280
MARGIN_LEFT = 46
MARGIN_RIGHT = 14
MARGIN_TOP = 30
MARGIN_BOTTOM = 36


def monthly_counts_svg(
    counts: list[tuple[str, int]],
    event_dates: list[tuple[str, date]],
    title: str,
    path,
    span: tuple[date, date] | None = None,
) -> None:
    """Write the chart; `event_dates` pairs a label with a resolved date.

    `span` widens the month axis to cover a whole series, so quiet months
    show as gaps rather than being dropped.
    """
    count_map = dict(counts)
    # the axis runs from the earliest month of the counts, the events and
    # the span through the latest, as month numbers year * 12 + month - 1
    keys = [*count_map, *(month_key(d) for _, d in event_dates), *map(month_key, span or ())]
    numbers = [int(k[:4]) * 12 + int(k[5:]) - 1 for k in keys]
    months = [
        month_key(date(i // 12, i % 12 + 1, 1))
        for i in range(min(numbers, default=0), max(numbers, default=-1) + 1)
    ]
    n = max(len(months), 1)
    max_count = max(count_map.values(), default=1)
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    bar_w = plot_w / n

    def x_of(idx: float) -> float:
        return MARGIN_LEFT + idx * bar_w

    def y_of(count: float) -> float:
        return MARGIN_TOP + plot_h * (1.0 - count / max_count)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{MARGIN_LEFT}" y="18" font-family="sans-serif" font-size="13">'
        f"{html.escape(title, quote=False)}</text>",
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP + plot_h}" '
        f'x2="{WIDTH - MARGIN_RIGHT}" y2="{MARGIN_TOP + plot_h}" stroke="black"/>',
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" '
        f'x2="{MARGIN_LEFT}" y2="{MARGIN_TOP + plot_h}" stroke="black"/>',
        f'<text x="8" y="{MARGIN_TOP + 4}" font-family="sans-serif" font-size="11">'
        f"{max_count}</text>",
        f'<text x="8" y="{MARGIN_TOP + plot_h}" font-family="sans-serif" '
        f'font-size="11">0</text>',
    ]
    month_pos = {m: i for i, m in enumerate(months)}
    for m, c in counts:
        if c <= 0 or m not in month_pos:
            continue
        x = x_of(month_pos[m])
        parts.append(
            f'<rect x="{x:.2f}" y="{y_of(c):.2f}" width="{max(bar_w, 1.0):.2f}" '
            f'height="{(plot_h * c / max_count):.2f}" fill="#3366aa"/>'
        )
    for m in months:
        if m.endswith("-01") or len(months) <= 14:
            x = x_of(month_pos[m])
            parts.append(
                f'<text x="{x:.2f}" y="{HEIGHT - 14}" font-family="sans-serif" '
                f'font-size="10">{m[:4] if m.endswith("-01") else m}</text>'
            )
    for idx, (label, d) in enumerate(event_dates, start=1):
        pos = month_pos.get(month_key(d))
        if pos is None:
            continue
        x = x_of(pos + 0.5)
        parts.append(
            f'<line x1="{x:.2f}" y1="{MARGIN_TOP}" x2="{x:.2f}" '
            f'y2="{MARGIN_TOP + plot_h}" stroke="#cc3333" stroke-dasharray="4,3"/>'
        )
        parts.append(
            f'<text x="{x + 3:.2f}" y="{MARGIN_TOP + 12}" font-family="sans-serif" '
            f'font-size="11" fill="#cc3333">{idx}</text>'
        )
        # a comment may not hold "--"; a label without one keeps its bytes
        comment = html.escape(label, quote=False).replace("--", "-&#45;")
        parts.append(f"<!-- event {idx}: {comment} -->")
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(parts) + "\n")

