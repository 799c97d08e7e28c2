import xml.etree.ElementTree as ET
from datetime import date

import pytest

from flagcrash.charts import monthly_counts_svg


def render(tmp_path, counts, events, span=None):
    path = tmp_path / "chart.svg"
    monthly_counts_svg(counts, events, title="demo", path=path, span=span)
    return path.read_text()


@pytest.mark.parametrize(
    "label, comment",
    [("crash", "crash"), ("GFC -- Lehman", "GFC -&#45; Lehman"), ("a---b", "a-&#45;-b"),
     ("--", "-&#45;"), ("dip-", "dip-"), ("<1987>", "&lt;1987&gt;")],
)
def test_chart_is_wellformed_xml(tmp_path, label, comment):
    # an XML comment may not hold "--"; a label without one is written as it is
    text = render(
        tmp_path,
        [("2020-01", 3), ("2020-03", 1)],
        [(label, date(2020, 3, 10))],
    )
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    assert f"<!-- event 1: {comment} -->" in text


def test_bars_and_event_markers_present(tmp_path):
    text = render(
        tmp_path,
        [("2020-01", 3), ("2020-02", 5)],
        [("crash one", date(2020, 2, 10)), ("crash two", date(2020, 4, 1))],
    )
    assert text.count('fill="#3366aa"') == 2  # one bar per nonzero month
    assert text.count("stroke-dasharray") == 2  # one marker per event
    assert ">1<" in text and ">2<" in text  # numbered markers
    assert "crash one" in text  # label kept as a comment


def test_span_extends_axis(tmp_path):
    narrow = render(tmp_path, [("2020-06", 2)], [])
    wide = render(
        tmp_path, [("2020-06", 2)], [], span=(date(2020, 1, 2), date(2021, 12, 30))
    )
    assert len(wide) > len(narrow)
    assert "2021" in wide and "2021" not in narrow


def test_empty_counts_still_renders(tmp_path):
    text = render(tmp_path, [], [])
    assert text.startswith("<svg")


def test_title_escaped(tmp_path):
    path = tmp_path / "esc.svg"
    monthly_counts_svg([], [], title="a<b&c", path=path)
    text = path.read_text()
    assert "a&lt;b&amp;c" in text
    ET.fromstring(text)
