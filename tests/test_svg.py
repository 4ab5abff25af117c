"""Tests of the dependency-free SVG chart writer."""
import math

import pytest

from specsense.svg import Series, render_line_chart


def _chart(**kwargs) -> str:
    series = kwargs.pop(
        "series",
        [Series(label="a", x=(0.0, 1.0, 2.0), y=(0.1, 0.5, 0.9))],
    )
    return render_line_chart(series, kwargs.pop("title", "t"),
                             kwargs.pop("x_label", "x"),
                             kwargs.pop("y_label", "y"))


def test_series_validation():
    with pytest.raises(ValueError):
        Series(label="bad", x=(1.0, 2.0), y=(1.0,))
    with pytest.raises(ValueError):
        Series(label="empty", x=(), y=())
    for x, y in (((math.nan,), (0.5,)), ((0.0,), (math.inf,)), ((0.0, -math.inf), (0.5, 0.5))):
        with pytest.raises(ValueError, match="finite"):
            Series(label="non-finite", x=x, y=y)


def test_chart_structure():
    svg = _chart(title="Detection vs SNR", x_label="SNR (dB)", y_label="Pd")
    assert svg.startswith("<?xml")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 1
    assert "Detection vs SNR" in svg
    assert "SNR (dB)" in svg


def test_chart_one_polyline_per_series():
    series = [
        Series(label="static", x=(0.0, 1.0), y=(0.2, 0.4)),
        Series(label="dynamic", x=(0.0, 1.0), y=(0.5, 0.8)),
    ]
    svg = _chart(series=series)
    assert svg.count("<polyline") == 2
    assert "static" in svg and "dynamic" in svg


def test_chart_deterministic():
    assert _chart() == _chart()


def test_chart_escapes_markup():
    svg = _chart(title="a < b & c")
    assert "a &lt; b &amp; c" in svg
    assert "a < b & c" not in svg


def test_chart_handles_flat_series():
    series = [Series(label="flat", x=(1.0, 2.0), y=(0.5, 0.5))]
    svg = _chart(series=series)
    assert "<polyline" in svg


def test_chart_rejects_empty_input():
    with pytest.raises(ValueError):
        render_line_chart([], "t", "x", "y")


@pytest.mark.parametrize("x, y", [
    ((1.7976931348623157e308,), (0.5,)),  # the equal-ends span reaches inf
    ((-1e308, 1e308), (0.5, 0.5)),
    ((0.0, 1.0), (0.0, 1.7e308)),  # the padded span overflows
], ids=["largest-float", "x-span", "y-padding"])
def test_chart_rejects_an_axis_span_that_is_not_finite(x, y):
    # Such spans once wrote nan and inf coordinates.
    with pytest.raises(ValueError, match="axis span"):
        _chart(series=[Series(label="a", x=x, y=y)])


@pytest.mark.parametrize("x", [0.0, 1e17], ids=["zero", "x-plus-one-rounds-back"])
def test_chart_of_one_point_puts_it_at_the_left_edge(x):
    # At 1e17, x + 1 == x: the axis once had a zero span and the chart
    # raised ZeroDivisionError.
    svg = _chart(series=[Series(label="a", x=(x,), y=(0.5,))])
    assert '<circle cx="70.00"' in svg
    assert "nan" not in svg and "inf" not in svg
