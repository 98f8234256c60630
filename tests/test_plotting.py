"""SVG emission: determinism, schemas, series truncation."""

import hashlib
import math
import re

import numpy as np
import pytest

from lecollapse.plotting import PLOT_KINDS, PlotSchemaError, emit_plot

X0, Y0, X1, Y1 = 64.0, 16.0, 624.0, 356.0  # plot rectangle in the fixed layout


def paths(svg: str):
    return re.findall(r'<path[^>]* d="([^"]*)"', svg)


def coords(d: str):
    return [
        (float(x), float(y))
        for x, y in re.findall(r"[ML]([-\d.]+),([-\d.]+)", d)
    ]


# --- the four kinds render ---


def test_front_trajectory_draws_one_polyline_covering_the_data():
    rows = [[t, 2.0 + 0.8 * t] for t in range(11)]
    svg = emit_plot(["time", "position"], rows, "front-trajectory")
    assert svg.startswith("<svg")
    drawn = paths(svg)
    assert len(drawn) == 1
    pts = coords(drawn[0])
    assert len(pts) == 11
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    # data spans the full plot rectangle
    assert min(xs) == pytest.approx(X0, abs=0.5)
    assert max(xs) == pytest.approx(X1, abs=0.5)
    assert min(ys) >= Y0 - 0.5 and max(ys) <= Y1 + 0.5
    # position grows with time: screen y falls as x grows
    assert ys[0] > ys[-1]


def test_field_profile_draws_one_path_per_field_column():
    rows = [[x, math.tanh(x), 0.5] for x in range(8)]
    svg = emit_plot(["position", "f_1", "f_2"], rows, "field-profile")
    assert len(paths(svg)) == 2
    assert "f_1" in svg and "f_2" in svg  # legend labels


def test_histogram_vs_density_renders_both_series():
    rows = [[0.1 * i, 1.0 - 0.05 * i, 0.9 - 0.05 * i] for i in range(11)]
    svg = emit_plot(
        ["p_1", "density", "histogram"], rows, "histogram-vs-density"
    )
    assert len(paths(svg)) == 2


def test_every_kind_is_exercised():
    assert set(PLOT_KINDS) == {
        "field-profile",
        "front-trajectory",
        "p-trajectory",
        "histogram-vs-density",
    }


# --- empty payloads [axes, no paths] ---


@pytest.mark.parametrize("kind,header", [
    ("front-trajectory", ["time", "position"]),
    ("field-profile", ["position", "f_1"]),
    ("p-trajectory", ["time", "p_1", "p_2"]),
    ("histogram-vs-density", ["p_1", "density"]),
])
def test_empty_series_gives_axes_but_no_paths(kind, header):
    svg = emit_plot(header, [], kind)
    assert "<svg" in svg and "<line" in svg  # frame and ticks survive
    assert paths(svg) == []


# --- p-trajectory truncation [verified by path coordinate extraction] ---


def test_absorbed_channel_series_stops_at_absorption_time():
    # p_1 dies at t = 4; the other two channels keep walking to t = 10
    rows = []
    for t in range(11):
        if t < 4:
            p1 = 0.3 - 0.075 * t
        else:
            p1 = 0.0
        rest = 1.0 - p1
        rows.append([float(t), p1, 0.4 * rest / 0.7, 0.3 * rest / 0.7])
    svg = emit_plot(["time", "p_1", "p_2", "p_3"], rows, "p-trajectory")
    drawn = paths(svg)
    assert len(drawn) == 3

    def x_end(d):
        return max(p[0] for p in coords(d))

    # time axis runs 0..10 over the plot rectangle
    def x_of(t):
        return X0 + (X1 - X0) * t / 10.0

    assert x_end(drawn[0]) == pytest.approx(x_of(4.0), abs=0.5)
    assert x_end(drawn[1]) == pytest.approx(x_of(10.0), abs=0.5)
    assert x_end(drawn[2]) == pytest.approx(x_of(10.0), abs=0.5)


def test_unabsorbed_trajectory_is_not_truncated():
    rows = [[float(t), 0.5, 0.5] for t in range(5)]
    svg = emit_plot(["time", "p_1", "p_2"], rows, "p-trajectory")
    for d in paths(svg):
        assert len(coords(d)) == 5


def test_initial_zero_does_not_count_as_absorption():
    # a channel may legitimately start at 0 and stay there
    rows = [[float(t), 0.0, 1.0] for t in range(5)]
    svg = emit_plot(["time", "p_1", "p_2"], rows, "p-trajectory")
    assert len(paths(svg)) == 2


# --- schema errors name the missing column ---


def test_missing_column_is_named():
    with pytest.raises(PlotSchemaError, match="position"):
        emit_plot(["time", "width"], [[0.0, 1.0]], "front-trajectory")
    with pytest.raises(PlotSchemaError, match="time"):
        emit_plot(["position", "width"], [[0.0, 1.0]], "front-trajectory")
    with pytest.raises(PlotSchemaError, match="p_"):
        emit_plot(["time", "q_1"], [[0.0, 1.0]], "p-trajectory")
    with pytest.raises(PlotSchemaError, match="density"):
        emit_plot(["p_1", "histogram"], [[0.0, 1.0]], "histogram-vs-density")


def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError, match="kind"):
        emit_plot(["time", "position"], [], "pie-chart")


# --- determinism and gaps ---


def test_identical_payload_gives_identical_bytes():
    rows = [[t, math.sin(t / 3.0)] for t in range(50)]
    a = emit_plot(["time", "position"], rows, "front-trajectory")
    b = emit_plot(["time", "position"], rows, "front-trajectory")
    assert a == b
    assert a.encode() == b.encode()


def test_nan_sample_lifts_the_pen():
    rows = [[0.0, 1.0], [1.0, 2.0], [2.0, float("nan")], [3.0, 4.0], [4.0, 5.0]]
    svg = emit_plot(["time", "position"], rows, "front-trajectory")
    (d,) = paths(svg)
    # two move-to commands: the gap splits the polyline
    assert d.count("M") == 2


@pytest.mark.parametrize("value", [1e17, -1e17, 2.0**52, 1.5, 0.0])
def test_a_constant_series_of_any_size_is_drawn_mid_height(value, recwarn):
    # at 1e17 a widening of 0.5 rounds away and left a zero span
    svg = emit_plot(["time", "position"], [[0.0, value], [1.0, value]],
                    "front-trajectory")
    assert not recwarn.list
    assert "nan" not in svg and "inf" not in svg
    (d,) = paths(svg)
    assert [y for _, y in coords(d)] == [(Y0 + Y1) / 2] * 2


# --- bytes pinned across random payloads ---

_HEADERS = {
    "field-profile": lambda rng: ["position"] + [
        f"f_{k}" for k in range(1, rng.integers(1, 4) + 1)],
    "front-trajectory": lambda rng: [
        "time", "position", "width", "speed_estimate"],
    "p-trajectory": lambda rng: ["time"] + [
        f"p_{k}" for k in range(1, rng.integers(2, 5) + 1)],
    "histogram-vs-density": lambda rng: ["p_1", "density"] + (
        ["histogram"] if rng.integers(2) else []),
}
_GAPS = (float("nan"), float("inf"), -float("inf"))


def _random_column(rng, n):
    shape = rng.integers(4)
    if shape == 0:  # constant
        col = np.full(n, rng.choice([0.0, -0.0, 1.0, 0.25, -3.5]))
    elif shape == 1:  # walks that can hit an absorbing 0 or 1 exactly
        col = rng.choice([0.0, -0.0, 0.2, 0.5, 1.0], n)
    else:
        col = rng.normal(rng.normal(0.0, 10.0), 10.0 ** rng.uniform(-3, 3), n)
    gaps = rng.random(n) < rng.choice([0.0, 0.1, 0.5, 1.0])
    col[gaps] = rng.choice(_GAPS, gaps.sum())
    return col


def _random_payloads(kind, count, seed=0):
    """``count`` (header, rows) payloads of one kind, some of them empty."""
    rng = np.random.default_rng([seed, PLOT_KINDS.index(kind)])
    for _ in range(count):
        header = _HEADERS[kind](rng)
        n = int(rng.choice([0, 1, 2, 5, 40]))
        cols = [_random_column(rng, n) for _ in header]
        yield header, np.column_stack(cols).tolist()


# sha256 of every SVG of the kind's 150 random payloads, end to end, as
# emitted by the per-point drawing loop the array version replaced
_PINNED = {
    "field-profile":
        "2aa189c6658e91224376d2adabf8d4e02e73cf488193ed7c74957a89aed177c2",
    "front-trajectory":
        "5df2784d74b2b02505b2b7af78dbede5c3fab5778bc091af97a61864c76a471c",
    "p-trajectory":
        "48ae010c6b2d1d94b06984367ac15efb6ab402edb08a19d2b43aa872f003a1dd",
    "histogram-vs-density":
        "c392164cfc5ce4987ac7f197b1a758ae8450854208986977d3901e4bd14d96f0",
}


@pytest.mark.parametrize("kind", PLOT_KINDS)
def test_random_payloads_keep_their_bytes(kind):
    digest = hashlib.sha256()
    for header, rows in _random_payloads(kind, 150):
        digest.update(emit_plot(header, rows, kind).encode())
    assert digest.hexdigest() == _PINNED[kind]
