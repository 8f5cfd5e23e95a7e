import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsallisq import (
    ANALYTIC_Q_MAX,
    ANALYTIC_Q_MIN,
    ConvergenceError,
    DomainError,
    SignScanReport,
    critical_q,
    curvature_limit_at_max_c,
    find_root_q,
    holds_power_bound,
    holds_sum_power_bound,
    scan_sign,
    tee_curvature,
    tee_curvature_wrt_c,
    tee_from_concurrence_sq,
    tee_sq_curvature,
)

SQRT13 = math.sqrt(13.0)


# --- curvature w.r.t. concurrence ----------------------------------------------


def test_curvature_wrt_c_constant_at_q2():
    cs = np.linspace(0.0, 1.0, 41)
    assert np.allclose(tee_curvature_wrt_c(2.0, cs), 1.0, atol=1e-12)


@pytest.mark.parametrize(
    "q,c,expect",
    [
        (4.0, 1.0, 1 / 6),
        (1.0, 1.0, 1 / 3),
        (2.0, 0.0, 1.0),
        (3.0, 0.0, 3 / 4),
    ],
)
def test_curvature_wrt_c_endpoints(q, c, expect):
    assert tee_curvature_wrt_c(q, c) == pytest.approx(expect, abs=1e-12)


def test_curvature_wrt_c_diverges_at_zero_for_small_q():
    assert tee_curvature_wrt_c(0.8, 0.0) == math.inf
    assert tee_curvature_wrt_c(1.0, 0.0) == math.inf


def test_curvature_limit_closed_values():
    assert curvature_limit_at_max_c(2.0) == pytest.approx(1.0, abs=1e-14)
    assert curvature_limit_at_max_c(4.0) == pytest.approx(1 / 6, abs=1e-14)
    assert curvature_limit_at_max_c(1.0) == pytest.approx(1 / 3, abs=1e-14)


def test_curvature_limit_roots_are_window_edges():
    assert curvature_limit_at_max_c(ANALYTIC_Q_MIN) == pytest.approx(0.0, abs=1e-13)
    assert curvature_limit_at_max_c(ANALYTIC_Q_MAX) == pytest.approx(0.0, abs=1e-13)


def test_curvature_wrt_c_matches_limit_at_one():
    for q in (0.75, 1.3, 2.6, 4.1):
        assert tee_curvature_wrt_c(q, 1.0) == pytest.approx(
            curvature_limit_at_max_c(q), abs=1e-12
        )


def test_curvature_wrt_c_negative_outside_window():
    assert tee_curvature_wrt_c(0.65, 0.98) < 0.0
    assert tee_curvature_wrt_c(4.35, 0.999) < 0.0


# --- curvature w.r.t. squared concurrence ---------------------------------------


def test_tee_curvature_special_q():
    xs = np.linspace(0.0, 1.0, 31)
    assert np.allclose(tee_curvature(xs, 2.0), 0.0, atol=1e-12)
    assert np.allclose(tee_curvature(xs, 3.0), 0.0, atol=1e-12)
    assert np.allclose(tee_curvature(xs, 4.0), -1 / 12, atol=1e-12)


@pytest.mark.parametrize(
    "x,q,expect",
    [
        (0.0, 2.5, 5 / 96),
        (1.0, 1.0, -1 / 6),
        (1.0, 4.0, -1 / 12),
        (1.0, 2.5, 2.5 * 0.5 * 0.5 / (3 * 2**3.5)),
    ],
)
def test_tee_curvature_endpoint_values(x, q, expect):
    assert tee_curvature(x, q) == pytest.approx(expect, abs=1e-12)


def test_tee_curvature_divergence_at_zero():
    assert tee_curvature(0.0, 1.0) == -math.inf
    assert tee_curvature(0.0, 1.5) == -math.inf
    assert tee_curvature(0.0, 2.0) == 0.0


def test_tee_sq_curvature_constants():
    xs = np.linspace(0.0, 0.999, 37)
    assert np.allclose(tee_sq_curvature(xs, 2.0), 0.5, atol=1e-10)
    assert np.allclose(tee_sq_curvature(xs, 3.0), 9 / 32, atol=1e-10)


@pytest.mark.parametrize(
    "x,q,expect",
    [
        (0.0, 4.0, 2 / 9),
        (1.0, 4.0, 11 / 144),
        (0.0, 3.0, 9 / 32),
        (1.0, 2.0, 0.5),
    ],
)
def test_tee_sq_curvature_values(x, q, expect):
    assert tee_sq_curvature(x, q) == pytest.approx(expect, abs=1e-12)


def test_tee_sq_curvature_divergence_at_zero():
    assert tee_sq_curvature(0.0, 1.0) == math.inf
    assert tee_sq_curvature(0.0, 0.8) == math.inf


@pytest.mark.parametrize("q", [0.8, 1.0, 2.0, 3.5])
def test_curvature_wrt_c_tiny_c_takes_the_c0_limit(q):
    # c > 0 whose square underflows to 0 is the c = 0 limit, not 0 * inf
    assert tee_curvature_wrt_c(q, 1e-170) == tee_curvature_wrt_c(q, 0.0)


def _edge_closed_forms(q):
    """(x or c, tee_curvature, tee_sq_curvature, tee_curvature_wrt_c) at 0 and 1."""
    f_one = math.log(2.0) if q == 1.0 else (1.0 - 2.0 ** (1.0 - q)) / (q - 1.0)
    fpp_one = -q * (q - 2.0) * (q - 3.0) / (3.0 * 2.0 ** (q + 1.0))
    if q < 2.0:
        fpp_zero = -math.inf
    else:
        fpp_zero = 0.0 if q == 2.0 else q * (3.0 - q) / (16.0 * (q - 1.0))
    at_zero = (
        fpp_zero,
        q * q / (8.0 * (q - 1.0) ** 2) if q > 1.0 else math.inf,
        q / (2.0 * (q - 1.0)) if q > 1.0 else math.inf,
    )
    at_one = (
        fpp_one,
        2.0 * q * q / 4.0**q + 2.0 * f_one * fpp_one,
        -q * (q * q - 5.0 * q + 3.0) / (3.0 * 2.0 ** (q - 1.0)),
    )
    return [(0.0, *at_zero), (1.0, *at_one)]


@pytest.mark.parametrize("q", [0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.25])
def test_curvature_edges_match_closed_forms(q):
    for t, curv, sq, wrt_c in _edge_closed_forms(q):
        got = (tee_curvature(t, q), tee_sq_curvature(t, q), tee_curvature_wrt_c(q, t))
        for value, expect in zip(got, (curv, sq, wrt_c)):
            if math.isinf(expect) or expect == 0.0:
                assert value == expect, (t, q)
            else:
                assert value == pytest.approx(expect, rel=1e-14, abs=0.0), (t, q)


def test_curvatures_broadcast_and_scalar():
    out = tee_curvature(np.linspace(0, 1, 5), np.array([[2.0], [4.0]]))
    assert out.shape == (2, 5)
    assert isinstance(tee_curvature(0.5, 2.0), float)
    assert isinstance(tee_sq_curvature(0.5, 2.0), float)
    assert isinstance(tee_curvature_wrt_c(2.0, 0.5), float)


def test_curvature_rejects_bad_domain():
    with pytest.raises(DomainError):
        tee_curvature(1.5, 2.0)
    with pytest.raises(DomainError):
        tee_curvature_wrt_c(2.0, -0.2)


# --- finite-difference cross-checks ---------------------------------------------


def _fd2(f, x, h):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


@pytest.mark.parametrize("q", [0.85, 1.0, 1.6, 2.5, 3.7])
def test_fd_matches_tee_curvature(q):
    for x in (0.15, 0.45, 0.85):
        fd = _fd2(lambda t: float(tee_from_concurrence_sq(t, q)), x, 3e-4)
        closed = tee_curvature(x, q)
        assert fd == pytest.approx(closed, rel=1e-4, abs=1e-8)


@pytest.mark.parametrize("q", [0.85, 1.0, 1.6, 2.5, 3.7])
def test_fd_matches_tee_sq_curvature(q):
    for x in (0.15, 0.45, 0.85):
        fd = _fd2(lambda t: float(tee_from_concurrence_sq(t, q)) ** 2, x, 3e-4)
        closed = tee_sq_curvature(x, q)
        assert fd == pytest.approx(closed, rel=1e-4, abs=1e-8)


@pytest.mark.parametrize("q", [0.8, 1.0, 2.2, 4.25])
def test_fd_matches_curvature_wrt_c(q):
    for c in (0.2, 0.5, 0.9):
        fd = _fd2(lambda t: float(tee_from_concurrence_sq(t * t, q)), c, 1e-4)
        closed = tee_curvature_wrt_c(q, c)
        assert fd == pytest.approx(closed, rel=1e-4, abs=1e-8)


# --- root finding ---------------------------------------------------------------


def test_critical_q_matches_closed_form():
    lo, hi = critical_q()
    assert lo == pytest.approx((5 - SQRT13) / 2, abs=1e-12)
    assert hi == pytest.approx((5 + SQRT13) / 2, abs=1e-12)


def test_find_root_polynomial():
    root = find_root_q(lambda t: t**3 - 2.0, (1.0, 2.0))
    assert root == pytest.approx(2.0 ** (1 / 3), abs=1e-10)


def test_find_root_requires_bracket():
    with pytest.raises(DomainError):
        find_root_q(lambda t: t * t + 1.0, (0.0, 1.0))


def test_find_root_refuses_a_nan_bracket_end():
    # NaN * f(b) > 0 is False, so the sign test alone would let a NaN end
    # through, and the bisection would return a point where f = 0.7
    def func(t):
        return math.nan if t == 0.0 else t - 0.3

    for bracket in ((0.0, 1.0), (1.0, 0.0)):
        with pytest.raises(DomainError):
            find_root_q(func, bracket)
    with pytest.raises(DomainError):
        find_root_q(lambda t: math.inf if t == 1.0 else t - 0.3, (0.0, 1.0))


def test_find_root_trace_brackets_shrink():
    trace = []
    root = find_root_q(lambda t: math.cos(t) - t, (0.0, 1.5), trace=trace)
    widths = [hi - lo for lo, hi in trace]
    assert all(w >= -1e-15 for w in widths)
    # widths never grow; the solver may stop on the residual before the
    # bracket itself collapses, so only require real progress plus a tiny f
    assert all(b <= a + 1e-15 for a, b in zip(widths, widths[1:]))
    assert widths[-1] < 1e-3
    assert abs(math.cos(root) - root) < 1e-10


def test_find_root_raises_at_iteration_cap():
    with pytest.raises(ConvergenceError, match="after 2 iterations"):
        find_root_q(lambda t: math.cos(t) - t, (0.0, 1.5), max_iter=2)
    # ConvergenceError is a RuntimeError, not a domain complaint about the input
    assert issubclass(ConvergenceError, RuntimeError)
    assert not issubclass(ConvergenceError, DomainError)


def test_find_root_q_bisects():
    calls, trace = [], []

    def func(t):
        calls.append(t)
        return math.cos(t) - t

    root = find_root_q(func, (0.0, 1.5), f_tol=0.0, trace=trace)
    widths = [hi - lo for lo, hi in trace]
    # every step halves the bracket, with no interpolated step in between
    assert all(b == a / 2.0 for a, b in zip(widths, widths[1:]))
    assert widths[-1] <= 1e-12 < widths[-2]
    assert len(calls) <= math.ceil(math.log2(1.5 / 1e-12)) + 3
    # the returned end is the bracket end with the smaller |f|
    assert root in trace[-1]
    assert abs(math.cos(root) - root) == min(abs(math.cos(t) - t) for t in trace[-1])


@settings(max_examples=40, deadline=None)
@given(st.floats(0.1, 3.0), st.floats(0.05, 2.0))
def test_find_root_random_affine(root, slope):
    got = find_root_q(lambda t: slope * (t - root), (-0.5, 3.6))
    assert abs(got - root) < 1e-8


# --- sign scans -----------------------------------------------------------------


def test_scan_sign_clean_report():
    xs = np.linspace(0.0, 1.0, 21)
    qs = np.linspace(ANALYTIC_Q_MIN, ANALYTIC_Q_MAX, 17)
    report = scan_sign("tee-sq-curvature", xs, qs, "nonnegative")
    assert report.ok
    assert report.violations == ()
    assert report.min_value >= -1e-10
    assert report.values.shape == (21, 17)


def test_scan_sign_detects_violations():
    xs = np.linspace(0.3, 0.7, 5)
    report = scan_sign("tee-curvature", xs, np.array([4.0]), "nonnegative")
    assert not report.ok
    assert len(report.violations) == 5


def test_scan_sign_csv_stable():
    xs = np.linspace(0.0, 1.0, 4)
    qs = np.array([2.0, 3.0])
    report = scan_sign("tee-curvature", xs, qs, "nonpositive")
    buf_a, buf_b = io.StringIO(), io.StringIO()
    report.to_csv(buf_a)
    report.to_csv(buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()
    lines = buf_a.getvalue().splitlines()
    assert lines[0] == "x,q,value"
    assert len(lines) == 1 + 4 * 2
    # -0.0 never leaks into the output
    assert "-0," not in buf_a.getvalue() and not buf_a.getvalue().endswith("-0")



def _row_by_row_csv(report) -> str:
    # the writer before the block template: one f-string per point
    def fmt(value):
        v = float(value)
        return format(0.0 if v == 0.0 else v, ".12g")

    points = itertools.product(*([fmt(v) for v in axis] for axis in report.axes))
    rows = [",".join((*report.labels, "value")) + "\n"]
    for point, v in zip(points, report.values.ravel()):
        rows.append(f"{','.join(point)},{fmt(v)}\n")
    return "".join(rows)


_EDGE_VALUES = [math.nan, 0.0, -0.0, math.inf, -math.inf, 1e-300, 1e300, -2.5, 5e-324, 1.0 / 3.0]


@pytest.mark.parametrize(
    "axes",
    [
        ([-0.0, 0.5, 1e-300, 2.0 / 3.0, -1e300, 7.0, 1e20, -3.25, 0.1, 4.0],),
        ([0.0, -0.0, 1.5, math.pi, 1e-7], [2.0, -1.0]),
        ([0.25], [1e300, -0.0, 3.0, 1.0 / 7.0, 5e-324, 8.0, -4.5, 2.0, 1e-5, 0.0]),
        ([0.5, -0.0], [1.0, 2.0, 3.0], [-0.0, 1e-300]),
    ],
)
def test_to_csv_matches_row_by_row_format(axes):
    sizes = [len(a) for a in axes]
    count = math.prod(sizes)
    values = np.resize(np.array(_EDGE_VALUES), count)
    values[1::3] *= -1.0
    report = SignScanReport("grid", tuple("abc"[: len(axes)]), axes, values.reshape(sizes), None)
    buf = io.StringIO()
    report.to_csv(buf)
    assert buf.getvalue() == _row_by_row_csv(report)


def test_scan_sign_summary_keys():
    report = scan_sign("tee-curvature-c", np.array([0.5]), np.array([2.0]), "nonnegative")
    info = report.summary()
    assert info["ok"] is True
    assert info["grid"] == {"c": [0.5, 0.5, 1], "q": [2.0, 2.0, 1]}
    assert info["kind"] == "tee-curvature-c"
    assert info["num_violations"] == 0


def test_sign_report_counts_nan_and_names_the_worst_point():
    axes = (np.array([0.0, 1.0]), np.array([0.0, 1.0, 2.0]))
    values = np.array([[0.0, -1.0, np.nan], [2.0, -3.0, -1e-11]])
    report = SignScanReport("t", ("a", "b"), axes, values, "nonnegative")
    assert [v.point for v in report.violations] == [(0.0, 1.0), (0.0, 2.0), (1.0, 1.0)]
    # NaN always counts, and is the worst point when there is one
    assert report._worst.point == (0.0, 2.0) and math.isnan(report._worst.value)
    assert (report.min_value, report.max_value) == (-3.0, 2.0)
    upper = SignScanReport("t", ("a", "b"), axes, np.nan_to_num(values), "nonpositive", 1.5)
    assert [v.point for v in upper.violations] == [(1.0, 0.0)]
    assert (upper._worst.point, upper._worst.value) == ((1.0, 0.0), 2.0)
    unclaimed = SignScanReport("t", ("a", "b"), axes, values, None)
    assert unclaimed.ok and set(unclaimed.summary()) == {"grid", "min_value", "max_value"}


def test_scan_sign_unknown_kind():
    with pytest.raises(DomainError):
        scan_sign("nope", np.array([0.5]), np.array([2.0]), "nonnegative")


# --- power-mean inequalities ----------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(1.0, 6.0))
def test_power_bound_holds(x, t):
    assert holds_power_bound(x, t)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    st.floats(2.0, 6.0),
)
def test_sum_power_bound_holds(xs, alpha):
    assert holds_sum_power_bound(np.array(xs), alpha)


def test_power_bound_rejects_bad_args():
    with pytest.raises(DomainError):
        holds_power_bound(0.5, 0.5)
    with pytest.raises(DomainError):
        holds_sum_power_bound(np.array([0.5]), 1.5)


def test_sign_report_counts_every_violation_and_keeps_ten():
    axes = (np.array([0.0, 0.5, 1.0]), np.arange(1.0, 8.0))
    values = -(1.0 + np.arange(21.0)).reshape(3, 7) / 4.0
    values[2, 3] = np.nan
    report = SignScanReport("t", ("a", "b"), axes, values, "nonnegative")
    assert report.num_violations == 21 and not report.ok
    firsts = [(0.0, b) for b in range(1, 8)] + [(0.5, 1.0), (0.5, 2.0), (0.5, 3.0)]
    assert [v.point for v in report.violations] == firsts
    assert [v.value for v in report.violations] == [-0.25 * k for k in range(1, 11)]
    assert report._worst.point == (1.0, 4.0) and math.isnan(report._worst.value)
    assert report.summary() == {
        "grid": {"a": [0.0, 1.0, 3], "b": [1.0, 7.0, 7]},
        "min_value": -5.25,
        "max_value": -0.25,
        "kind": "t",
        "claimed_sign": "nonnegative",
        "tolerance": 1e-10,
        "min_abs_value": 0.25,
        "ok": False,
        "num_violations": 21,
        "violations": [
            {"kind": "t", "a": a, "b": b, "value": -0.25 * k}
            for k, (a, b) in enumerate(firsts, start=1)
        ],
    }
