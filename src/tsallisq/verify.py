"""The paper's checks: the suites behind ``tsallisq verify``.

Each suite returns its checks in order.  Four builders cover the shapes that
repeat; checks that fit none of them are explicit _check calls.  Package
functions are looked up through their modules when a suite runs, never bound
here, so a tracer that rebinds module names sees every call.
"""

from __future__ import annotations

import math

import numpy as np

from . import analysis, measures, monogamy, qstate, roof


def _check(name: str, passed, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _sign_check(name: str, kind: str, xs, qs, sign: str) -> dict:
    """scan_sign claim, reported by its worst value."""
    report = analysis.scan_sign(kind, xs, qs, sign)
    side = "min" if sign == "nonnegative" else "max"
    return _check(
        name,
        report.ok,
        f"{side} {report._worst.value:.3e} over {report.values.size} points, "
        f"tol {report.tolerance:g}",
    )


def _spot_checks(spots) -> list[dict]:
    """(name, got, want) closed-form values that must agree to 1e-12."""
    return [
        _check(name, abs(got - want) <= 1e-12, f"{got:.15g} vs {want:.15g}")
        for name, got, want in spots
    ]


def _root_checks(wording: str) -> list[dict]:
    """Bisection roots of the example4/example5 residuals, each inside its window."""
    checks = []
    for name, residual, bracket, (lo, hi) in (
        ("example4-root", monogamy.example4_residual, (1.1, 2.0), (1.60, 1.64)),
        ("example5-root", monogamy.example5_residual, (2.0, 3.0), (2.43, 2.51)),
    ):
        root = analysis.find_root_q(residual, bracket)
        passed = lo <= root <= hi and abs(residual(root)) <= 1e-9
        checks.append(_check(name, passed, f"{wording} q = {root:.6f}"))
    return checks


def _fd_check(closed, power: int, xs, qs, note: str) -> dict:
    """Closed-form curvature against a central difference of f**power, with f the
    squared-concurrence-to-TEE map, on the xs x qs grid; relative deviation,
    floored at 1e-4."""
    h = 3e-4
    x, q = np.asarray(xs)[:, None], np.asarray(qs)[None, :]
    f = lambda t: measures.tee_from_concurrence_sq(t, q) ** power
    fd = (f(x + h) - 2.0 * f(x) + f(x - h)) / h**2
    want = closed(x, q)
    worst = float(np.max(np.abs(fd - want) / np.maximum(np.abs(want), 1e-4)))
    return _check(
        "finite-difference-agreement",
        worst <= 1e-4,
        f"worst relative deviation {worst:.2e} ({note})",
    )


def _suite_appendix_a(seed: int) -> list[dict]:
    lo, hi = analysis.critical_q()
    ref_lo = (5.0 - math.sqrt(13.0)) / 2.0
    ref_hi = (5.0 + math.sqrt(13.0)) / 2.0
    below, inside_lo, inside_hi, above = (
        analysis.curvature_limit_at_max_c(q) for q in (0.65, 0.75, 4.25, 4.35)
    )
    mid, up, down = (analysis.tee_curvature_wrt_c(q, 0.6) for q in (1.0, 1.0 + 1e-7, 1.0 - 1e-7))
    return [
        _check(
            "critical-q-roots",
            abs(lo - ref_lo) <= 1e-10 and abs(hi - ref_hi) <= 1e-10,
            f"roots {lo:.12f} and {hi:.12f} match (5 -+ sqrt 13)/2 to 1e-10",
        ),
        _check(
            "limit-sign-change",
            below < 0.0 < inside_lo and above < 0.0 < inside_hi,
            f"c->1 limit: {below:.3g} | {inside_lo:.3g} ... {inside_hi:.3g} | {above:.3g}",
        ),
        _sign_check(
            "window-convexity-grid",
            "tee-curvature-c",
            np.linspace(0.0, 1.0, 51),
            np.linspace(ref_lo, ref_hi, 61),
            "nonnegative",
        ),
        _check(
            "vn-branch-continuity",
            abs(mid - up) < 1e-5 and abs(mid - down) < 1e-5,
            f"q=1 value {mid:.9f}, neighbors {up:.9f}/{down:.9f}",
        ),
    ]


def _suite_appendix_b(seed: int) -> list[dict]:
    grid = np.linspace(0.0, 1.0, 21)
    dev2 = float(np.max(np.abs(analysis.tee_sq_curvature(grid, 2.0) - 0.5)))
    dev3 = float(np.max(np.abs(analysis.tee_sq_curvature(grid, 3.0) - 9.0 / 32.0)))
    v40 = analysis.tee_sq_curvature(0.0, 4.0)
    return [
        _sign_check(
            "sq-curvature-nonnegative",
            "tee-sq-curvature",
            np.linspace(0.0, 0.996, 84),
            np.linspace(measures.ANALYTIC_Q_MIN, measures.ANALYTIC_Q_MAX, 61),
            "nonnegative",
        ),
        _check(
            "constant-curvature-q2-q3",
            dev2 <= 1e-12 and dev3 <= 1e-12,
            f"max deviations {dev2:.2e} (q=2 vs 1/2), {dev3:.2e} (q=3 vs 9/32)",
        ),
        _check(
            "q4-left-endpoint",
            abs(v40 - 2.0 / 9.0) <= 1e-12,
            f"value at x=0, q=4 is {v40:.15f} (expect 2/9)",
        ),
        _fd_check(
            analysis.tee_sq_curvature,
            2,
            (0.15, 0.45, 0.85),
            (0.85, 1.0, 1.6, 2.5, 3.7),
            "central, h=3e-4",
        ),
    ]


def _suite_appendix_c(seed: int) -> list[dict]:
    xs = np.linspace(0.0, 1.0, 51)
    checks = [
        _sign_check(name, "tee-curvature", xs, np.linspace(q_lo, q_hi, 41), sign)
        for name, q_lo, q_hi, sign in (
            ("concave-low-band", measures.ANALYTIC_Q_MIN, 2.0, "nonpositive"),
            ("convex-middle-band", 2.0, 3.0, "nonnegative"),
            ("concave-high-band", 3.0, measures.ANALYTIC_Q_MAX, "nonpositive"),
        )
    ]
    grid = np.linspace(0.0, 1.0, 21)
    flat2 = float(np.max(np.abs(analysis.tee_curvature(grid, 2.0))))
    flat3 = float(np.max(np.abs(analysis.tee_curvature(grid, 3.0))))
    flat4 = float(np.max(np.abs(analysis.tee_curvature(grid, 4.0) + 1.0 / 12.0)))
    spot = abs(float(analysis.tee_curvature(0.0, 2.5)) - 5.0 / 96.0)
    return checks + [
        _check(
            "special-q-values",
            flat2 <= 1e-12 and flat3 <= 1e-12 and flat4 <= 1e-12 and spot <= 1e-12,
            f"q=2: {flat2:.1e}, q=3: {flat3:.1e}, q=4 vs -1/12: {flat4:.1e}, "
            f"q=5/2 at 0 vs 5/96: {spot:.1e}",
        ),
        _fd_check(
            analysis.tee_curvature,
            1,
            (0.2, 0.5, 0.8),
            (0.8, 1.0, 1.7, 2.5, 3.6, 4.2),
            "central h=3e-4",
        ),
    ]


def _suite_appendix_d(seed: int) -> list[dict]:
    spots = [
        ("example3-theta-pi4-q2", monogamy.example3_residual(math.pi / 4.0, 2.0), 1.0 / 16.0),
        ("example4-q2", monogamy.example4_residual(2.0), -1.0 / 18.0),
        ("example5-q2", monogamy.example5_residual(2.0), 4.0 / 81.0),
        ("example5-q3", monogamy.example5_residual(3.0), -2.0 / 81.0),
        ("w3-q2", float(monogamy.w_indicator_closed_form(3, 2.0)), 8.0 / 81.0),
        ("ghz3-q2", monogamy.tee_sq_residual(qstate.ghz(3), 0, 2.0).residual, 0.25),
        (
            "w3-alpha3-q2",
            monogamy.alpha_residual(qstate.w_state(3), 0, 3.0, 2.0).residual,
            48.0 / 729.0,
        ),
    ]
    return _spot_checks(spots) + _root_checks("sign change at")


def _suite_theorem3_sweep(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    w4 = qstate.w_state(4)
    base = monogamy.tee_sq_residual(w4, 0, 2.0).residual
    alpha2 = monogamy.alpha_residual(w4, 0, 2.0, 2.0).residual
    states = [w4, qstate.ghz(4)] + [qstate.random_pure_state((2, 2, 2, 2), rng) for _ in range(3)]
    sweep = [
        monogamy.alpha_residual(psi, 0, alpha, q)
        for psi in states
        for alpha in (2.0, 2.5, 3.0, 5.0)
        for q in (0.75, 1.0, 2.0, 3.3, 4.25)
    ]
    cfg = roof.RoofConfig(restarts=8, seed=seed)
    k3 = [
        monogamy.hierarchical_check(psi, 0, 3, q, cfg)
        for psi in (w4, qstate.ghz(4))
        for q in (1.0, 2.0, 3.2)
    ]
    full = (
        monogamy.hierarchical_check(w4, 0, 4, 2.0).residual
        - monogamy.tee_sq_residual(w4, 0, 2.0).residual
    )
    # the sampled draws come last from the suite's one generator, and only
    # once the grid holds
    powers_ok = all(
        analysis.holds_power_bound(x, t)
        for x in np.linspace(0.0, 1.0, 21)
        for t in (1.0, 1.5, 2.0, 3.0, 7.0)
    ) and all(
        analysis.holds_sum_power_bound(rng.random(3), alpha) for alpha in (2.0, 2.5, 3.0, 6.0)
    )
    return [
        _check(
            "alpha2-reduces-to-squared",
            abs(base - alpha2) <= 1e-14,
            f"difference {abs(base - alpha2):.2e}",
        ),
        _check(
            "alpha-monogamy-sweep",
            all(rep.satisfied for rep in sweep),
            f"{len(sweep)} cases, worst residual {min(rep.residual for rep in sweep):.3e} "
            "(tolerance 1e-8)",
        ),
        _check(
            "hierarchical-k3",
            all(rep.satisfied for rep in k3),
            f"worst residual {min(rep.residual for rep in k3):.3e} across w4/ghz4, "
            "q in (1, 2, 3.2)",
        ),
        _check("hierarchical-k-equals-n", abs(full) <= 1e-12, f"difference {abs(full):.2e}"),
        _check("power-inequalities", powers_ok, "grid and sampled checks hold"),
    ]


def _suite_examples(seed: int) -> list[dict]:
    checks = _root_checks("negative beyond")
    thetas = np.linspace(0.05, math.pi / 2.0 - 0.05, 24)
    qs = np.linspace(1.01, 4.30, 30)
    values = monogamy.example3_residual(thetas[:, None], qs[None, :])
    report = analysis.SignScanReport(
        "example3", ("theta", "q"), (thetas, qs), values, "nonnegative", 1e-9
    )
    # mirror points theta, pi/2 - theta tie to rounding: name the smaller one
    worst = report.min_value
    i, j = np.argwhere(values <= worst + 1e-12 * abs(worst))[0]
    checks.append(
        _check(
            "example3-grid-nonnegative",
            report.ok,
            f"min residual {worst:.6g} at theta={thetas[i]:.4f}, q={qs[j]:.4f}",
        )
    )
    phis = np.array([math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0, 2.0 * math.pi])
    zeros = np.abs(monogamy._gw_indicator(math.pi / 2.0, phis, 2.0))
    checks.append(
        _check(
            "gw-separable-zeros",
            (zeros <= 1e-9).all(),
            f"largest |indicator| at the four product angles: {zeros.max():.2e}",
        )
    )
    regressions = [
        ("pi/2, pi/4", math.pi / 2.0, math.pi / 4.0, 8.0 / 81.0),
        ("pi/2, pi/3", math.pi / 2.0, math.pi / 3.0, 24.0 / 625.0),
        ("pi/4, pi/4", math.pi / 4.0, math.pi / 4.0, 1.0 / 8.0),
    ]
    _, ths, phs, _ = zip(*regressions)
    got = monogamy._gw_indicator(np.array(ths), np.array(phs), 2.0)
    checks.append(
        _check(
            "gw-regression-values",
            all(abs(g - r[3]) <= 1e-12 for g, r in zip(got, regressions)),
            "; ".join(f"({r[0]}) -> {g:.12g}" for g, r in zip(got, regressions)),
        )
    )
    # theta in {0, pi} with phi in {pi/2, 3pi/2} zeroes every amplitude, so
    # the grid stays slightly inside the theta interval
    thetas, phis = np.linspace(0.02, math.pi - 0.02, 13), np.linspace(0.0, 2.0 * math.pi, 25)
    values = monogamy._gw_indicator(thetas[:, None], phis[None, :], 2.0)
    report = analysis.SignScanReport(
        "gw-indicator", ("theta", "phi"), (thetas, phis), values, "nonnegative", 1e-8
    )
    checks.append(
        _check(
            "gw-grid-nonnegative",
            report.ok,
            f"min indicator {report._worst.value:.3e} on a 13x25 angle grid",
        )
    )
    return checks


_SUITES = {
    "appendix-a": _suite_appendix_a,
    "appendix-b": _suite_appendix_b,
    "appendix-c": _suite_appendix_c,
    "appendix-d": _suite_appendix_d,
    "theorem3-sweep": _suite_theorem3_sweep,
    "examples": _suite_examples,
}


def run(names, seed):
    """Run the named suites in order: (human lines, --json payload, exit code),
    the code 3 when any check fails."""
    # RoofConfig owns the seed rule; it holds for every suite, roof or not
    seed = roof.RoofConfig(seed=seed).seed
    lines = []
    payload_suites = []
    for name in names:
        checks = _SUITES[name](seed)
        for c in checks:
            tag = "PASS" if c["passed"] else "FAIL"
            lines.append(f"{tag} {name}/{c['name']}: {c['detail']}")
        payload_suites.append({"suite": name, "checks": checks})
    total = sum(len(s["checks"]) for s in payload_suites)
    passed = sum(c["passed"] for s in payload_suites for c in s["checks"])
    lines.append(f"{passed}/{total} checks passed")
    payload = {
        "command": "verify",
        "suites": payload_suites,
        "passed": passed,
        "total": total,
        "ok": passed == total,
    }
    return lines, payload, 0 if passed == total else 3
