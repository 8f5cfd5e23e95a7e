"""Command line front end.

Verbs: state, entropy, concurrence, tee, monogamy, indicator, scan, verify.
Exit codes: 0 success, 1 usage or input-file problems, 2 mathematical domain
errors, 3 a verify suite reported failures.

Angles and entropic orders accept pi literals ("pi", "2pi", "pi/4", "3pi/2").
Grid flags take lo:hi:third ranges where a third field with a decimal point
or exponent is a step and a bare integer is a subdivision count (endpoints
are always included).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from .analysis import (
    _SCAN_KINDS,
    SignScanReport,
    critical_q,
    curvature_limit_at_max_c,
    find_root_q,
    holds_power_bound,
    holds_sum_power_bound,
    scan_sign,
    tee_curvature,
    tee_curvature_wrt_c,
    tee_sq_curvature,
)
from .errors import DomainError, StateFormatError
from .linalg import _check_party
from .measures import (
    ANALYTIC_Q_MAX,
    ANALYTIC_Q_MIN,
    as_q,
    concurrence_pure,
    concurrence_two_qubit,
    tee_2xd,
    tee_from_concurrence_sq,
    tee_pure,
    tee_two_qubit,
    tsallis_entropy,
)
from .monogamy import (
    _gw_indicator,
    alpha_residual,
    ckw_check,
    example3_residual,
    example4_residual,
    example5_residual,
    hierarchical_check,
    indicator,
    tee_sq_residual,
    w_indicator_closed_form,
)
from .qstate import (
    PureState,
    _state_payload,
    example3_state,
    example4_state,
    example5_state,
    generalized_w,
    ghz,
    load_state,
    random_pure_state,
    w_state,
)
from .roof import RoofConfig, roof_concurrence


class UsageError(Exception):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# --- value and range parsing ---------------------------------------------------

_PI_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)?)\s*(?:pi|π)(?:\s*/\s*(\d+\.?\d*))?$",
    re.IGNORECASE,
)


def parse_number(text: str) -> float:
    """Float literal, optionally built around pi ("pi", "2pi", "pi/2", "3pi/2")."""
    tok = text.strip()
    m = _PI_RE.match(tok)
    if m:
        coef_txt = m.group(1)
        if coef_txt in ("", "+"):
            coef = 1.0
        elif coef_txt == "-":
            coef = -1.0
        else:
            coef = float(coef_txt)
        div = float(m.group(2)) if m.group(2) else 1.0
        if div == 0.0:
            raise UsageError(f"division by zero in {text!r}")
        return coef * math.pi / div
    try:
        return float(tok)
    except ValueError:
        raise UsageError(f"cannot parse number {text!r}") from None


def parse_range(text: str) -> np.ndarray:
    """One value or lo:hi:third (third = step if it has '.' or an exponent,
    subdivision count if it is a bare integer). Endpoints included; they and
    the step must be finite, while a single value is left to the axis's own
    check."""
    parts = text.split(":")
    if len(parts) == 1:
        return np.array([parse_number(parts[0])])
    if len(parts) != 3:
        raise UsageError(f"range must look like lo:hi:step-or-count, got {text!r}")
    lo = parse_number(parts[0])
    hi = parse_number(parts[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"range endpoints must be finite, got {text!r}")
    if hi < lo:
        raise UsageError(f"range upper bound {hi:g} is below lower bound {lo:g}")
    third = parts[2].strip()
    if re.fullmatch(r"[+-]?\d+", third):
        count = int(third)
        if count < 1:
            raise UsageError("subdivision count must be at least 1")
        return np.linspace(lo, hi, count + 1)
    step = parse_number(third)
    if not math.isfinite(step):
        raise DomainError(f"range step must be finite, got {text!r}")
    if step <= 0.0:
        raise UsageError(f"step must be positive, got {step:g}")
    ratio = (hi - lo) / step
    n = int(round(ratio))
    if abs(ratio - n) <= 1e-8 * max(1.0, abs(ratio)):
        return np.linspace(lo, hi, n + 1)
    n = int(math.floor(ratio + 1e-12))
    return lo + step * np.arange(n + 1)


def _parse_keep(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"--keep wants comma-separated indices, got {text!r}") from None


# --- state resolution -----------------------------------------------------------

_BELL = (1.0 / math.sqrt(2.0), 0.0, 0.0, 1.0 / math.sqrt(2.0))


def resolve_state(spec: str | None, infile: str | None):
    """Turn a shorthand (bell, ghz:N, w:N, gw:T:P, example3:T, example4,
    example5) or a JSON file into a state object."""
    if (spec is None) == (infile is None):
        raise UsageError("provide exactly one of a state spec or --in FILE")
    if infile is not None:
        return load_state(infile)
    s = spec.strip()
    head, _, rest = s.partition(":")
    key = head.lower()
    if key == "bell" and not rest:
        return PureState((2, 2), np.array(_BELL, dtype=complex))
    if key in ("ghz", "w"):
        try:
            n = int(rest) if rest else 3
        except ValueError:
            raise UsageError(f"bad qubit count in {spec!r}") from None
        return ghz(n) if key == "ghz" else w_state(n)
    if key in ("gw", "generalized-w"):
        angles = rest.split(":")
        if len(angles) != 2:
            raise UsageError(f"{head} needs two angles, e.g. {head}:pi/2:pi/4")
        return generalized_w(parse_number(angles[0]), parse_number(angles[1]))
    if key == "example3":
        if not rest:
            raise UsageError("example3 needs an angle, e.g. example3:pi/4")
        return example3_state(parse_number(rest))
    if key == "example4" and not rest:
        return example4_state()
    if key == "example5" and not rest:
        return example5_state()
    import os

    if os.path.exists(s):
        return load_state(s)
    raise UsageError(f"unknown state spec {spec!r} (not a shorthand, not a file)")


# --- output plumbing -------------------------------------------------------------


def _emit(args, human_lines, payload) -> None:
    """A command's output: its payload under --json, else its human lines;
    written to --out FILE when given, else to stdout."""
    if getattr(args, "json", False):
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(human_lines) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _roof_config(args) -> RoofConfig:
    return RoofConfig(restarts=args.restarts, seed=args.seed)


def _roof_fields(roof, args) -> dict:
    """--json record of a roof run: its bracket [lower, value] and gap, how
    its winning restart stopped, its cost calls, how many restarts agree with
    the winner, and the restarts and seed that produced it."""
    return {
        "converged": roof.converged,
        "iterations": roof.iterations,
        "stop_reason": roof.stop_reason,
        "lower": roof.lower,
        "gap": roof.gap,
        "cost_calls": roof.cost_calls,
        "agreeing_restarts": roof.agreeing_restarts,
        "restarts": args.restarts,
        "seed": args.seed,
    }


# --- subcommands ------------------------------------------------------------------
#
# Each command takes the parsed arguments, with the state already resolved, and
# returns its human lines and its --json payload; verify adds its exit code.


def cmd_state(args):
    return [json.dumps(_state_payload(args.state))], None


def cmd_entropy(args):
    state = args.state
    q = parse_number(args.q)
    keep = _parse_keep(args.keep) if args.keep else None
    if isinstance(state, PureState):
        target = state.reduced(keep) if keep else state.to_density()
    else:
        target = state.partial_trace(keep) if keep else state
    value = tsallis_entropy(target, q)
    payload = {
        "command": "entropy",
        "q": q,
        "dims": list(target.dims),
        "keep": list(keep) if keep else None,
        "value": value,
    }
    return [f"{value:.6g}"], payload


def cmd_concurrence(args):
    state = args.state
    _check_party(state.dims, args.cut)
    payload: dict = {"command": "concurrence", "cut": args.cut}
    if isinstance(state, PureState):
        payload.update(method="pure", c=concurrence_pure(state, args.cut))
    elif state.dims == (2, 2):
        cv = concurrence_two_qubit(state)
        payload.update(method="wootters", c=cv.c, lambdas=list(cv.lambdas))
    elif state.num_sites == 2:
        roof = roof_concurrence(state, _roof_config(args), party=args.cut)
        payload.update(method="roof", c=roof.value, **_roof_fields(roof, args))
    else:
        raise DomainError(
            "concurrence for mixed states needs a bipartite density matrix"
        )
    return [f"{payload['c']:.6g}"], payload


def cmd_tee(args):
    state = args.state
    q = parse_number(args.q)
    qp = as_q(q)
    _check_party(state.dims, args.cut)
    payload: dict = {"command": "tee", "q": q, "cut": args.cut}
    if isinstance(state, PureState):
        payload.update(method="pure", value=tee_pure(state, args.cut, qp), exact=True)
    elif state.dims == (2, 2):
        payload.update(
            method="two-qubit",
            value=tee_two_qubit(state, qp, force_q=args.force_q),
            exact=bool(qp.analytic_two_qubit),
        )
    elif state.num_sites == 2 and 2 in state.dims:
        roof = roof_concurrence(state, _roof_config(args), party=state.dims.index(2))
        est = tee_2xd(state, qp, roof.value)
        # T_q is increasing in c, so the concurrence floor maps to a TEE floor
        lower = tee_2xd(state, qp, roof.lower).value
        payload.update(
            method="roof-2xd",
            value=est.value,
            exact=est.exact,
            roof_concurrence=roof.value,
            **(_roof_fields(roof, args) | {"lower": lower, "gap": est.value - lower}),
        )
    else:
        raise DomainError(
            "tee for mixed states supports (2,2) and qubit-qudit bipartitions only"
        )
    return [f"{payload['value']:.6g}"], payload


def cmd_monogamy(args):
    state = args.state
    if not isinstance(state, PureState):
        raise DomainError(
            "monogamy checks take pure states; use the indicator command for "
            "mixed three-qubit input"
        )
    # the parser keeps --ckw, --alpha and --k apart
    if args.ckw:
        if args.q is not None:
            raise UsageError("--ckw is q-free; drop the --q flag")
        report = ckw_check(state, args.focus)
        variant = "ckw"
    elif args.q is None:
        raise UsageError("--q is required (or pass --ckw)")
    else:
        q = parse_number(args.q)
        if args.alpha is not None:
            report = alpha_residual(state, args.focus, args.alpha, q)
            variant = "alpha"
        elif args.k is not None:
            report = hierarchical_check(
                state, args.focus, args.k, q, _roof_config(args)
            )
            variant = "hierarchical"
        else:
            report = tee_sq_residual(state, args.focus, q)
            variant = "tee-sq"
    payload = {
        "command": "monogamy",
        "variant": variant,
        "q": report.q.q if report.q is not None else None,
        "focus": args.focus,
        "alpha": args.alpha,
        "k": args.k,
        "lhs": report.lhs,
        "terms": list(report.terms),
        "residual": report.residual,
        "satisfied": report.satisfied,
        "tolerance": report.tolerance,
        "partners": [list(p) if isinstance(p, tuple) else p for p in report.partners],
    }
    verdict = "SATISFIED" if report.satisfied else "VIOLATED"
    return [f"{report.residual:.6g}, {verdict}"], payload


def cmd_indicator(args):
    q = parse_number(args.q)
    result = indicator(args.state, q, _roof_config(args), focus=args.focus)
    payload = {
        "command": "indicator",
        "q": q,
        "focus": args.focus,
        "value": result.value,
        "upper_bound": result.upper_bound,
    }
    if result.roof is not None:
        payload.update(_roof_fields(result.roof, args))
    line = f"{result.value:.6g}"
    if result.upper_bound:
        line += " (upper bound)"
    return [line], payload


# a copy, so replacing an entry here never reaches scan_sign's table
_CURVATURE_SUBJECTS = dict(_SCAN_KINDS)


def _scan_grid(args, payload: dict):
    """(axis labels, axes, values on the product of the axes) of one scan;
    the subject's parser has made sure every flag read here was given."""
    subject = args.subject
    if subject in _CURVATURE_SUBJECTS:
        func, xlabel = _CURVATURE_SUBJECTS[subject]
        xs, qs = parse_range(args.x), parse_range(args.q)
        return (xlabel, "q"), (xs, qs), func(xs[:, None], qs[None, :])
    labels = {"gw-indicator": ("theta", "phi"), "example3": ("theta", "q")}.get(subject, ("q",))
    axes = [parse_range(getattr(args, label)) for label in labels]
    for label, axis in zip(labels, axes):
        # the q axes pass the kernels' order check; no kernel checks an angle
        if label != "q" and not np.all(np.isfinite(axis)):
            raise DomainError(f"--{label} must be finite, got {getattr(args, label)!r}")
    if subject == "gw-indicator":
        q = payload["q"] = parse_number(args.q)
        values = _gw_indicator(axes[0][:, None], axes[1][None, :], q, args.focus)
    elif subject == "example3":
        values = example3_residual(axes[0][:, None], axes[1][None, :])
    elif subject == "w-indicator":
        payload["n"] = args.n
        values = w_indicator_closed_form(args.n, axes[0])
    else:
        values = (example4_residual if subject == "example4" else example5_residual)(axes[0])
    return labels, axes, values


def cmd_scan(args):
    subject = args.subject
    payload: dict = {"command": "scan", "subject": subject, "csv": args.csv}
    report = SignScanReport(subject, *_scan_grid(args, payload), args.sign)
    payload.update(report.summary())
    lo, hi = report.min_value, report.max_value
    human = [f"{subject}: {report.values.size} points, min {lo:.6g}, max {hi:.6g}"]
    if args.sign:
        status, worst = "ok", ""
        if report.num_violations:
            status, at = f"{report.num_violations} violations", report._worst
            worst = f"; worst {at.value:.6g} at ({', '.join(f'{c:.6g}' for c in at.point)})"
        human.append(f"claimed {args.sign}: {status} (tolerance {report.tolerance:g}){worst}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            report.to_csv(fh)
        human.append(f"csv written to {args.csv}")
    return human, payload


# --- verify suites -----------------------------------------------------------------
#
# Each suite returns its checks in order.  Four builders cover the shapes that
# repeat; checks that fit none of them are explicit _check calls.  Package
# functions are looked up when a suite runs, never captured in module-level
# tables, so a tracer that rebinds module names sees every call.


def _check(name: str, passed, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _sign_check(name: str, kind: str, xs, qs, sign: str) -> dict:
    """scan_sign claim, reported by its worst value."""
    report = scan_sign(kind, xs, qs, sign)
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
        ("example4-root", example4_residual, (1.1, 2.0), (1.60, 1.64)),
        ("example5-root", example5_residual, (2.0, 3.0), (2.43, 2.51)),
    ):
        root = find_root_q(residual, bracket)
        passed = lo <= root <= hi and abs(residual(root)) <= 1e-9
        checks.append(_check(name, passed, f"{wording} q = {root:.6f}"))
    return checks


def _fd_check(closed, power: int, xs, qs, note: str) -> dict:
    """Closed-form curvature against a central difference of f**power, with f the
    squared-concurrence-to-TEE map, on the xs x qs grid; relative deviation,
    floored at 1e-4."""
    h = 3e-4
    x, q = np.asarray(xs)[:, None], np.asarray(qs)[None, :]
    f = lambda t: tee_from_concurrence_sq(t, q) ** power
    fd = (f(x + h) - 2.0 * f(x) + f(x - h)) / h**2
    want = closed(x, q)
    worst = float(np.max(np.abs(fd - want) / np.maximum(np.abs(want), 1e-4)))
    return _check(
        "finite-difference-agreement",
        worst <= 1e-4,
        f"worst relative deviation {worst:.2e} ({note})",
    )


def _suite_appendix_a(seed: int) -> list[dict]:
    lo, hi = critical_q()
    ref_lo = (5.0 - math.sqrt(13.0)) / 2.0
    ref_hi = (5.0 + math.sqrt(13.0)) / 2.0
    below, inside_lo, inside_hi, above = (
        curvature_limit_at_max_c(q) for q in (0.65, 0.75, 4.25, 4.35)
    )
    mid, up, down = (tee_curvature_wrt_c(q, 0.6) for q in (1.0, 1.0 + 1e-7, 1.0 - 1e-7))
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
    dev2 = float(np.max(np.abs(tee_sq_curvature(grid, 2.0) - 0.5)))
    dev3 = float(np.max(np.abs(tee_sq_curvature(grid, 3.0) - 9.0 / 32.0)))
    v40 = tee_sq_curvature(0.0, 4.0)
    return [
        _sign_check(
            "sq-curvature-nonnegative",
            "tee-sq-curvature",
            np.linspace(0.0, 0.996, 84),
            np.linspace(ANALYTIC_Q_MIN, ANALYTIC_Q_MAX, 61),
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
            tee_sq_curvature,
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
            ("concave-low-band", ANALYTIC_Q_MIN, 2.0, "nonpositive"),
            ("convex-middle-band", 2.0, 3.0, "nonnegative"),
            ("concave-high-band", 3.0, ANALYTIC_Q_MAX, "nonpositive"),
        )
    ]
    grid = np.linspace(0.0, 1.0, 21)
    flat2 = float(np.max(np.abs(tee_curvature(grid, 2.0))))
    flat3 = float(np.max(np.abs(tee_curvature(grid, 3.0))))
    flat4 = float(np.max(np.abs(tee_curvature(grid, 4.0) + 1.0 / 12.0)))
    spot = abs(float(tee_curvature(0.0, 2.5)) - 5.0 / 96.0)
    return checks + [
        _check(
            "special-q-values",
            flat2 <= 1e-12 and flat3 <= 1e-12 and flat4 <= 1e-12 and spot <= 1e-12,
            f"q=2: {flat2:.1e}, q=3: {flat3:.1e}, q=4 vs -1/12: {flat4:.1e}, "
            f"q=5/2 at 0 vs 5/96: {spot:.1e}",
        ),
        _fd_check(
            tee_curvature,
            1,
            (0.2, 0.5, 0.8),
            (0.8, 1.0, 1.7, 2.5, 3.6, 4.2),
            "central h=3e-4",
        ),
    ]


def _suite_appendix_d(seed: int) -> list[dict]:
    spots = [
        ("example3-theta-pi4-q2", example3_residual(math.pi / 4.0, 2.0), 1.0 / 16.0),
        ("example4-q2", example4_residual(2.0), -1.0 / 18.0),
        ("example5-q2", example5_residual(2.0), 4.0 / 81.0),
        ("example5-q3", example5_residual(3.0), -2.0 / 81.0),
        ("w3-q2", float(w_indicator_closed_form(3, 2.0)), 8.0 / 81.0),
        ("ghz3-q2", tee_sq_residual(ghz(3), 0, 2.0).residual, 0.25),
        ("w3-alpha3-q2", alpha_residual(w_state(3), 0, 3.0, 2.0).residual, 48.0 / 729.0),
    ]
    return _spot_checks(spots) + _root_checks("sign change at")


def _suite_theorem3_sweep(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    w4 = w_state(4)
    base = tee_sq_residual(w4, 0, 2.0).residual
    alpha2 = alpha_residual(w4, 0, 2.0, 2.0).residual
    states = [w4, ghz(4)] + [random_pure_state((2, 2, 2, 2), rng) for _ in range(3)]
    sweep = [
        alpha_residual(psi, 0, alpha, q)
        for psi in states
        for alpha in (2.0, 2.5, 3.0, 5.0)
        for q in (0.75, 1.0, 2.0, 3.3, 4.25)
    ]
    cfg = RoofConfig(restarts=8, seed=seed)
    k3 = [hierarchical_check(psi, 0, 3, q, cfg) for psi in (w4, ghz(4)) for q in (1.0, 2.0, 3.2)]
    full = hierarchical_check(w4, 0, 4, 2.0).residual - tee_sq_residual(w4, 0, 2.0).residual
    # the sampled draws come last from the suite's one generator, and only
    # once the grid holds
    powers_ok = all(
        holds_power_bound(x, t)
        for x in np.linspace(0.0, 1.0, 21)
        for t in (1.0, 1.5, 2.0, 3.0, 7.0)
    ) and all(holds_sum_power_bound(rng.random(3), alpha) for alpha in (2.0, 2.5, 3.0, 6.0))
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
    values = example3_residual(thetas[:, None], qs[None, :])
    report = SignScanReport("example3", ("theta", "q"), (thetas, qs), values, "nonnegative", 1e-9)
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
    zeros = np.abs(_gw_indicator(math.pi / 2.0, phis, 2.0))
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
    got = _gw_indicator(np.array(ths), np.array(phs), 2.0)
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
    values = _gw_indicator(thetas[:, None], phis[None, :], 2.0)
    report = SignScanReport("gw-indicator", ("theta", "phi"), (thetas, phis), values, "nonnegative", 1e-8)
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


def cmd_verify(args):
    # RoofConfig owns the seed rule; it holds for every suite, roof or not
    seed = RoofConfig(seed=args.seed).seed
    names = list(_SUITES) if args.suite == "all" else [args.suite]
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


# --- parser ------------------------------------------------------------------------


def _add_state_args(sp) -> None:
    sp.add_argument(
        "state",
        nargs="?",
        help="state shorthand (bell, ghz:N, w:N, gw:T:P, example3:T, example4, "
        "example5) or a JSON file path",
    )
    sp.add_argument("--in", dest="infile", metavar="FILE", help="read the state from FILE")


def _add_output_args(sp) -> None:
    sp.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sp.add_argument("--out", metavar="FILE", help="write output to FILE")


def _add_roof_args(sp) -> None:
    sp.add_argument("--seed", type=int, default=42, help="roof optimizer seed")
    sp.add_argument("--restarts", type=int, default=32, help="roof optimizer restarts")


def _add_scan_subject(subjects, name: str, **required: str):
    """One scan subject's parser: the flags it must be given, then the sign
    claim and outputs every subject takes.  It knows no other flag."""
    sp = subjects.add_parser(name)
    for flag, help_text in required.items():
        sp.add_argument(f"--{flag}", required=True, help=help_text)
    sp.add_argument("--sign", choices=("nonnegative", "nonpositive"))
    sp.add_argument("--csv", metavar="FILE", help="write the grid as CSV to FILE")
    _add_output_args(sp)
    return sp


def build_parser() -> _Parser:
    parser = _Parser(
        prog="tsallisq",
        description="Tsallis-q entanglement, monogamy residuals, and scans",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("state", help="materialize a named state as JSON")
    sp.add_argument("state", metavar="spec", help="state shorthand, e.g. w:4 or gw:pi/2:pi/4")
    sp.add_argument("--out", metavar="FILE")
    sp.set_defaults(func=cmd_state, infile=None)

    sp = sub.add_parser("entropy", help="Tsallis-q entropy of a state or marginal")
    _add_state_args(sp)
    sp.add_argument("--q", required=True, help="entropic order (pi literals allowed)")
    sp.add_argument("--keep", help="comma-separated subsystems to keep, e.g. 0,2")
    _add_output_args(sp)
    sp.set_defaults(func=cmd_entropy)

    sp = sub.add_parser("concurrence", help="concurrence (pure cut, Wootters, or roof)")
    _add_state_args(sp)
    sp.add_argument("--cut", type=int, default=0, help="party index of the cut")
    _add_roof_args(sp)
    _add_output_args(sp)
    sp.set_defaults(func=cmd_concurrence)

    sp = sub.add_parser("tee", help="Tsallis-q entanglement across a cut")
    _add_state_args(sp)
    sp.add_argument("--q", required=True)
    sp.add_argument("--cut", type=int, default=0)
    sp.add_argument(
        "--force-q",
        action="store_true",
        help="evaluate the two-qubit closed form outside its window (upper bound)",
    )
    _add_roof_args(sp)
    _add_output_args(sp)
    sp.set_defaults(func=cmd_tee)

    sp = sub.add_parser("monogamy", help="monogamy residual checks for pure states")
    _add_state_args(sp)
    sp.add_argument("--q", help="entropic order (omit with --ckw)")
    sp.add_argument("--focus", type=int, default=0)
    variant = sp.add_mutually_exclusive_group()
    variant.add_argument("--alpha", type=float, help="power-monogamy exponent (finite, >= 2)")
    variant.add_argument("--k", type=int, help="hierarchy level (3..N)")
    variant.add_argument("--ckw", action="store_true", help="squared-concurrence check")
    _add_roof_args(sp)
    _add_output_args(sp)
    sp.set_defaults(func=cmd_monogamy)

    sp = sub.add_parser(
        "indicator", help="monogamy-deficit indicator (N-qubit pure, three-qubit mixed)"
    )
    _add_state_args(sp)
    sp.add_argument("--q", required=True)
    sp.add_argument("--focus", type=int, default=0)
    _add_roof_args(sp)
    _add_output_args(sp)
    sp.set_defaults(func=cmd_indicator)

    sp = sub.add_parser("scan", help="grid scans; optional CSV and sign claims")
    sp.set_defaults(func=cmd_scan)
    subjects = sp.add_subparsers(dest="subject", required=True)
    for name, (_, xlabel) in sorted(_CURVATURE_SUBJECTS.items()):
        _add_scan_subject(
            subjects, name, x=f"{xlabel} range lo:hi:step-or-count", q="q value or range"
        )
    gw = _add_scan_subject(
        subjects, "gw-indicator", theta="theta range", phi="phi range", q="single q value"
    )
    gw.add_argument("--focus", type=int, default=0)
    w = _add_scan_subject(subjects, "w-indicator", q="q value or range")
    w.add_argument("--n", type=int, default=3, help="W-family size for w-indicator")
    _add_scan_subject(subjects, "example3", theta="theta range", q="q value or range")
    for name in ("example4", "example5"):
        _add_scan_subject(subjects, name, q="q value or range")

    sp = sub.add_parser("verify", help="run a self-check suite (exit 3 on failure)")
    sp.add_argument("suite", choices=sorted(_SUITES) + ["all"])
    sp.add_argument("--seed", type=int, default=42)
    _add_output_args(sp)
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if "state" in args:
            args.state = resolve_state(args.state, args.infile)
        human_lines, payload, *code = args.func(args)
        _emit(args, human_lines, payload)
        return code[0] if code else 0
    except (UsageError, StateFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
