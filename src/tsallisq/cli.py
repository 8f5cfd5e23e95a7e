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
    _fmt12,
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
from .measures import (
    ANALYTIC_Q_MAX,
    ANALYTIC_Q_MIN,
    as_q,
    concurrence_pure,
    concurrence_two_qubit,
    tee_from_concurrence_sq,
    tee_pure,
    tee_two_qubit,
    tsallis_entropy,
)
from .monogamy import (
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
    DensityMatrix,
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
    subdivision count if it is a bare integer). Endpoints included."""
    parts = text.split(":")
    if len(parts) == 1:
        return np.array([parse_number(parts[0])])
    if len(parts) != 3:
        raise UsageError(f"range must look like lo:hi:step-or-count, got {text!r}")
    lo = parse_number(parts[0])
    hi = parse_number(parts[1])
    if hi < lo:
        raise UsageError(f"range upper bound {hi:g} is below lower bound {lo:g}")
    third = parts[2].strip()
    if re.fullmatch(r"[+-]?\d+", third):
        count = int(third)
        if count < 1:
            raise UsageError("subdivision count must be at least 1")
        return np.linspace(lo, hi, count + 1)
    step = parse_number(third)
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


def _write_text(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, human_lines, payload: dict) -> None:
    if getattr(args, "json", False):
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(human_lines) + "\n"
    _write_text(args, text)


def _write_csv(path: str, header: str, rows) -> int:
    count = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt12(v) for v in row) + "\n")
            count += 1
    return count


def _roof_config(args) -> RoofConfig:
    return RoofConfig(restarts=args.restarts, seed=args.seed)


# --- subcommands ------------------------------------------------------------------


def cmd_state(args) -> int:
    state = resolve_state(args.spec, None)
    _write_text(args, json.dumps(_state_payload(state)) + "\n")
    return 0


def cmd_entropy(args) -> int:
    state = resolve_state(args.state, args.infile)
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
    _emit(args, [f"{value:.6g}"], payload)
    return 0


def cmd_concurrence(args) -> int:
    state = resolve_state(args.state, args.infile)
    payload: dict = {"command": "concurrence", "cut": args.cut}
    if isinstance(state, PureState):
        c = concurrence_pure(state, args.cut)
        payload.update(method="pure", c=c)
        _emit(args, [f"{c:.6g}"], payload)
        return 0
    if state.dims == (2, 2):
        cv = concurrence_two_qubit(state)
        payload.update(method="wootters", c=cv.c, lambdas=list(cv.lambdas))
        _emit(args, [f"{cv.c:.6g}"], payload)
        return 0
    if state.num_sites == 2:
        roof = roof_concurrence(state, _roof_config(args), party=args.cut)
        payload.update(
            method="roof",
            c=roof.value,
            converged=roof.converged,
            iterations=roof.iterations,
            stop_reason=roof.stop_reason,
            restarts=args.restarts,
            seed=args.seed,
        )
        _emit(args, [f"{roof.value:.6g}"], payload)
        return 0
    raise DomainError(
        "concurrence for mixed states needs a bipartite density matrix"
    )


def cmd_tee(args) -> int:
    state = resolve_state(args.state, args.infile)
    q = parse_number(args.q)
    qp = as_q(q)
    payload: dict = {"command": "tee", "q": q, "cut": args.cut}
    if isinstance(state, PureState):
        value = tee_pure(state, args.cut, qp)
        payload.update(method="pure", value=value, exact=True)
        _emit(args, [f"{value:.6g}"], payload)
        return 0
    if state.dims == (2, 2):
        value = tee_two_qubit(state, qp, force_q=args.force_q)
        payload.update(
            method="two-qubit",
            value=value,
            exact=bool(qp.analytic_two_qubit),
        )
        _emit(args, [f"{value:.6g}"], payload)
        return 0
    if state.num_sites == 2 and 2 in state.dims:
        qubit_side = 0 if state.dims[0] == 2 else 1
        roof = roof_concurrence(state, _roof_config(args), party=qubit_side)
        value = float(tee_from_concurrence_sq(min(roof.value, 1.0) ** 2, qp.q))
        payload.update(
            method="roof-2xd",
            value=value,
            exact=bool(qp.concave_regime),
            roof_concurrence=roof.value,
            converged=roof.converged,
            stop_reason=roof.stop_reason,
        )
        _emit(args, [f"{value:.6g}"], payload)
        return 0
    raise DomainError(
        "tee for mixed states supports (2,2) and qubit-qudit bipartitions only"
    )


def cmd_monogamy(args) -> int:
    state = resolve_state(args.state, args.infile)
    if not isinstance(state, PureState):
        raise DomainError(
            "monogamy checks take pure states; use the indicator command for "
            "mixed three-qubit input"
        )
    if args.ckw:
        if args.q is not None:
            raise UsageError("--ckw is q-free; drop the --q flag")
        report = ckw_check(state, args.focus)
        variant = "ckw"
    else:
        if args.q is None:
            raise UsageError("--q is required (or pass --ckw)")
        q = parse_number(args.q)
        if args.alpha is not None and args.k is not None:
            raise UsageError("--alpha and --k are mutually exclusive")
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
    _emit(args, [f"{report.residual:.6g}, {verdict}"], payload)
    return 0


def cmd_indicator(args) -> int:
    state = resolve_state(args.state, args.infile)
    q = parse_number(args.q)
    result = indicator(state, q, _roof_config(args), focus=args.focus)
    payload = {
        "command": "indicator",
        "q": q,
        "focus": args.focus,
        "value": result.value,
        "upper_bound": result.upper_bound,
    }
    if result.roof is not None:
        payload["converged"] = result.roof.converged
        payload["iterations"] = result.roof.iterations
        payload["stop_reason"] = result.roof.stop_reason
    line = f"{result.value:.6g}"
    if result.upper_bound:
        line += " (upper bound)"
    _emit(args, [line], payload)
    return 0


# a copy, so replacing an entry here never reaches scan_sign's table
_CURVATURE_SUBJECTS = dict(_SCAN_KINDS)

_FAMILY_SUBJECTS = ("gw-indicator", "w-indicator", "example3", "example4", "example5")


def _require(args, flag: str, subject: str) -> str:
    value = getattr(args, flag.lstrip("-").replace("-", "_"))
    if value is None:
        raise UsageError(f"scan {subject} needs {flag}")
    return value


def _single_q(args, subject: str) -> float:
    text = _require(args, "--q", subject)
    if ":" in text:
        raise UsageError(f"scan {subject} takes a single --q value, not a range")
    return parse_number(text)


def cmd_scan(args) -> int:
    subject = args.subject
    human: list[str] = []
    payload: dict = {"command": "scan", "subject": subject, "csv": args.csv}

    if subject in _CURVATURE_SUBJECTS:
        func, xlabel = _CURVATURE_SUBJECTS[subject]
        xs = parse_range(_require(args, "--x", subject))
        qs = parse_range(_require(args, "--q", subject))
        if args.sign:
            report = scan_sign(subject, xs, qs, args.sign)
            values = report.values
            payload.update(report.summary())
            status = "ok" if report.ok else f"{len(report.violations)} violations"
            human.append(
                f"{subject}: {values.size} points, min {report.min_value:.6g}, "
                f"max {report.max_value:.6g}"
            )
            human.append(f"claimed {args.sign}: {status} (tolerance {report.tolerance:g})")
            if args.csv:
                with open(args.csv, "w", encoding="utf-8", newline="") as fh:
                    report.to_csv(fh)
                human.append(f"csv written to {args.csv}")
        else:
            values = np.asarray(func(xs[:, None], qs[None, :]), dtype=float)
            finite = values[np.isfinite(values)]
            payload.update(
                {
                    "grid": {
                        xlabel: [float(xs[0]), float(xs[-1]), int(xs.size)],
                        "q": [float(qs[0]), float(qs[-1]), int(qs.size)],
                    },
                    "min_value": float(np.nanmin(values)),
                    "max_value": float(np.nanmax(values)),
                }
            )
            human.append(
                f"{subject}: {values.size} points, min {np.nanmin(values):.6g}, "
                f"max {np.nanmax(values):.6g}"
            )
            if args.csv:
                rows = (
                    (xs[i], qs[j], values[i, j])
                    for i in range(xs.size)
                    for j in range(qs.size)
                )
                _write_csv(args.csv, f"{xlabel},q,value", rows)
                human.append(f"csv written to {args.csv}")
        _emit(args, human, payload)
        return 0

    if subject == "gw-indicator":
        thetas = parse_range(_require(args, "--theta", subject))
        phis = parse_range(_require(args, "--phi", subject))
        q = _single_q(args, subject)
        rows = []
        for th in thetas:
            for ph in phis:
                value = indicator(generalized_w(th, ph), q, focus=args.focus).value
                rows.append((float(th), float(ph), value))
        header = "theta,phi,value"
        payload["q"] = q
    elif subject == "w-indicator":
        qs = parse_range(_require(args, "--q", subject))
        vals = w_indicator_closed_form(args.n, qs)
        rows = [(float(qv), float(v)) for qv, v in zip(qs, np.atleast_1d(vals))]
        header = "q,value"
        payload["n"] = args.n
    elif subject == "example3":
        thetas = parse_range(_require(args, "--theta", subject))
        qs = parse_range(_require(args, "--q", subject))
        rows = []
        for th in thetas:
            vals = np.atleast_1d(example3_residual(float(th), qs))
            rows.extend((float(th), float(qv), float(v)) for qv, v in zip(qs, vals))
        header = "theta,q,value"
    elif subject in ("example4", "example5"):
        qs = parse_range(_require(args, "--q", subject))
        fn = example4_residual if subject == "example4" else example5_residual
        vals = np.atleast_1d(fn(qs))
        rows = [(float(qv), float(v)) for qv, v in zip(qs, vals)]
        header = "q,value"
    else:  # pragma: no cover - argparse choices guard this
        raise UsageError(f"unknown scan subject {subject!r}")

    values = np.array([r[-1] for r in rows])
    payload.update(
        rows=len(rows),
        min_value=float(values.min()),
        max_value=float(values.max()),
    )
    human.append(
        f"{subject}: {len(rows)} rows, min {values.min():.6g}, max {values.max():.6g}"
    )
    if args.sign:
        tol = 1e-10
        bad = (values < -tol) if args.sign == "nonnegative" else (values > tol)
        n_bad = int(np.count_nonzero(bad))
        payload.update(sign=args.sign, violations=n_bad)
        if n_bad:
            worst = int(np.argmin(values) if args.sign == "nonnegative" else np.argmax(values))
            coords = ", ".join(f"{v:.6g}" for v in rows[worst][:-1])
            human.append(
                f"claimed {args.sign}: {n_bad} violations (tolerance {tol:g}); "
                f"worst {values[worst]:.6g} at ({coords})"
            )
        else:
            human.append(f"claimed {args.sign}: ok (tolerance {tol:g})")
    if args.csv:
        _write_csv(args.csv, header, rows)
        human.append(f"csv written to {args.csv}")
    _emit(args, human, payload)
    return 0


# --- verify suites -----------------------------------------------------------------


def _check(name: str, passed, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _suite_appendix_a(seed: int) -> list[dict]:
    checks = []
    lo, hi = critical_q()
    ref_lo = (5.0 - math.sqrt(13.0)) / 2.0
    ref_hi = (5.0 + math.sqrt(13.0)) / 2.0
    checks.append(
        _check(
            "critical-q-roots",
            abs(lo - ref_lo) <= 1e-10 and abs(hi - ref_hi) <= 1e-10,
            f"roots {lo:.12f} and {hi:.12f} match (5 -+ sqrt 13)/2 to 1e-10",
        )
    )
    below, inside_lo, inside_hi, above = (
        curvature_limit_at_max_c(0.65),
        curvature_limit_at_max_c(0.75),
        curvature_limit_at_max_c(4.25),
        curvature_limit_at_max_c(4.35),
    )
    checks.append(
        _check(
            "limit-sign-change",
            below < 0.0 < inside_lo and above < 0.0 < inside_hi,
            f"c->1 limit: {below:.3g} | {inside_lo:.3g} ... {inside_hi:.3g} | {above:.3g}",
        )
    )
    report = scan_sign(
        "tee-curvature-c",
        np.linspace(0.0, 1.0, 51),
        np.linspace(ref_lo, ref_hi, 61),
        "nonnegative",
    )
    checks.append(
        _check(
            "window-convexity-grid",
            report.ok,
            f"min {report.min_value:.3e} over {report.values.size} points, tol 1e-10",
        )
    )
    mid = tee_curvature_wrt_c(1.0, 0.6)
    up = tee_curvature_wrt_c(1.0 + 1e-7, 0.6)
    down = tee_curvature_wrt_c(1.0 - 1e-7, 0.6)
    checks.append(
        _check(
            "vn-branch-continuity",
            abs(mid - up) < 1e-5 and abs(mid - down) < 1e-5,
            f"q=1 value {mid:.9f}, neighbors {up:.9f}/{down:.9f}",
        )
    )
    return checks


def _suite_appendix_b(seed: int) -> list[dict]:
    checks = []
    xs = np.linspace(0.0, 0.996, 84)
    qs = np.linspace(ANALYTIC_Q_MIN, ANALYTIC_Q_MAX, 61)
    report = scan_sign("tee-sq-curvature", xs, qs, "nonnegative")
    checks.append(
        _check(
            "sq-curvature-nonnegative",
            report.ok,
            f"min {report.min_value:.3e} over {report.values.size} points, tol 1e-10",
        )
    )
    grid = np.linspace(0.0, 1.0, 21)
    dev2 = float(np.max(np.abs(tee_sq_curvature(grid, 2.0) - 0.5)))
    dev3 = float(np.max(np.abs(tee_sq_curvature(grid, 3.0) - 9.0 / 32.0)))
    checks.append(
        _check(
            "constant-curvature-q2-q3",
            dev2 <= 1e-12 and dev3 <= 1e-12,
            f"max deviations {dev2:.2e} (q=2 vs 1/2), {dev3:.2e} (q=3 vs 9/32)",
        )
    )
    v40 = tee_sq_curvature(0.0, 4.0)
    checks.append(
        _check(
            "q4-left-endpoint",
            abs(v40 - 2.0 / 9.0) <= 1e-12,
            f"value at x=0, q=4 is {v40:.15f} (expect 2/9)",
        )
    )
    worst = 0.0
    h = 3e-4
    for x in (0.15, 0.45, 0.85):
        for q in (0.85, 1.0, 1.6, 2.5, 3.7):
            f = lambda t: float(tee_from_concurrence_sq(t, q)) ** 2
            fd = (f(x + h) - 2.0 * f(x) + f(x - h)) / h**2
            closed = float(tee_sq_curvature(x, q))
            err = abs(fd - closed) / max(abs(closed), 1e-4)
            worst = max(worst, err)
    checks.append(
        _check(
            "finite-difference-agreement",
            worst <= 1e-4,
            f"worst relative deviation {worst:.2e} (central, h=3e-4)",
        )
    )
    return checks


def _suite_appendix_c(seed: int) -> list[dict]:
    checks = []
    xs = np.linspace(0.0, 1.0, 51)
    low = scan_sign("tee-curvature", xs, np.linspace(ANALYTIC_Q_MIN, 2.0, 41), "nonpositive")
    mid = scan_sign("tee-curvature", xs, np.linspace(2.0, 3.0, 41), "nonnegative")
    high = scan_sign("tee-curvature", xs, np.linspace(3.0, ANALYTIC_Q_MAX, 41), "nonpositive")
    checks.append(
        _check(
            "concave-low-band",
            low.ok,
            f"max {low.max_value:.3e} over {low.values.size} points, tol 1e-10",
        )
    )
    checks.append(
        _check(
            "convex-middle-band",
            mid.ok,
            f"min {mid.min_value:.3e} over {mid.values.size} points, tol 1e-10",
        )
    )
    checks.append(
        _check(
            "concave-high-band",
            high.ok,
            f"max {high.max_value:.3e} over {high.values.size} points, tol 1e-10",
        )
    )
    grid = np.linspace(0.0, 1.0, 21)
    flat2 = float(np.max(np.abs(tee_curvature(grid, 2.0))))
    flat3 = float(np.max(np.abs(tee_curvature(grid, 3.0))))
    flat4 = float(np.max(np.abs(tee_curvature(grid, 4.0) + 1.0 / 12.0)))
    spot = abs(float(tee_curvature(0.0, 2.5)) - 5.0 / 96.0)
    checks.append(
        _check(
            "special-q-values",
            flat2 <= 1e-12 and flat3 <= 1e-12 and flat4 <= 1e-12 and spot <= 1e-12,
            f"q=2: {flat2:.1e}, q=3: {flat3:.1e}, q=4 vs -1/12: {flat4:.1e}, "
            f"q=5/2 at 0 vs 5/96: {spot:.1e}",
        )
    )
    worst = 0.0
    h = 3e-4
    for x in (0.2, 0.5, 0.8):
        for q in (0.8, 1.0, 1.7, 2.5, 3.6, 4.2):
            f = lambda t: float(tee_from_concurrence_sq(t, q))
            fd = (f(x + h) - 2.0 * f(x) + f(x - h)) / h**2
            closed = float(tee_curvature(x, q))
            err = abs(fd - closed) / max(abs(closed), 1e-4)
            worst = max(worst, err)
    checks.append(
        _check(
            "finite-difference-agreement",
            worst <= 1e-4,
            f"worst relative deviation {worst:.2e} (central h=3e-4)",
        )
    )
    return checks


def _suite_appendix_d(seed: int) -> list[dict]:
    checks = []
    spots = [
        ("example3-theta-pi4-q2", example3_residual(math.pi / 4.0, 2.0), 1.0 / 16.0),
        ("example4-q2", example4_residual(2.0), -1.0 / 18.0),
        ("example5-q2", example5_residual(2.0), 4.0 / 81.0),
        ("example5-q3", example5_residual(3.0), -2.0 / 81.0),
        ("w3-q2", float(w_indicator_closed_form(3, 2.0)), 8.0 / 81.0),
        (
            "ghz3-q2",
            tee_sq_residual(ghz(3), 0, 2.0).residual,
            0.25,
        ),
        (
            "w3-alpha3-q2",
            alpha_residual(w_state(3), 0, 3.0, 2.0).residual,
            48.0 / 729.0,
        ),
    ]
    for name, got, want in spots:
        checks.append(
            _check(name, abs(got - want) <= 1e-12, f"{got:.15g} vs {want:.15g}")
        )
    root4 = find_root_q(example4_residual, (1.1, 2.0))
    checks.append(
        _check(
            "example4-root",
            1.60 <= root4 <= 1.64 and abs(example4_residual(root4)) <= 1e-9,
            f"sign change at q = {root4:.6f}",
        )
    )
    root5 = find_root_q(example5_residual, (2.0, 3.0))
    checks.append(
        _check(
            "example5-root",
            2.43 <= root5 <= 2.51 and abs(example5_residual(root5)) <= 1e-9,
            f"sign change at q = {root5:.6f}",
        )
    )
    return checks


def _suite_theorem3_sweep(seed: int) -> list[dict]:
    checks = []
    rng = np.random.default_rng(seed)
    w4 = w_state(4)
    base = tee_sq_residual(w4, 0, 2.0).residual
    alpha2 = alpha_residual(w4, 0, 2.0, 2.0).residual
    checks.append(
        _check(
            "alpha2-reduces-to-squared",
            abs(base - alpha2) <= 1e-14,
            f"difference {abs(base - alpha2):.2e}",
        )
    )
    states = [w4, ghz(4)] + [random_pure_state((2, 2, 2, 2), rng) for _ in range(3)]
    worst = math.inf
    count = 0
    ok = True
    for psi in states:
        for alpha in (2.0, 2.5, 3.0, 5.0):
            for q in (0.75, 1.0, 2.0, 3.3, 4.25):
                rep = alpha_residual(psi, 0, alpha, q)
                worst = min(worst, rep.residual)
                ok = ok and rep.satisfied
                count += 1
    checks.append(
        _check(
            "alpha-monogamy-sweep",
            ok,
            f"{count} cases, worst residual {worst:.3e} (tolerance 1e-8)",
        )
    )
    cfg = RoofConfig(restarts=8, seed=seed)
    ok = True
    worst = math.inf
    for psi, label in ((w4, "w4"), (ghz(4), "ghz4")):
        for q in (1.0, 2.0, 3.2):
            rep = hierarchical_check(psi, 0, 3, q, cfg)
            ok = ok and rep.satisfied
            worst = min(worst, rep.residual)
    checks.append(
        _check(
            "hierarchical-k3",
            ok,
            f"worst residual {worst:.3e} across w4/ghz4, q in (1, 2, 3.2)",
        )
    )
    full = hierarchical_check(w4, 0, 4, 2.0)
    flat = tee_sq_residual(w4, 0, 2.0)
    checks.append(
        _check(
            "hierarchical-k-equals-n",
            abs(full.residual - flat.residual) <= 1e-12,
            f"difference {abs(full.residual - flat.residual):.2e}",
        )
    )
    ok = all(
        holds_power_bound(x, t)
        for x in np.linspace(0.0, 1.0, 21)
        for t in (1.0, 1.5, 2.0, 3.0, 7.0)
    )
    ok = ok and all(
        holds_sum_power_bound(rng.random(3), alpha) for alpha in (2.0, 2.5, 3.0, 6.0)
    )
    checks.append(_check("power-inequalities", ok, "grid and sampled checks hold"))
    return checks


def _suite_examples(seed: int) -> list[dict]:
    checks = []
    root4 = find_root_q(example4_residual, (1.1, 2.0))
    checks.append(
        _check(
            "example4-root",
            1.60 <= root4 <= 1.64 and abs(example4_residual(root4)) <= 1e-9,
            f"negative beyond q = {root4:.6f}",
        )
    )
    root5 = find_root_q(example5_residual, (2.0, 3.0))
    checks.append(
        _check(
            "example5-root",
            2.43 <= root5 <= 2.51 and abs(example5_residual(root5)) <= 1e-9,
            f"negative beyond q = {root5:.6f}",
        )
    )
    thetas = np.linspace(0.05, math.pi / 2.0 - 0.05, 24)
    qs = np.linspace(1.01, 4.30, 30)
    worst = math.inf
    worst_at = (0.0, 0.0)
    for th in thetas:
        vals = example3_residual(float(th), qs)
        i = int(np.argmin(vals))
        if vals[i] < worst:
            worst = float(vals[i])
            worst_at = (float(th), float(qs[i]))
    checks.append(
        _check(
            "example3-grid-nonnegative",
            worst >= -1e-9,
            f"min residual {worst:.6g} at theta={worst_at[0]:.4f}, q={worst_at[1]:.4f}",
        )
    )
    zeros_ok = True
    worst_zero = 0.0
    for phi in (math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0, 2.0 * math.pi):
        v = indicator(generalized_w(math.pi / 2.0, phi), 2.0).value
        worst_zero = max(worst_zero, abs(v))
        zeros_ok = zeros_ok and abs(v) <= 1e-9
    checks.append(
        _check(
            "gw-separable-zeros",
            zeros_ok,
            f"largest |indicator| at the four product angles: {worst_zero:.2e}",
        )
    )
    regressions = [
        ("pi/2, pi/4", math.pi / 2.0, math.pi / 4.0, 8.0 / 81.0),
        ("pi/2, pi/3", math.pi / 2.0, math.pi / 3.0, 24.0 / 625.0),
        ("pi/4, pi/4", math.pi / 4.0, math.pi / 4.0, 1.0 / 8.0),
    ]
    ok = True
    detail = []
    for label, th, ph, want in regressions:
        got = indicator(generalized_w(th, ph), 2.0).value
        ok = ok and abs(got - want) <= 1e-12
        detail.append(f"({label}) -> {got:.12g}")
    checks.append(_check("gw-regression-values", ok, "; ".join(detail)))
    worst = math.inf
    # theta in {0, pi} with phi in {pi/2, 3pi/2} zeroes every amplitude, so
    # the grid stays slightly inside the theta interval
    for th in np.linspace(0.02, math.pi - 0.02, 13):
        for ph in np.linspace(0.0, 2.0 * math.pi, 25):
            worst = min(worst, indicator(generalized_w(th, ph), 2.0).value)
    checks.append(
        _check(
            "gw-grid-nonnegative",
            worst >= -1e-8,
            f"min indicator {worst:.3e} on a 13x25 angle grid",
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


def cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    lines = []
    payload_suites = []
    all_passed = True
    for name in names:
        checks = _SUITES[name](args.seed)
        for c in checks:
            tag = "PASS" if c["passed"] else "FAIL"
            lines.append(f"{tag} {name}/{c['name']}: {c['detail']}")
            all_passed = all_passed and c["passed"]
        payload_suites.append({"suite": name, "checks": checks})
    total = sum(len(s["checks"]) for s in payload_suites)
    passed = sum(c["passed"] for s in payload_suites for c in s["checks"])
    lines.append(f"{passed}/{total} checks passed")
    payload = {
        "command": "verify",
        "suites": payload_suites,
        "passed": passed,
        "total": total,
        "ok": all_passed,
    }
    _emit(args, lines, payload)
    return 0 if all_passed else 3


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


def build_parser() -> _Parser:
    parser = _Parser(
        prog="tsallisq",
        description="Tsallis-q entanglement, monogamy residuals, and scans",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("state", help="materialize a named state as JSON")
    sp.add_argument("spec", help="state shorthand, e.g. w:4 or gw:pi/2:pi/4")
    sp.add_argument("--out", metavar="FILE")
    sp.set_defaults(func=cmd_state)

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
        help="evaluate the two-qubit closed form outside its window (lower bound)",
    )
    _add_roof_args(sp)
    _add_output_args(sp)
    sp.set_defaults(func=cmd_tee)

    sp = sub.add_parser("monogamy", help="monogamy residual checks for pure states")
    _add_state_args(sp)
    sp.add_argument("--q", help="entropic order (omit with --ckw)")
    sp.add_argument("--focus", type=int, default=0)
    sp.add_argument("--alpha", type=float, help="power-monogamy exponent (>= 2)")
    sp.add_argument("--k", type=int, help="hierarchy level (3..N)")
    sp.add_argument("--ckw", action="store_true", help="squared-concurrence check")
    _add_roof_args(sp)
    _add_output_args(sp)
    sp.set_defaults(func=cmd_monogamy)

    sp = sub.add_parser("indicator", help="monogamy-deficit indicator (three qubits)")
    _add_state_args(sp)
    sp.add_argument("--q", required=True)
    sp.add_argument("--focus", type=int, default=0)
    _add_roof_args(sp)
    _add_output_args(sp)
    sp.set_defaults(func=cmd_indicator)

    sp = sub.add_parser("scan", help="grid scans; optional CSV and sign claims")
    sp.add_argument(
        "subject",
        choices=sorted(_CURVATURE_SUBJECTS) + list(_FAMILY_SUBJECTS),
    )
    sp.add_argument("--x", help="x (or c) range lo:hi:step-or-count")
    sp.add_argument("--q", help="q value or range")
    sp.add_argument("--theta", help="theta range")
    sp.add_argument("--phi", help="phi range")
    sp.add_argument("--n", type=int, default=3, help="W-family size for w-indicator")
    sp.add_argument("--focus", type=int, default=0)
    sp.add_argument("--sign", choices=("nonnegative", "nonpositive"))
    sp.add_argument("--csv", metavar="FILE", help="write the grid as CSV to FILE")
    _add_output_args(sp)
    sp.set_defaults(func=cmd_scan)

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
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except StateFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
