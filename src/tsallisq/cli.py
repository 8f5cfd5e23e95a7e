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

from . import verify
from .analysis import _SCAN_KINDS, SignScanReport
from .errors import DomainError, StateFormatError
from .linalg import _check_party
from .measures import (
    as_q,
    concurrence_pure,
    concurrence_two_qubit,
    tee_2xd,
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
    keep = _parse_keep(args.keep) if args.keep is not None else None
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
        roof = roof_concurrence(state, args.roof_config, party=args.cut)
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
        roof = roof_concurrence(state, args.roof_config, party=state.dims.index(2))
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
            report = hierarchical_check(state, args.focus, args.k, q, args.roof_config)
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
    result = indicator(args.state, q, args.roof_config, focus=args.focus)
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


def cmd_verify(args):
    names = list(verify._SUITES) if args.suite == "all" else [args.suite]
    return verify.run(names, args.seed)


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
    sp.add_argument("suite", choices=sorted(verify._SUITES) + ["all"])
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
        if "restarts" in args:
            # RoofConfig checks --restarts and --seed before any route runs
            args.roof_config = RoofConfig(restarts=args.restarts, seed=args.seed)
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
