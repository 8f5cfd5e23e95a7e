"""Curvature diagnostics for the concurrence-to-TEE map, sign scans, and roots.

Three second derivatives drive everything the package claims about monogamy:

* tee_curvature_wrt_c  - d^2/dc^2 of f(c^2), with f the squared-concurrence
  to TEE map.  Its c -> 1 limit changes sign at the roots of q^2 - 5q + 3,
  which is where the closed-form window ends.
* tee_sq_curvature     - d^2/dx^2 of f(x)^2 (x the squared concurrence).
  Nonnegative across the whole window; this is the convexity that makes the
  squared measure superadditive.
* tee_curvature        - d^2/dx^2 of f(x).  Sign alternates between the two
  concave q-bands and the middle band (2, 3).

They are f'', 2 f'^2 + 2 f f'' and 2 f' + 4 x f'' of one slope kernel,
_slopes, so all three broadcast over arrays and take its exact one-sided
limits at x = 0 and x = 1 (some are infinite).  The kernel is one formula in
q: the power difference that would cancel near q = 1 enters as a difference
of q-logarithms, so q = 1 needs no separate von Neumann branch.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError
from .measures import (
    ANALYTIC_Q_MAX,
    ANALYTIC_Q_MIN,
    _EDGE,
    _check_q,
    _check_xq,
    _qlog,
    _tee_curve,
)


def _slopes(X, Q):
    """f' and f'' of the squared-concurrence-to-TEE map f on checked x and q
    that broadcast against each other.  With s = sqrt(1-x), A = 1+s,
    B = 1-s = x/A (cancellation-free), D1 = (A^(q-1) - B^(q-1))/(q-1) as a
    difference of q-logarithms (ln(A/B) at q = 1) and d0 = A^(q-2) + B^(q-2),
    f' = q D1/(2^(q+1) s) and f'' = q/2^(q+2) (D1/s^3 - d0/s^2) inside (0, 1).
    The one-sided limits are f' = q/(4(q-1)) at x = 0 for q > 1 (+inf
    otherwise), f' = q/2^q at x = 1, and for f'' those tee_curvature states."""
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sqrt(1.0 - X)
        A = 1.0 + s
        B = X / A
        D1 = _qlog(A, Q) - _qlog(B, Q)
        d0 = A ** (Q - 2.0) + B ** (Q - 2.0)
        c2 = Q / 2.0 ** (Q + 2.0)
        f1 = 2.0 * c2 * D1 / s
        f2 = c2 * (D1 / (1.0 - X) ** 1.5 - d0 / (1.0 - X))
        if np.any(zero := X == 0.0):
            f1 = np.where(zero, np.where(Q > 1.0, Q / (4.0 * (Q - 1.0)), np.inf), f1)
            above = np.where(Q > 2.0, Q * (3.0 - Q) / (16.0 * (Q - 1.0)), 0.0)
            f2 = np.where(zero, np.where(Q >= 2.0, above, -np.inf), f2)
        if np.any(one := X == 1.0):
            f1 = np.where(one, Q / 2.0**Q, f1)
            f2 = np.where(one, -Q * (Q - 2.0) * (Q - 3.0) / (3.0 * 2.0 ** (Q + 1.0)), f2)
    return f1, f2


def _times_f2(a, f2):
    """a f'', counted as 0 where a = 0 (at x = 0 f'' is -inf for q < 2)."""
    with np.errstate(invalid="ignore"):
        return np.where(a == 0.0, 0.0, a * f2)


def _curvature(x, q, compose):
    """compose(X, Q) on the checked x and q; scalars in, scalar out."""
    out = compose(*_check_xq(x, q))
    return float(out) if np.isscalar(x) and np.isscalar(q) else np.asarray(out)


def tee_curvature(x, q):
    """d^2/dx^2 of the squared-concurrence-to-TEE map, elementwise.

    At x = 0 the curvature diverges to -inf for q < 2 (q = 2 gives 0,
    q > 2 gives q(3-q)/(16(q-1))); at x = 1 it is -q(q-2)(q-3)/(3 2^(q+1)).
    """
    return _curvature(x, q, lambda X, Q: _slopes(X, Q)[1])


def tee_sq_curvature(x, q):
    """d^2/dx^2 of the squared measure f(x)^2, elementwise.

    Decomposes as 2 f'^2 + 2 f f''.  At x = 0 the value is q^2/(8(q-1)^2)
    for q > 1 and +inf for q <= 1 (a real divergence, not overflow).
    """
    def compose(X, Q):
        f1, f2 = _slopes(X, Q)
        f = _tee_curve(X, float(Q) if Q.ndim == 0 else Q[..., None])
        return 2.0 * f1**2 + 2.0 * _times_f2(f, f2)

    return _curvature(x, q, compose)


def tee_curvature_wrt_c(q, c):
    """d^2/dc^2 of f(c^2) as a function of the concurrence c itself.

    This is the quantity whose c -> 1 sign decides whether interpolating
    toward the maximally entangled state can overshoot the roof; its limit
    there is curvature_limit_at_max_c(q).
    """
    def compose(C, Q):
        f1, f2 = _slopes(C**2, Q)
        return 2.0 * f1 + _times_f2(4.0 * C**2, f2)

    return _curvature(c, q, compose)


def curvature_limit_at_max_c(q):
    """Limit of tee_curvature_wrt_c as c -> 1: -q(q^2 - 5q + 3)/(3 2^(q-1)).

    Vanishes exactly at the window endpoints (5 +- sqrt(13))/2.
    """
    Q = _check_q(q)
    out = -Q * (Q**2 - 5.0 * Q + 3.0) / (3.0 * 2.0 ** (Q - 1.0))
    if np.isscalar(q):
        return float(out)
    return out


def find_root_q(func, bracket, *, f_tol=1e-10, x_tol=1e-12, max_iter=200, trace=None):
    """Bisection root finder on a scalar function of q.

    bracket must straddle a sign change, with f finite at both ends.  Each
    iteration halves the bracket and costs one evaluation, so a bracket of
    width w takes at most ceil(log2(w / x_tol)) + 2 evaluations.  It stops
    when |f| <= f_tol at a bracket end or the bracket is no wider than
    x_tol, and returns the end with the smaller |f|.  When trace is a list,
    the current bracket (lo, hi) is appended once per iteration.  Raises
    ConvergenceError when neither tolerance is met in max_iter iterations.
    """
    a, b = float(bracket[0]), float(bracket[1])
    fa, fb = float(func(a)), float(func(b))
    if not (math.isfinite(fa) and math.isfinite(fb)) or fa * fb > 0.0:
        raise DomainError(
            f"bracket ({a:g}, {b:g}) does not straddle a sign change "
            f"(f values {fa:.3e}, {fb:.3e})"
        )
    for it in range(max_iter + 1):
        if trace is not None:
            trace.append((min(a, b), max(a, b)))
        if min(abs(fa), abs(fb)) <= f_tol or abs(b - a) <= x_tol:
            return a if abs(fa) <= abs(fb) else b
        if it == max_iter:
            break
        m = (a + b) / 2.0
        fm = float(func(m))
        if (fm < 0.0) == (fa < 0.0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    raise ConvergenceError(
        f"no root within f_tol={f_tol:g} or x_tol={x_tol:g} after {max_iter} "
        f"iterations; last bracket ({min(a, b):.17g}, {max(a, b):.17g})"
    )


def critical_q() -> tuple[float, float]:
    """Both roots of the c -> 1 curvature limit, found numerically and then
    checked against the closed forms (5 -+ sqrt(13))/2 to 1e-10."""
    # The limit curve is shallow near the upper root (slope ~ -0.52), so the
    # default f_tol would leave ~2e-10 of x error.  Tighten both tolerances.
    lo = find_root_q(curvature_limit_at_max_c, (0.2, 0.95), f_tol=1e-14, x_tol=5e-14)
    hi = find_root_q(curvature_limit_at_max_c, (4.05, 4.8), f_tol=1e-14, x_tol=5e-14)
    if abs(lo - ANALYTIC_Q_MIN) > 1e-10 or abs(hi - ANALYTIC_Q_MAX) > 1e-10:
        raise RuntimeError(f"critical-q roots ({lo!r}, {hi!r}) drifted from the closed forms")
    return lo, hi


# --- sign scans --------------------------------------------------------------

_SCAN_KINDS = {
    "tee-curvature": (tee_curvature, "x"),
    "tee-sq-curvature": (tee_sq_curvature, "x"),
    "tee-curvature-c": (lambda x, q: tee_curvature_wrt_c(q, x), "c"),
}


def _fmt12(value: float) -> str:
    """%.12g, with -0.0 folded to 0: the number format of every CSV."""
    v = float(value)
    if v == 0.0:
        v = 0.0
    return format(v, ".12g")


@dataclass(frozen=True)
class DerivativeSample:
    """One grid point of a scan: its coordinates along the report's axes."""

    kind: str
    point: tuple[float, ...]
    value: float


_SIGN_TOL = 1e-10


@dataclass(frozen=True)
class SignScanReport:
    """Values on the product of named axes, judged against a sign claim.

    values has one dimension per axis.  claimed_sign is "nonnegative",
    "nonpositive" or None (nothing is judged).  A value violates the claim
    when it lies beyond +-tolerance on the wrong side of it; NaN always does.
    num_violations counts them; violations keeps the first ten in row-major
    order.  The worst point is the grid's extreme on the wrong side, or its
    first NaN.
    """

    kind: str
    labels: tuple[str, ...]
    axes: tuple[np.ndarray, ...]
    values: np.ndarray
    claimed_sign: str | None
    tolerance: float = _SIGN_TOL
    num_violations: int = field(init=False)
    violations: tuple[DerivativeSample, ...] = field(init=False)
    min_value: float = field(init=False)
    max_value: float = field(init=False)
    min_abs_value: float = field(init=False)
    _worst: DerivativeSample | None = field(init=False, repr=False)

    def __post_init__(self):
        if self.claimed_sign not in (None, "nonnegative", "nonpositive"):
            raise DomainError(
                "claimed_sign must be 'nonnegative' or 'nonpositive', "
                f"got {self.claimed_sign!r}"
            )
        axes = tuple(np.asarray(a, dtype=float).ravel() for a in self.axes)
        if any(a.size == 0 for a in axes):
            raise DomainError("scan grids must be nonempty")
        values = np.asarray(self.values, dtype=float).reshape([a.size for a in axes])

        def sample(flat):
            index = np.unravel_index(flat, values.shape)
            point = tuple(float(a[i]) for a, i in zip(axes, index))
            return DerivativeSample(self.kind, point, float(values[index]))

        count, violations, worst = 0, (), None
        if self.claimed_sign is not None:
            low = self.claimed_sign == "nonnegative"
            wrong = values < -self.tolerance if low else values > self.tolerance
            bad = np.flatnonzero(wrong | np.isnan(values))
            count, violations = bad.size, tuple(map(sample, bad[:10]))
            # argmin and argmax return the first NaN when there is one
            worst = sample(np.argmin(values) if low else np.argmax(values))
        finite = np.abs(values[np.isfinite(values)])
        derived = dict(
            axes=axes,
            values=values,
            tolerance=float(self.tolerance),
            num_violations=count,
            violations=violations,
            min_value=float(np.nanmin(values)),
            max_value=float(np.nanmax(values)),
            min_abs_value=float(finite.min()) if finite.size else math.nan,
            _worst=worst,
        )
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def ok(self) -> bool:
        return self.num_violations == 0

    def to_csv(self, fh) -> None:
        """Write the grid as CSV: a header, then one row (*point, value) per
        point in row-major order.  Every number is %.12g with -0.0 folded to 0
        (v + 0.0 folds it); each coordinate is formatted once.  The rows that
        share their leading coordinates form one block: a template over the
        last axis takes the block's prefix and its values in one % call."""
        *lead, last = ([_fmt12(v) for v in axis] for axis in self.axes)
        template = "".join(f"\0{c},%.12g\n" for c in last)
        blocks = (self.values + 0.0).reshape(-1, len(last))
        fh.write(",".join((*self.labels, "value")) + "\n")
        for prefix, block in zip(itertools.product(*lead), blocks):
            head = "".join(c + "," for c in prefix)
            fh.write(template.replace("\0", head) % tuple(block.tolist()))

    def summary(self) -> dict:
        """The grid (first, last and count per axis) and its extremes; under a
        claim also the verdict and the first ten violations."""
        out = {
            "grid": {
                label: [float(axis[0]), float(axis[-1]), int(axis.size)]
                for label, axis in zip(self.labels, self.axes)
            },
            "min_value": self.min_value,
            "max_value": self.max_value,
        }
        if self.claimed_sign is not None:
            out.update(
                kind=self.kind,
                claimed_sign=self.claimed_sign,
                tolerance=self.tolerance,
                min_abs_value=self.min_abs_value,
                ok=self.ok,
                num_violations=self.num_violations,
                violations=[
                    {"kind": v.kind, **dict(zip(self.labels, v.point)), "value": v.value}
                    for v in self.violations
                ],
            )
        return out


def scan_sign(kind, xs, qs, claimed_sign, tolerance=_SIGN_TOL) -> SignScanReport:
    """Evaluate one curvature kind on the xs x qs grid and judge a sign claim
    (see SignScanReport)."""
    if kind not in _SCAN_KINDS:
        raise DomainError(f"unknown scan kind {kind!r}; choose from {sorted(_SCAN_KINDS)}")
    func, xlabel = _SCAN_KINDS[kind]
    xs = np.asarray(xs, dtype=float).ravel()
    qs = np.asarray(qs, dtype=float).ravel()
    values = func(xs[:, None], qs[None, :])
    return SignScanReport(kind, (xlabel, "q"), (xs, qs), values, claimed_sign, tolerance)


# --- elementary inequalities the monogamy proofs lean on ----------------------


def holds_power_bound(x: float, t: float) -> bool:
    """(1+x)^t >= 1 + x^t for x in [0, 1], t >= 1 (with 1e-12 slack)."""
    x = float(x)
    t = float(t)
    if x < 0.0 or x > 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x!r}")
    if t < 1.0:
        raise DomainError(f"t must be >= 1, got {t!r}")
    return (1.0 + x) ** t + 1e-12 >= 1.0 + x**t


def holds_sum_power_bound(xs, alpha: float) -> bool:
    """(sum x_i^2)^(alpha/2) >= sum x_i^alpha for entries in [0, 1], alpha >= 2."""
    arr = np.asarray(xs, dtype=float).ravel()
    alpha = float(alpha)
    if arr.size == 0:
        raise DomainError("need at least one entry")
    if np.any(arr < 0.0) or np.any(arr > 1.0 + _EDGE):
        raise DomainError("entries must lie in [0, 1]")
    if alpha < 2.0:
        raise DomainError(f"alpha must be >= 2, got {alpha!r}")
    return float(np.sum(arr**2)) ** (alpha / 2.0) + 1e-12 >= float(np.sum(arr**alpha))
