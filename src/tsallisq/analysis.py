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

All three broadcast over arrays and return exact one-sided limits at x = 0
and x = 1 (some are infinite).  Each is one formula in q: the power
difference that would cancel near q = 1 enters as a difference of
q-logarithms, so q = 1 needs no separate von Neumann branch.
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
    tee_from_concurrence_sq,
)


def _powers(X, Q):
    """s = sqrt(1-x) and, with A = 1+s and B = 1-s = x/A (cancellation-free),
    the two power combinations the curvature formulas share:
    D1 = (A^(q-1) - B^(q-1))/(q-1), taken as a difference of q-logarithms so
    it stays exact through q = 1 (where it is ln(A/B)), and
    d0 = A^(q-2) + B^(q-2)."""
    s = np.sqrt(1.0 - X)
    A = 1.0 + s
    B = X / A
    D1 = _qlog(A, Q)
    D1 -= _qlog(B, Q)
    d0 = A ** (Q - 2.0) + B ** (Q - 2.0)
    return s, D1, d0


def _interior_curvature(X, Q, D1, d0):
    """d^2/dx^2 of the squared-concurrence-to-TEE map for 0 < x < 1."""
    return Q / 2.0 ** (Q + 2.0) * (D1 / (1.0 - X) ** 1.5 - d0 / (1.0 - X))


def _curvature_at_one(Q):
    """d^2/dx^2 of the squared-concurrence-to-TEE map at x = 1."""
    return -Q * (Q - 2.0) * (Q - 3.0) / (3.0 * 2.0 ** (Q + 1.0))


def _regions(x, q, interior, at_zero, at_one):
    """One curvature on the broadcast of x and q: interior(X, Q) where
    0 < x < 1, and the one-sided limits at_zero(Q) at x = 0 and at_one(Q) at
    x = 1.  Scalars in, scalar out."""
    scalar_in = np.isscalar(x) and np.isscalar(q)
    X, Q = (a.astype(float) for a in np.broadcast_arrays(*_check_xq(x, q)))
    out = np.empty(X.shape, dtype=float)
    inner = (X > 0.0) & (X < 1.0)
    if np.any(inner):
        out[inner] = interior(X[inner], Q[inner])
    for edge, limit in ((X == 0.0, at_zero), (X == 1.0, at_one)):
        if np.any(edge):
            out[edge] = limit(Q[edge])
    if scalar_in:
        return float(out.reshape(()))
    return out


def tee_curvature(x, q):
    """d^2/dx^2 of the squared-concurrence-to-TEE map, elementwise.

    At x = 0 the curvature diverges to -inf for q < 2 (q = 2 gives 0,
    q > 2 gives q(3-q)/(16(q-1))); at x = 1 it is -q(q-2)(q-3)/(3 2^(q+1)).
    """
    def interior(X, Q):
        _, D1, d0 = _powers(X, Q)
        return _interior_curvature(X, Q, D1, d0)

    def at_zero(Q):
        above = Q * (3.0 - Q) / (16.0 * np.where(Q > 2.0, Q - 1.0, 1.0))
        return np.where(Q > 2.0, above, np.where(Q == 2.0, 0.0, -np.inf))

    return _regions(x, q, interior, at_zero, _curvature_at_one)


def tee_sq_curvature(x, q):
    """d^2/dx^2 of the squared measure f(x)^2, elementwise.

    Decomposes as 2 f'^2 + 2 f f''.  At x = 0 the value is q^2/(8(q-1)^2)
    for q > 1 and +inf for q <= 1 (a real divergence, not overflow).
    """
    def interior(X, Q):
        _, D1, d0 = _powers(X, Q)
        f = tee_from_concurrence_sq(X, Q)
        slope_sq = Q**2 * D1**2 / (2.0 ** (2.0 * Q + 1.0) * (1.0 - X))
        return slope_sq + 2.0 * f * _interior_curvature(X, Q, D1, d0)

    def at_zero(Q):
        return np.where(Q > 1.0, Q**2 / (8.0 * np.where(Q > 1.0, Q - 1.0, 1.0) ** 2), np.inf)

    def at_one(Q):
        slope_sq = 2.0 * Q**2 / 4.0**Q
        return slope_sq + 2.0 * -_qlog(0.5, Q) * _curvature_at_one(Q)

    return _regions(x, q, interior, at_zero, at_one)


def tee_curvature_wrt_c(q, c):
    """d^2/dc^2 of f(c^2) as a function of the concurrence c itself.

    This is the quantity whose c -> 1 sign decides whether interpolating
    toward the maximally entangled state can overshoot the roof; its limit
    there is curvature_limit_at_max_c(q).
    """
    def interior(C, Q):
        X = C**2
        s, D1, d0 = _powers(X, Q)
        return Q / 2.0**Q * (D1 / s**3 - X * d0 / s**2)

    def at_zero(Q):
        return np.where(Q > 1.0, Q / (2.0 * np.where(Q > 1.0, Q - 1.0, 1.0)), np.inf)

    return _regions(c, q, interior, at_zero, curvature_limit_at_max_c)


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
