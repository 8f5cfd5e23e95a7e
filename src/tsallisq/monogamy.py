"""Monogamy residuals, the hierarchical variant, and the deficit indicator.

All checks report through MonogamyReport: residual = lhs - sum(terms), and
the inequality counts as satisfied when the residual clears -tolerance.  At
q = 1 every entry is the von Neumann value in natural logs.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QRangeError
from .linalg import _bipartition, _check_index
from .measures import (
    QParam,
    _check_alpha,
    _check_q,
    _curve_spectrum,
    _eig2_descending,
    _marginal,
    _pair_concurrence_sq,
    _qubit_partners,
    _tsallis_sum,
    _window_q,
    as_q,
    concurrence_pure,
    tee_2xd,
    tee_from_concurrence_sq,
)
from .qstate import DensityMatrix, PureState, _generalized_w_amplitudes
from .roof import (
    RoofConfig,
    RoofResult,
    indicator_summand_cost,
    minimize_roof,
    roof_concurrence,
)

_DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class MonogamyReport:
    """One monogamy inequality, fully evaluated.

    partners holds the subsystem index behind each entry of terms; a tuple
    entry marks a block that was treated as a single party.
    """

    q: QParam | None
    lhs: float
    terms: tuple[float, ...]
    residual: float
    satisfied: bool
    tolerance: float
    partners: tuple

    @property
    def rhs(self) -> float:
        return sum(self.terms)


@dataclass(frozen=True)
class IndicatorResult:
    """Monogamy-deficit indicator value.

    upper_bound is True when the value came out of the numerical roof (the
    optimizer certifies only that the true indicator is no larger).
    """

    value: float
    upper_bound: bool
    report: MonogamyReport | None = None
    roof: RoofResult | None = None


def _residual(lhs, terms):
    """lhs minus the terms added left to right; terms runs over the partners
    (floats, or the (partners, n) rows of a batch)."""
    return lhs - functools.reduce(operator.add, terms, 0.0)


def _build_report(q, lhs, terms, partners, tolerance) -> MonogamyReport:
    lhs = float(lhs)
    terms = tuple(float(t) for t in terms)
    residual = _residual(lhs, terms)
    return MonogamyReport(
        q=q,
        lhs=lhs,
        terms=terms,
        residual=residual,
        satisfied=residual >= -tolerance,
        tolerance=float(tolerance),
        partners=tuple(partners),
    )


def _power_rows(vecs, dims, focus: int, partners, alpha: float, q: float):
    """T_q(focus|rest)^alpha, shape (n,), and T_q(focus, j)^alpha for each
    partner j, shape (n, len(partners)), of a batch (n, 2^N) of N-qubit pure
    vectors.  The pair terms go through the concurrence closed form, which is
    exact inside the window _window_q checks; with q checked there, the
    kernel's own squared concurrences need only the clip to [0, 1].  The
    focus cut's spectrum and the pairs' closed-form spectra go through one
    Tsallis sum."""
    cut = _eig2_descending(_marginal(vecs, dims, focus)[1])
    csq = _pair_concurrence_sq(vecs, dims, tuple((focus, j) for j in partners))
    spec = np.concatenate([cut[:, None], _curve_spectrum(np.clip(csq, 0.0, 1.0))], axis=1)
    rows = _tsallis_sum(spec, q) ** alpha
    return rows[:, 0], rows[:, 1:]


def ckw_check(psi: PureState, focus: int = 0, tolerance: float = 1e-9) -> MonogamyReport:
    """Squared-concurrence monogamy for an N-qubit pure state."""
    partners = _qubit_partners(psi.dims, focus)
    lhs = concurrence_pure(psi, focus) ** 2
    terms = _pair_concurrence_sq(psi.amplitudes, psi.dims, tuple((focus, j) for j in partners))
    return _build_report(None, lhs, terms, partners, tolerance)


def tee_sq_residual(
    psi: PureState, focus: int, q, tolerance: float = _DEFAULT_TOL
) -> MonogamyReport:
    """Squared-TEE monogamy for an N-qubit pure state: alpha_residual at alpha 2.

    Valid across the whole closed-form window; the pair terms go through the
    concurrence formula, which is exact there.
    """
    return alpha_residual(psi, focus, 2.0, q, tolerance)


def alpha_residual(
    psi: PureState, focus: int, alpha: float, q, tolerance: float = _DEFAULT_TOL
) -> MonogamyReport:
    """alpha-th power monogamy (alpha >= 2) for an N-qubit pure state."""
    alpha = _check_alpha(alpha)
    qp = _window_q(q)
    partners = _qubit_partners(psi.dims, focus)
    lhs, terms = _power_rows(psi.amplitudes[None], psi.dims, focus, partners, alpha, qp.q)
    return _build_report(qp, lhs[0], terms[0], partners, tolerance)


def hierarchical_check(
    psi: PureState,
    focus: int,
    k: int,
    q,
    config: RoofConfig | None = None,
    tolerance: float = 1e-6,
) -> MonogamyReport:
    """k-party coarse-graining of the squared-TEE monogamy.

    The first k-2 partners keep their own pair term; the remaining qubits are
    merged into one block whose term is the 2xd closed form on the block's
    roof concurrence.  Needs the concave regime, where that form is exact.
    At k = N the last partner is one more single, no block is left, and this
    reduces to tee_sq_residual.
    """
    qp = as_q(q)
    if not qp.concave_regime:
        raise QRangeError(f"q={qp.q:.12g} is outside the concave regime the block term needs")
    partners = _qubit_partners(psi.dims, focus)
    n = psi.num_sites
    k = _check_index(k, "k")
    if k < 3 or k > n:
        raise DomainError(f"k must lie in [3, {n}], got {k}")

    singles = partners if k == n else partners[: k - 2]
    block = partners[len(singles) :]
    lhs, terms = _power_rows(psi.amplitudes[None], psi.dims, focus, singles, 2.0, qp.q)
    terms = list(terms[0])
    labels = list(singles)
    if block:
        # the focus qubit against the merged block, with the singles traced out
        mat = _bipartition(psi.amplitudes, psi.dims, (focus,) + block)
        rho = mat @ mat.conj().T
        cut = DensityMatrix((psi.dims[focus], rho.shape[0] // psi.dims[focus]), rho)
        roof = roof_concurrence(cut, config)
        terms.append(tee_2xd(cut, qp, roof.value).value ** 2)
        labels.append(tuple(block))
    return _build_report(qp, lhs[0], terms, labels, tolerance)


def indicator(
    state, q, config: RoofConfig | None = None, focus: int = 0
) -> IndicatorResult:
    """Monogamy-deficit indicator of an N-qubit pure or a three-qubit mixed state.

    Pure input evaluates the squared-TEE residual exactly; mixed input runs
    the convex roof of the pure-state summand, whose result can only
    overestimate the true indicator.
    """
    qp = _window_q(q)
    if isinstance(state, PureState):
        report = tee_sq_residual(state, focus, qp)
        return IndicatorResult(value=report.residual, upper_bound=False, report=report)
    if isinstance(state, DensityMatrix):
        # inside the analytic window the pure-state summand is the squared
        # monogamy residual, which is nonnegative, so 0 is a proven floor
        roof = minimize_roof(
            state, indicator_summand_cost(state.dims, focus, qp.q), config, floor=0.0
        )
        return IndicatorResult(value=roof.value, upper_bound=True, roof=roof)
    raise TypeError(f"indicator expects PureState or DensityMatrix, got {type(state)!r}")


def _gw_indicator(theta, phi, q, focus: int = 0) -> np.ndarray:
    """indicator(generalized_w(theta, phi), q, focus=focus).value on the
    broadcast of theta and phi, bit for bit, as one batch."""
    amps = _generalized_w_amplitudes(theta, phi)
    qp = _window_q(q)
    partners = _qubit_partners((2, 2, 2), focus)
    lhs, terms = _power_rows(amps.reshape(-1, 8), (2, 2, 2), focus, partners, 2.0, qp.q)
    return _residual(lhs, terms.T).reshape(amps.shape[:-1])


# --- closed forms for the named families --------------------------------------


def w_indicator_closed_form(n: int, q):
    """Indicator of the n-qubit W state, any focus (they are all equivalent).

    f(4(n-1)/n^2)^2 - (n-1) f(4/n^2)^2 with f the squared-concurrence-to-TEE
    map; broadcasts over q, q = 1 included.
    """
    n = _check_index(n, "n")
    if n < 2:
        raise DomainError(f"the W family needs n >= 2, got {n}")
    cut = 4.0 * (n - 1) / n**2
    pair = 4.0 / n**2
    lhs = tee_from_concurrence_sq(cut, q)
    term = tee_from_concurrence_sq(pair, q)
    return lhs**2 - (n - 1) * term**2


def _spectra_residual(q, cut, *pairs):
    """T_q(cut)^2 - sum T_q(pair)^2 through _tsallis_sum, each spectrum an
    array holding its eigenvalues on the last axis; q (q = 1 included)
    broadcasts against the other axes.  Scalars in give a float out."""
    qa = _check_q(q)
    qk = float(qa) if qa.ndim == 0 else qa[..., None]
    out = _residual(_tsallis_sum(cut, qk) ** 2, (_tsallis_sum(p, qk) ** 2 for p in pairs))
    return float(out) if np.ndim(out) == 0 else out


def example3_residual(theta, q):
    """Closed-form indicator of the 4x2x2 family, focus on the qudit.

    Every branch of the optimal decompositions has the same marginal
    spectrum, so both pair roofs collapse to constants: with c = cos^2 theta
    and s = sin^2 theta the cut spectrum is {c/2, c/2, s/2, s/2} and the
    pairs' are {1/2, 1/2} and {c, s}.  Broadcasts theta against q.
    """
    c, s = np.square(np.cos(theta)), np.square(np.sin(theta))
    cut = np.stack([c / 2.0, c / 2.0, s / 2.0, s / 2.0], axis=-1)
    return _spectra_residual(q, cut, np.array([0.5, 0.5]), np.stack([c, s], axis=-1))


def example4_residual(q):
    """Closed-form indicator of the antisymmetric three-qutrit state: the cut
    spectrum {1/3, 1/3, 1/3} against {1/2, 1/2} twice; broadcasts over q."""
    half = np.array([0.5, 0.5])
    return _spectra_residual(q, np.full(3, 1.0 / 3.0), half, half)


def example5_residual(q):
    """Closed-form indicator of the fixed 3x2x2 state.

    The cut term uses the maximally mixed qutrit marginal; each pair roof
    collapses onto the spectrum {0, 1/3, 2/3}.  Broadcasts over q.
    """
    pair = np.array([1.0 / 3.0, 2.0 / 3.0])
    return _spectra_residual(q, np.full(3, 1.0 / 3.0), pair, pair)


def random_biseparable_mixture(
    rng: np.random.Generator, members: int = 3
) -> DensityMatrix:
    """Random three-qubit mixture of pure states, each product across one of
    the three bipartitions (so the true indicator is exactly zero)."""
    members = _check_index(members, "members")
    if members < 1:
        raise DomainError("need at least one member")
    dim = 8
    rho = np.zeros((dim, dim), dtype=complex)
    weights = rng.random(members)
    weights = weights / weights.sum()
    for w in weights:
        single = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        single /= np.linalg.norm(single)
        pair = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        pair /= np.linalg.norm(pair)
        split = int(rng.integers(3))
        tensor = np.kron(single, pair).reshape(2, 2, 2)
        if split == 1:
            tensor = tensor.transpose(1, 0, 2)
        elif split == 2:
            tensor = tensor.transpose(1, 2, 0)
        vec = tensor.reshape(dim)
        rho += w * np.outer(vec, vec.conj())
    return DensityMatrix((2, 2, 2), rho)
