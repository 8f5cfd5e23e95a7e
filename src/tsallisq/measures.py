"""Entropies, concurrence, and the Tsallis entanglement measure.

The central scalar function maps a squared concurrence x to the Tsallis-q
entropy of the two-eigenvalue spectrum {(1+sqrt(1-x))/2, (1-sqrt(1-x))/2}.
Every Tsallis sum in the package goes through one kernel, _tsallis_sum, built
on the q-logarithm (p^(q-1) - 1)/(q - 1).  Near q = 1 that difference is
evaluated with expm1, so each entropy is continuous through its von Neumann
value (natural logarithms) at q = 1 and exact to rounding on both sides.
The batched pure-state value kernels (party|rest TEE and concurrence, pair
concurrences) live here; the roof costs add their gradients on top.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PartitionError, QRangeError
from .linalg import _bipartition, _check_index, _check_party, _read_only, _sq_norms
from .qstate import DensityMatrix, PureState

# closed-form two-qubit window: roots of q^2 - 5q + 3
ANALYTIC_Q_MIN = (5.0 - math.sqrt(13.0)) / 2.0
ANALYTIC_Q_MAX = (5.0 + math.sqrt(13.0)) / 2.0

_EDGE = 1e-12

# sigma_y x sigma_y is the row reversal with signs (-, +, +, -)
_FLIP_SIGN = np.array([-1.0, 1.0, 1.0, -1.0])
# lower triangle of a 4x4 factor: masking qr's raw output with it costs less
# than qr's mode "r", which calls np.triu on every call
_LOWER4 = np.tril(np.ones((4, 4)))
_NEAR_ONE = 0.25
# what a concurrence floor gives up to rounding, so that it stays a proven
# lower bound of a roof value recomputed from a decomposition
_FLOOR_MARGIN = 1e-13


def _check_q(q) -> np.ndarray:
    """Orders as a float array; the one rule for QParam and array callers.
    A 0-d order is tested as a float, which costs well under a microsecond."""
    qa = np.asarray(q, dtype=float)
    ok = 0.0 < float(qa) < math.inf if qa.ndim == 0 else np.all((qa > 0.0) & (qa < math.inf))
    if not ok:
        got = f", got {q!r}" if qa.ndim == 0 else ""
        raise QRangeError(f"entropic order must be finite and positive{got}")
    return qa


def _unit_interval(x, name: str) -> np.ndarray:
    """x as a float array clipped to [0, 1], once every entry lies within
    1e-12 of it: the one rule for values on [0, 1].  NaN lies nowhere and is
    refused."""
    xa = np.asarray(x, dtype=float)
    if not np.all((xa >= -_EDGE) & (xa <= 1.0 + _EDGE)):
        got = f", got {float(xa)!r}" if xa.ndim == 0 else ""
        raise DomainError(f"{name} must lie in [0, 1]{got}")
    return np.clip(xa, 0.0, 1.0)


def _check_alpha(alpha) -> float:
    """A power-monogamy exponent as a float, once it is finite and >= 2: the
    one rule for it.  NaN is not >= 2 and is refused."""
    a = float(alpha)
    if not 2.0 <= a < math.inf:
        need = "finite" if a == math.inf else ">= 2"
        raise DomainError(f"alpha must be {need}, got {a!r}")
    return a


def _check_xq(x, q) -> tuple[np.ndarray, np.ndarray]:
    """Squared concurrences on [0, 1] and entropic orders, as float arrays."""
    return _unit_interval(x, "squared concurrence"), _check_q(q)


def _qlog(base, q):
    """q-logarithm (base^(q-1) - 1)/(q - 1), elementwise; ln(base) at q = 1.

    Where |q - 1| >= 1/4 the power form is exact and keeps numpy's fast path
    for integer powers.  Closer to 1 it cancels, so those entries are
    recomputed by _qlog_near; an array of orders pays for that only on its
    near entries.
    """
    k = q - 1.0 if isinstance(q, float) else np.asarray(q, dtype=float) - 1.0
    if np.ndim(k) == 0:
        return _qlog_near(base, k) if abs(k) < _NEAR_ONE else (base**k - 1.0) / k
    near = np.abs(k) < _NEAR_ONE
    with np.errstate(divide="ignore", invalid="ignore"):
        out = base**k
        out -= 1.0
        out /= k
    if near.any():
        base, k, near = np.broadcast_arrays(base, k, near)
        out[near] = _qlog_near(base[near], k[near])
    return out


def _qlog_near(base, k):
    """expm1(k ln base)/k, which is exact through k = 0 (where it is ln base)."""
    lb = np.log(base)
    t = k * lb
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(t == 0.0, lb, np.expm1(t) / k)


def _tsallis_sum(p, q):
    """Tsallis entropy (1 - sum p^q)/(q - 1) of the probabilities on the last axis.

    A float q away from 1 keeps that power form; otherwise the sum is
    -sum p ln_q(p), which has no cancellation near q = 1 and is the Shannon
    entropy at q = 1.  A q array must broadcast against p, last axis included.
    """
    p = np.maximum(p, 0.0)
    if isinstance(q, float) and abs(q - 1.0) >= _NEAR_ONE:
        return (1.0 - (p**q).sum(axis=-1)) / (q - 1.0)
    terms = _qlog(np.where(p > 0.0, p, 1.0), q)
    terms *= p
    return -terms.sum(axis=-1)


def _spin_flip_overlaps(m: np.ndarray) -> np.ndarray:
    """tau = M^T (sigma_y x sigma_y) M for a stack of 4 x k matrices M.

    With rho = M M^dagger, the singular values of the complex symmetric tau
    are the square roots of the eigenvalues of rho rho~ (Wootters, PRL 80,
    2245, 1998).
    """
    return np.einsum("...ik,...il->...kl", m, _FLIP_SIGN[:, None] * m[..., ::-1, :])


def _wootters(factor: np.ndarray):
    """Wootters' l1 >= l2 >= l3 >= l4 and l1 - l2 - l3 - l4 for a stack of
    4x4 factors L of two-qubit states rho = L L^dagger: the l_i are the
    singular values of tau = L^T (sigma_y x sigma_y) L."""
    lam = np.linalg.svd(_spin_flip_overlaps(factor), compute_uv=False)
    return lam, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]


def _pair_concurrence_sq(vecs: np.ndarray, dims, pairs) -> np.ndarray:
    """Squared Wootters concurrence of each qubit pair (a tuple (i, j)), for a
    batch of pure vectors (..., dim); returns (..., len(pairs)).

    Each pair marginal is rho = M M^dagger with M the 4 x k reshaping of a
    vector, so the amplitudes already are a factor of rho and no marginal is
    diagonalized.  For k > 2 the factor is L = R^dagger from the QR
    M^dagger = Q R: numpy's raw QR of M^T, the conjugate of M^dagger, holds
    exactly that L in its lower 4x4 triangle, and _wootters finishes, with
    no numerical-rank cutoff.  For k = 2 (three qubits) the spin-flipped
    overlaps form the complex symmetric 2x2 matrix
    tau = M^T (sigma_y x sigma_y) M, whose singular values s1 >= s2 are the
    square roots of the nonzero eigenvalues of rho rho~.  Then
    C^2 = (s1 - s2)^2 = ||tau||_F^2 - 2|det tau|, evaluated as the sum of
    squares |a - u d*|^2 + |b + u b*|^2 with tau = [[a, b], [b, d]] and
    u = det/|det| (1 when det = 0), which cancels nothing when s1 ~ s2.
    """
    m = vecs[..., _pair_gather(tuple(dims), tuple(pairs))]
    if m.shape[-1] == 2:
        return _sq_norms(_tau_residual(m)[3])
    raw = np.linalg.qr(np.swapaxes(m, -1, -2), mode="raw")[0]
    c = np.maximum(_wootters(raw[..., :4] * _LOWER4)[1], 0.0)
    return c * c


@functools.cache
def _pair_gather(dims, pairs) -> np.ndarray:
    """Index array idx: vecs[..., idx] stacks _bipartition(vecs, dims, sorted(p))
    over the pairs p on axis -3; made on first use per dims and pairs (tuples)."""
    dim = np.arange(math.prod(dims))
    return _read_only(np.stack([_bipartition(dim, dims, sorted(p)) for p in pairs]))


def _tau_residual(m: np.ndarray):
    """tau, u, the mask det != 0 and the row of _pair_concurrence_sq, for a
    stack of 4 x 2 matrices M.  grad_M C^2 = 4 (sigma_y x sigma_y) M*
    (tau - u conj(adj tau)), u taken as 0 at det = 0, the |det| cone's centre."""
    tau = _spin_flip_overlaps(m)
    a, b, d = tau[..., 0, 0], tau[..., 0, 1], tau[..., 1, 1]
    det = a * d - b * b
    mag = np.abs(det)
    live = mag > 0.0
    u = np.divide(det, mag, out=np.ones_like(det), where=live)
    return tau, u, live, np.stack([a - u * d.conj(), b + u * b.conj()], axis=-1)


def _eig2_descending(gram: np.ndarray) -> np.ndarray:
    """Closed-form eigenvalues of a batch of 2x2 Hermitian matrices."""
    a = gram[:, 0, 0].real
    c = gram[:, 1, 1].real
    off = np.abs(gram[:, 0, 1]) ** 2
    tr = a + c
    disc = np.sqrt(np.maximum((a - c) ** 2 + 4.0 * off, 0.0))
    out = np.empty(tr.shape + (2,))
    out[:, 0], out[:, 1] = (tr + disc) / 2.0, (tr - disc) / 2.0
    return out


def _marginal(states, dims, party):
    """The party|rest matrices M of a batch (n, dim) of pure vectors and the
    party's marginals sigma = M M^dagger."""
    mat = _bipartition(states, dims, (party,))
    return mat, np.einsum("nij,nkj->nik", mat, mat.conj())


def _tee_values(states, dims, party, q):
    """Tsallis-q entanglement across party|rest of a batch (n, dim) of pure
    vectors, with the party|rest matrices M, the marginals sigma = M M^dagger,
    their spectra (descending for a qubit) and, for a larger party, their
    eigenvectors (else None).  A larger party's eigenvalues at or below
    4 eps max are rounding and read 0, which they add below q = 1 as eps^q."""
    mat, gram = _marginal(states, dims, party)
    if dims[party] == 2:
        spec, vecs = _eig2_descending(gram), None
    else:
        spec, vecs = np.linalg.eigh(gram)
        spec[spec <= 4.0 * np.finfo(float).eps * spec[:, -1:]] = 0.0
    return _tsallis_sum(spec, q), mat, gram, spec, vecs


def _concurrence_values(states, dims, party):
    """Generalized concurrence sqrt(2(1 - purity)) across party|rest of a
    batch (n, dim) of pure vectors, clamped to sqrt(2(d-1)/d) for the smaller
    side dimension d, with M and sigma as above.  It is 2 (sum of |2x2 minors
    of M|^2)^(1/2) (Cauchy-Binet), which reads 0 to rounding on a product state."""
    mat, gram = _marginal(states, dims, party)
    side = min(mat.shape[1:])
    rows = mat if mat.shape[1] == side else mat.swapaxes(1, 2)
    i, j = _upper_pairs(side)
    wedge = np.einsum("npk,npl->npkl", rows[:, i], rows[:, j])
    minors_sq = _sq_norms((wedge - wedge.swapaxes(-1, -2)).reshape(len(mat), -1)) / 2.0
    return np.minimum(2.0 * np.sqrt(minors_sq), math.sqrt(2.0 * (side - 1) / side)), mat, gram


@functools.cache
def _upper_pairs(side: int) -> np.ndarray:
    """np.triu_indices(side, 1) as the two rows of one array, made on first use."""
    return _read_only(np.array(np.triu_indices(side, 1)))


@dataclass(frozen=True)
class QParam:
    """Entropic order q with the range predicates the package keys off."""

    q: float

    def __post_init__(self):
        object.__setattr__(self, "q", float(_check_q(self.q)))

    @property
    def is_von_neumann(self) -> bool:
        return self.q == 1.0

    @property
    def analytic_two_qubit(self) -> bool:
        """True where mixed two-qubit TEE is an exact function of concurrence."""
        return ANALYTIC_Q_MIN - _EDGE <= self.q <= ANALYTIC_Q_MAX + _EDGE

    @property
    def concave_regime(self) -> bool:
        """True where the measure is concave in the squared concurrence."""
        q = self.q
        return (ANALYTIC_Q_MIN - _EDGE <= q <= 2.0 + _EDGE) or (
            3.0 - _EDGE <= q <= ANALYTIC_Q_MAX + _EDGE
        )


def as_q(q) -> QParam:
    """Coerce a number (or pass through a QParam) into a QParam."""
    if isinstance(q, QParam):
        return q
    return QParam(float(q))


def _window_q(q) -> QParam:
    """q as a QParam, once it sits in the window where pair terms are exact."""
    qp = as_q(q)
    if not qp.analytic_two_qubit:
        raise QRangeError(f"q={qp.q:.12g} is outside the window where pair terms are exact")
    return qp


def _qubit_partners(dims, focus: int) -> tuple[int, ...]:
    """The qubits other than focus, once dims is at least three qubits."""
    if any(d != 2 for d in dims):
        raise PartitionError(f"this check needs qubits throughout, got dims {dims}")
    if len(dims) < 3:
        raise PartitionError("monogamy needs at least three parties")
    focus = _check_index(focus, "focus")
    if focus < 0 or focus >= len(dims):
        raise DomainError(f"focus {focus} out of range for {len(dims)} qubits")
    return tuple(j for j in range(len(dims)) if j != focus)


@dataclass(frozen=True)
class ConcurrenceValue:
    """Concurrence plus, when it came from the two-qubit formula, the four
    descending singular values behind it."""

    c: float
    lambdas: tuple[float, ...] | None = None


@dataclass(frozen=True)
class TeeEstimate:
    value: float
    exact: bool


def tsallis_entropy(rho, q) -> float:
    """Tsallis-q entropy (1 - Tr rho^q)/(q - 1); natural-log von Neumann at q = 1."""
    qp = as_q(q)
    if not isinstance(rho, DensityMatrix):
        rho = np.asarray(rho, dtype=complex)
        rho = DensityMatrix(rho.shape[:1], rho)
    return float(_tsallis_sum(rho.spectrum(), qp.q))


def binary_entropy(p: float) -> float:
    """-p ln p - (1-p) ln(1-p), tolerating 1e-12 of rounding outside [0, 1]."""
    p = float(_unit_interval(p, "binary_entropy argument"))
    return float(_tsallis_sum(np.array([p, 1.0 - p]), 1.0))


def concurrence_two_qubit(rho) -> ConcurrenceValue:
    """Two-qubit concurrence max(0, l1 - l2 - l3 - l4).

    Accepts a DensityMatrix with dims (2, 2) or a bare 4x4 matrix, which is
    validated as one.  The factor rho = L L^dagger comes from the
    eigendecomposition, and _wootters takes the l_i from it.  Eigenvalues of
    rho at or below the numerical-rank cutoff 4 eps max(spectrum) count as
    zero: they are rounding noise, and their square roots would enter L as
    ~1e-8 columns.
    """
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix((2, 2), np.asarray(rho, dtype=complex))
    if rho.dims != (2, 2):
        raise DomainError(f"two-qubit concurrence needs dims (2, 2), got {rho.dims}")
    vals, vecs = np.linalg.eigh(rho.matrix)
    vals[vals <= 4.0 * np.finfo(float).eps * vals[-1]] = 0.0
    lam, diff = _wootters(vecs * np.sqrt(vals))
    c = max(0.0, float(diff))
    return ConcurrenceValue(c=c, lambdas=tuple(float(v) for v in lam))


def _caf_bound(rho: DensityMatrix) -> float:
    """Chen-Albeverio-Fei bound max(||rho^T_A||_1, ||R(rho)||_1) - 1 <= roof C
    of a qubit-qudit state (PRL 95, 040504, 2005), less _FLOOR_MARGIN for the
    norms' rounding and clipped at 0: exact on pure input, 0 on PPT input.  R(rho)
    has rho's (ik, jl) entry at (ij, kl), i and j indexing the first party."""
    da, db = rho.dims
    t = rho.matrix.reshape(da, db, da, db)
    pt = np.abs(np.linalg.eigvalsh(t.transpose(2, 1, 0, 3).reshape(da * db, -1))).sum()
    realigned = np.linalg.svd(t.transpose(0, 2, 1, 3).reshape(da * da, -1), compute_uv=False)
    return max(0.0, max(float(pt), float(realigned.sum())) - 1.0 - _FLOOR_MARGIN)


def concurrence_pure(psi: PureState, party: int = 0) -> float:
    """Generalized concurrence sqrt(2(1 - purity)) of one party against the rest.

    Clamped to the ceiling sqrt(2(d-1)/d) set by the smaller side dimension d.
    """
    party = _check_party(psi.dims, party)
    return float(_concurrence_values(psi.amplitudes[None], psi.dims, party)[0][0])


def tee_from_concurrence_sq(csq, q):
    """Tsallis-q entanglement as a function of squared concurrence.

    Evaluates T_q of the spectrum {(1+s)/2, (1-s)/2} with s = sqrt(1-x).
    The small eigenvalue is computed as x/(2(1+s)) so nothing cancels as
    x -> 0. Broadcasts over array x and array q; scalars in, scalar out.
    """
    x, qa = _check_xq(csq, q)
    out = _tee_curve(x, float(qa) if qa.ndim == 0 else qa[..., None])
    return float(out) if out.shape == () else out


def _tee_curve(x, q):
    """tee_from_concurrence_sq on checked input: x an array in [0, 1], q a
    float or an array of orders broadcast against x with a trailing axis."""
    return _tsallis_sum(_curve_spectrum(x), q)


def _curve_spectrum(x):
    """The spectrum {(1+s)/2, x/(2(1+s))}, s = sqrt(1 - x), on a new last
    axis, of an array x in [0, 1]; nothing cancels as x -> 0."""
    s = np.sqrt(1.0 - x)
    spec = np.empty(x.shape + (2,))
    spec[..., 0], spec[..., 1] = (1.0 + s) / 2.0, x / (2.0 * (1.0 + s))
    return spec


def ef_two_qubit(rho: DensityMatrix) -> float:
    """Entanglement of formation of a two-qubit state, in nats."""
    return tee_two_qubit(rho, 1.0)


def tee_pure(psi: PureState, party: int, q) -> float:
    """Tsallis-q entanglement of a pure state across the party/rest cut."""
    qp = as_q(q)
    party = _check_party(psi.dims, party)
    return float(_tee_values(psi.amplitudes[None], psi.dims, party, qp.q)[0][0])


def tee_two_qubit(rho: DensityMatrix, q, *, force_q: bool = False) -> float:
    """Mixed two-qubit Tsallis-q entanglement via the concurrence closed form.

    Outside the analytic window the closed form is only an upper bound on the
    convex roof: every member of Wootters' optimal decomposition has
    concurrence C(rho), so that decomposition attains g(C^2).  The call
    raises there unless force_q is set.
    """
    qp = as_q(q)
    if not qp.analytic_two_qubit and not force_q:
        raise QRangeError(
            f"q={qp.q:.12g} is outside the closed-form window "
            f"[{ANALYTIC_Q_MIN:.12g}, {ANALYTIC_Q_MAX:.12g}]; pass force_q=True "
            "to evaluate the formula as an upper bound"
        )
    c = concurrence_two_qubit(rho).c
    return float(tee_from_concurrence_sq(c * c, qp.q))


def tee_2xd(rho: DensityMatrix, q, c: float) -> TeeEstimate:
    """Tsallis-q entanglement of a qubit-qudit state, the qubit on either
    side, from its roof concurrence c.

    Exact when q sits in the concave regime; elsewhere the returned value is
    the same formula evaluated as an estimate, flagged exact=False.
    """
    qp = as_q(q)
    if rho.num_sites != 2 or 2 not in rho.dims:
        raise DomainError(f"expected a qubit-qudit bipartite state, got dims {rho.dims}")
    c = float(_unit_interval(c, "a qubit cut's concurrence"))
    value = float(tee_from_concurrence_sq(c**2, qp.q))
    return TeeEstimate(value=value, exact=qp.concave_regime)
