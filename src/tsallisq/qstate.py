"""State containers, a small catalog of named states, and JSON I/O."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PartitionError, StateFormatError
from .linalg import (
    MAX_TOTAL_DIM,
    _bipartition,
    _check_dims,
    _check_index,
    _check_keep,
    _read_only,
    _sq_norms,
    partial_trace,
)

_NORM_TOL = 1e-10
_TRACE_TOL = 1e-9
_HERM_TOL = 1e-10
_NEG_EIG_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class PureState:
    """A normalized state vector over an explicit tensor factorization."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = _check_dims(self.dims)
        amps = np.asarray(self.amplitudes, dtype=complex).ravel()
        total = math.prod(dims)
        if amps.size != total:
            raise PartitionError(f"dims {dims} need {total} amplitudes, got {amps.size}")
        if not np.isfinite(amps).all():
            raise DomainError("state vector has non-finite amplitudes")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > _NORM_TOL:
            raise DomainError(f"state vector norm is {norm:.12g}, expected 1")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", _read_only(np.array(amps, dtype=complex)))

    @property
    def num_sites(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def to_density(self) -> "DensityMatrix":
        psi = self.amplitudes
        return DensityMatrix(self.dims, np.outer(psi, psi.conj()))

    def reduced(self, keep) -> "DensityMatrix":
        return reduced_density(self, keep)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A density operator over an explicit tensor factorization.

    Construction validates hermiticity, unit trace, and positivity (up to
    small numerical slack); the stored matrix is symmetrized once so later
    spectral calls never see drift.
    """

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        dims = _check_dims(self.dims)
        mat = np.asarray(self.matrix, dtype=complex)
        total = math.prod(dims)
        if mat.shape != (total, total):
            raise PartitionError(
                f"dims {dims} need a {total}x{total} matrix, got shape {mat.shape}"
            )
        if not np.isfinite(mat).all():
            raise DomainError("density matrix has non-finite entries")
        herm_dev = float(np.max(np.abs(mat - mat.conj().T)))
        if herm_dev > _HERM_TOL:
            raise DomainError(f"density matrix is not Hermitian (max deviation {herm_dev:.3e})")
        mat = (mat + mat.conj().T) / 2.0
        tr = float(mat.trace().real)
        if abs(tr - 1.0) > _TRACE_TOL:
            raise DomainError(f"density matrix trace is {tr:.12g}, expected 1")
        low = float(np.linalg.eigvalsh(mat)[0])
        if low < -_NEG_EIG_TOL:
            raise DomainError(f"density matrix has negative eigenvalue {low:.3e}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", _read_only(np.array(mat, dtype=complex)))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_sites(self) -> int:
        return len(self.dims)

    def spectrum(self) -> np.ndarray:
        """Eigenvalues, descending."""
        return np.linalg.eigvalsh(self.matrix)[::-1]

    def purity(self) -> float:
        return float(np.vdot(self.matrix, self.matrix).real)

    def rank(self, tol: float = 1e-10) -> int:
        return int(np.sum(self.spectrum() > tol))

    def partial_trace(self, keep) -> "DensityMatrix":
        keep = _check_keep(self.dims, keep)
        reduced = partial_trace(self.matrix, self.dims, keep)
        return DensityMatrix(tuple(self.dims[k] for k in keep), reduced)


@dataclass(frozen=True, eq=False)
class Decomposition:
    """A weighted pure-state ensemble; weights are strictly positive and sum to 1."""

    members: tuple[tuple[float, PureState], ...]

    def __post_init__(self):
        members = tuple((float(w), psi) for w, psi in self.members)
        if not members:
            raise DomainError("a decomposition needs at least one member")
        dims = members[0][1].dims
        for w, psi in members:
            if not w > 0.0:
                raise DomainError(f"decomposition weight {w:.3e} is not positive")
            if psi.dims != dims:
                raise PartitionError("decomposition members disagree on dims")
        total = sum(w for w, _ in members)
        if abs(total - 1.0) > _TRACE_TOL:
            raise DomainError(f"decomposition weights sum to {total:.12g}, expected 1")
        object.__setattr__(self, "members", members)

    @property
    def size(self) -> int:
        return len(self.members)

    def reconstruct(self) -> np.ndarray:
        """Weighted sum of member projectors as a bare ndarray."""
        first = self.members[0][1]
        out = np.zeros((first.dim, first.dim), dtype=complex)
        for w, psi in self.members:
            out += w * np.outer(psi.amplitudes, psi.amplitudes.conj())
        return out


def reduced_density(psi: PureState, keep) -> DensityMatrix:
    """Reduced state of a pure state on the kept subsystems.

    Uses the Gram-matrix route (reshape, then M @ M+), which is cheaper than
    forming the full projector first; DensityMatrix symmetrizes the result.
    """
    keep = _check_keep(psi.dims, keep)
    if len(keep) == psi.num_sites:
        return psi.to_density()
    mat = _bipartition(psi.amplitudes, psi.dims, keep)
    return DensityMatrix(tuple(psi.dims[i] for i in keep), mat @ mat.conj().T)


# --- named states -----------------------------------------------------------


def ghz(n: int) -> PureState:
    """n-qubit GHZ state (|0...0> + |1...1>)/sqrt(2)."""
    n = _check_index(n, "n")
    if n < 2 or 2**n > MAX_TOTAL_DIM:
        raise DomainError(f"ghz supports 2..6 qubits, got {n}")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return PureState((2,) * n, amps)


def w_state(n: int) -> PureState:
    """n-qubit W state: equal superposition of all single-excitation basis states."""
    n = _check_index(n, "n")
    if n < 2 or 2**n > MAX_TOTAL_DIM:
        raise DomainError(f"w_state supports 2..6 qubits, got {n}")
    amps = np.zeros(2**n, dtype=complex)
    for k in range(n):
        amps[1 << k] = 1.0 / np.sqrt(n)
    return PureState((2,) * n, amps)


def _generalized_w_amplitudes(theta, phi) -> np.ndarray:
    """Normalized generalized_w amplitudes (..., 8) on the broadcast of theta
    and phi; the first point in row-major order whose amplitudes vanish is
    reported with the angles as given there."""
    shape = np.broadcast(theta, phi).shape
    amps = np.zeros(shape + (8,), dtype=complex)
    amps[..., 1] = np.sin(theta) * np.cos(phi)
    amps[..., 2] = np.sin(theta) * np.sin(phi)
    amps[..., 4] = np.cos(phi)
    norm = np.sqrt(_sq_norms(amps))
    # sin/cos of the singular angles land at rounding noise, not exact zero,
    # so the cutoff has to sit well above machine epsilon
    small = norm < 1e-9
    if small.any():
        at = np.unravel_index(np.argmax(small), shape)
        th, ph = (np.broadcast_to(a, shape)[at] if np.ndim(a) else a for a in (theta, phi))
        raise DomainError(f"generalized_w amplitudes vanish at theta={th!r}, phi={ph!r}")
    return amps / norm[..., None]


def generalized_w(theta: float, phi: float) -> PureState:
    """Two-angle W-class family on three qubits.

    Amplitudes before normalization: sin(theta)cos(phi) on |001>,
    sin(theta)sin(phi) on |010>, cos(phi) on |100>.
    """
    return PureState((2, 2, 2), _generalized_w_amplitudes(theta, phi))


def example3_state(theta: float) -> PureState:
    """One-parameter 4x2x2 family with a qudit first factor.

    With a = cos(theta), b = sin(theta), the amplitudes are
    (a, b, a, b)/sqrt(2) on basis indices (0, 6, 9, 15).
    """
    a = np.cos(theta)
    b = np.sin(theta)
    amps = np.zeros(16, dtype=complex)
    amps[0] = a
    amps[6] = b
    amps[9] = a
    amps[15] = b
    return PureState((4, 2, 2), amps / np.sqrt(2.0))


def example4_state() -> PureState:
    """Totally antisymmetric three-qutrit singlet."""
    amps = np.zeros(27, dtype=complex)
    for sign, (i, j, k) in (
        (+1, (0, 1, 2)),
        (-1, (0, 2, 1)),
        (+1, (1, 2, 0)),
        (-1, (1, 0, 2)),
        (+1, (2, 0, 1)),
        (-1, (2, 1, 0)),
    ):
        amps[9 * i + 3 * j + k] = sign
    return PureState((3, 3, 3), amps / np.sqrt(6.0))


def example5_state() -> PureState:
    """Fixed 3x2x2 state with a maximally mixed qutrit marginal."""
    amps = np.zeros(12, dtype=complex)
    amps[2] = np.sqrt(2.0)
    amps[5] = np.sqrt(2.0)
    amps[8] = 1.0
    amps[11] = 1.0
    return PureState((3, 2, 2), amps / np.sqrt(6.0))


def random_pure_state(dims, rng: np.random.Generator) -> PureState:
    total = math.prod(_check_dims(dims))
    amps = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    return PureState(dims, amps / np.linalg.norm(amps))


# --- JSON serialization ------------------------------------------------------


def _pairs_to_complex(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise ValueError("entries must be [re, im] pairs")
    if not np.isfinite(arr).all():
        raise ValueError("entries must be finite")
    return arr[..., 0] + 1j * arr[..., 1]


def _complex_to_pairs(arr: np.ndarray):
    stacked = np.stack([arr.real, arr.imag], axis=-1)
    return stacked.tolist()


def load_state(path: str):
    """Read a PureState or DensityMatrix from a JSON file.

    The file must carry "dims" (JSON integers) plus either "amplitudes"
    (vector of [re, im] pairs) or "matrix" (array of rows of [re, im] pairs).
    A norm or trace within 1e-6 of 1 but beyond the constructor's slack is
    divided out; every other value check is the constructor's, naming the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise StateFormatError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(payload, dict):
        raise StateFormatError(f"{path}: top level must be a JSON object")
    if "dims" not in payload:
        raise StateFormatError(f"{path}: missing required key 'dims'")
    dims = payload["dims"]
    # JSON integers only: int() would truncate 2.9 and parse "2"; bool is an int subclass
    if not isinstance(dims, list) or any(type(d) is not int for d in dims):
        raise StateFormatError(f"{path}: 'dims' must be a list of integers")
    dims = tuple(dims)

    pure = "amplitudes" in payload
    if pure == ("matrix" in payload):
        raise StateFormatError(f"{path}: exactly one of 'amplitudes' or 'matrix' is required")
    key = "amplitudes" if pure else "matrix"
    try:
        arr = _pairs_to_complex(payload[key])
    except (ValueError, TypeError) as exc:
        raise StateFormatError(f"{path}: malformed {key}: {exc}") from exc
    if pure and arr.ndim != 1:
        raise StateFormatError(f"{path}: amplitudes must be a flat list")
    if not pure and arr.ndim != 2:
        raise StateFormatError(f"{path}: matrix must be a list of rows, got shape {arr.shape}")
    scale = float(np.linalg.norm(arr)) if pure else float(arr.trace().real)
    # a scale the constructor accepts stays, so what save_state wrote reloads bit for bit
    if (_NORM_TOL if pure else _TRACE_TOL) < abs(scale - 1.0) <= 1e-6:
        arr = arr / scale
    try:
        return PureState(dims, arr) if pure else DensityMatrix(dims, arr)
    except DomainError as exc:
        raise StateFormatError(f"{path}: {exc}") from exc


def _state_payload(state) -> dict:
    """The JSON object save_state writes for a PureState or DensityMatrix."""
    if isinstance(state, PureState):
        return {
            "dims": list(state.dims),
            "amplitudes": _complex_to_pairs(state.amplitudes),
        }
    if isinstance(state, DensityMatrix):
        return {
            "dims": list(state.dims),
            "matrix": _complex_to_pairs(state.matrix),
        }
    raise TypeError(f"cannot serialize {type(state).__name__}")


def save_state(state, path: str) -> None:
    """Write a PureState or DensityMatrix as JSON (the format load_state reads)."""
    payload = _state_payload(state)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")
