"""Dense-matrix helpers for small Hilbert spaces.

Everything here works on bare ndarrays; state classes live one layer up.
All eigenroutines defer to LAPACK via numpy and return spectra in
descending order, which is the convention the rest of the package assumes.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from .errors import DomainError, PartitionError

HERMITICITY_TOL = 1e-8
# the package-wide cap on a state's total dimension
MAX_TOTAL_DIM = 64


def kron(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, smallest-index factor leftmost."""
    if not factors:
        raise DomainError("kron needs at least one factor")
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        f = np.asarray(f, dtype=complex)
        if out.size * f.size > MAX_TOTAL_DIM**2:
            raise DomainError("kron result would exceed %d entries" % MAX_TOTAL_DIM**2)
        out = np.kron(out, f)
    return out


def _require_square(mat: np.ndarray, name: str) -> np.ndarray:
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DomainError(f"{name} must be a square matrix, got shape {mat.shape}")
    return mat


def _require_hermitian(mat: np.ndarray, name: str, tol: float = HERMITICITY_TOL) -> None:
    dev = np.max(np.abs(mat - mat.conj().T)) if mat.size else 0.0
    if dev > tol:
        raise DomainError(f"{name} is not Hermitian (max deviation {dev:.3e} > {tol:g})")


def hermitian_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, descending."""
    mat = _require_square(mat, "matrix")
    _require_hermitian(mat, "matrix")
    return np.linalg.eigvalsh(mat)[::-1]


def _sq_norms(vecs: np.ndarray) -> np.ndarray:
    """Squared 2-norms along the last axis."""
    return (vecs.real**2 + vecs.imag**2).sum(axis=-1)


def _bipartition(vecs: np.ndarray, dims, keep) -> np.ndarray:
    """Reshape state vectors (..., prod(dims)) to matrices (..., d_keep, d_rest).

    Rows run over the kept factors in the order keep lists them, columns over
    the others in tensor order, so M @ M^dagger is the reduced state on keep
    and pure-state marginals never form a full projector.
    """
    lead = vecs.shape[:-1]
    axes, side = _cut_layout(tuple(dims), tuple(keep), len(lead))
    tensor = vecs.reshape(lead + tuple(dims))
    return (tensor if axes is None else tensor.transpose(axes)).reshape(lead + (side, -1))


@functools.cache
def _cut_layout(dims, keep, off):
    """_bipartition's transpose axes (None for the identity, as at a leading
    cut) and kept side, made on first use per dims, keep and lead ndim."""
    rest = [i for i in range(len(dims)) if i not in keep]
    axes = (*range(off), *(off + i for i in keep), *(off + i for i in rest))
    return (None if axes == tuple(range(len(axes))) else axes), math.prod(dims[i] for i in keep)


def _read_only(array: np.ndarray) -> np.ndarray:
    """array, made read-only: a cache or a frozen state hands the one array
    to every caller."""
    array.flags.writeable = False
    return array


def _check_index(value, name: str, error=DomainError) -> int:
    """value as an int, once it is an integer: the one rule for parties,
    kept subsystems, foci, hierarchy levels and optimizer counts.  Floats
    are refused even when whole, and so is bool, though it subclasses int."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_dims(dims) -> tuple[int, ...]:
    """dims as a tuple of ints, once each is an integer >= 2 and their product
    is at most MAX_TOTAL_DIM: the one rule for every factorization."""
    dims = tuple(_check_index(d, "dimension", PartitionError) for d in dims)
    if not dims or any(d < 2 for d in dims):
        raise PartitionError(f"each subsystem needs dimension >= 2, got {dims}")
    total = math.prod(dims)
    if total > MAX_TOTAL_DIM:
        raise DomainError(f"total dimension {total} exceeds the supported maximum {MAX_TOTAL_DIM}")
    return dims


def _check_party(dims, party) -> int:
    """party as an int, once it names one side of a party|rest cut of dims."""
    party, n = _check_index(party, "party", PartitionError), len(dims)
    if party < 0 or party >= n:
        raise PartitionError(f"party {party} out of range for {n} subsystems")
    if n < 2:
        raise PartitionError("a cut needs at least two subsystems")
    return party


def _check_keep(dims, keep) -> list[int]:
    """keep as sorted distinct ints, once it names at least one factor of dims."""
    keep_set = sorted(set(_check_index(k, "keep entry", PartitionError) for k in keep))
    if not keep_set:
        raise PartitionError("keep must name at least one subsystem")
    if keep_set[0] < 0 or keep_set[-1] >= len(dims):
        raise PartitionError(f"keep {keep_set} out of range for {len(dims)} subsystems")
    return keep_set


def partial_trace(mat: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    """Trace out every tensor factor not listed in keep.

    dims gives the local dimension of each factor in tensor order; keep names
    at least one factor index (factors come out in range order, not keep
    order), and keeping every factor returns a copy of mat.
    """
    mat = _require_square(mat, "matrix")
    dims = _check_dims(dims)
    total = math.prod(dims)
    if total != mat.shape[0]:
        raise PartitionError(f"dims {dims} multiply to {total}, but matrix has side {mat.shape[0]}")
    keep_set = _check_keep(dims, keep)
    n = len(dims)
    if len(keep_set) == n:
        return np.asarray(mat, dtype=complex).copy()

    tensor = np.asarray(mat, dtype=complex).reshape(dims + dims)
    # einsum with integer subscripts: row axis i gets label i; column axis i
    # reuses label i when traced out, else gets label n+i
    row_labels = list(range(n))
    col_labels = [i if i not in keep_set else n + i for i in range(n)]
    out_labels = [i for i in keep_set] + [n + i for i in keep_set]
    reduced = np.einsum(tensor, row_labels + col_labels, out_labels)
    side = math.prod(dims[i] for i in keep_set)
    return reduced.reshape(side, side)
