import itertools

import numpy as np
import pytest

import tsallisq
from tsallisq import DomainError, PartitionError
from tsallisq.linalg import _bipartition, hermitian_eigenvalues, kron, partial_trace


def test_public_names_resolve():
    missing = [name for name in tsallisq.__all__ if not hasattr(tsallisq, name)]
    assert missing == []


def test_kron_two_factors():
    a = np.array([[1, 2], [3, 4]], dtype=float)
    b = np.eye(2)
    out = kron(a, b)
    assert out.shape == (4, 4)
    assert np.allclose(out, np.kron(a, b))


def test_kron_three_factors():
    a, b, c = np.eye(2), np.diag([1.0, 2.0]), np.eye(3)
    assert np.allclose(kron(a, b, c), np.kron(np.kron(a, b), c))


def test_kron_rejects_oversized_result():
    big = np.eye(64)
    with pytest.raises(DomainError):
        kron(big, np.eye(2))


def test_hermitian_eigenvalues_descending():
    mat = np.diag([1.0, 3.0, 2.0])
    vals = hermitian_eigenvalues(mat)
    assert np.allclose(vals, [3.0, 2.0, 1.0])


def test_hermitian_eigenvalues_rejects_nonhermitian():
    mat = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(DomainError):
        hermitian_eigenvalues(mat)


def test_partial_trace_bell_pair():
    bell = np.zeros((4, 4))
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    left = partial_trace(bell, (2, 2), (0,))
    assert np.allclose(left, np.eye(2) / 2)


def test_partial_trace_keeps_in_range_order():
    # keep order is normalized to range order, so (1, 0) == (0, 1)
    rng = np.random.default_rng(2)
    raw = rng.normal(size=(6, 6))
    mat = raw @ raw.T
    mat /= np.trace(mat)
    a = partial_trace(mat, (2, 3), (0, 1))
    assert np.allclose(a, mat)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    mat = raw @ raw.conj().T
    mat /= np.trace(mat).real
    for keep in ((0,), (1,), (2,), (0, 2)):
        red = partial_trace(mat, (2, 2, 2), keep)
        assert abs(np.trace(red).real - 1.0) < 1e-12


def test_partial_trace_of_product_factors():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(2, 2))
    a = a @ a.T
    a /= np.trace(a)
    b = rng.normal(size=(3, 3))
    b = b @ b.T
    b /= np.trace(b)
    joint = np.kron(a, b)
    assert np.allclose(partial_trace(joint, (2, 3), (0,)), a)
    assert np.allclose(partial_trace(joint, (2, 3), (1,)), b)


@pytest.mark.parametrize("keep", [(), (2,), (-1,)])
def test_partial_trace_bad_keep(keep):
    with pytest.raises(PartitionError):
        partial_trace(np.eye(4) / 4, (2, 2), keep)


def test_partial_trace_dims_mismatch():
    with pytest.raises(PartitionError):
        partial_trace(np.eye(4) / 4, (2, 3), (0,))


@pytest.mark.parametrize("keep", [(0,), (2,), (1, 2), (2, 0), (1, 0, 2)])
def test_bipartition_gram_is_partial_trace(keep):
    rng = np.random.default_rng(5)
    dims = (2, 3, 2)
    vecs = rng.normal(size=(2, 3, 12)) + 1j * rng.normal(size=(2, 3, 12))
    mats = _bipartition(vecs, dims, keep)
    side = int(np.prod([dims[i] for i in keep]))
    assert mats.shape == (2, 3, side, 12 // side)
    # partial_trace orders the kept factors by index; undo keep's order
    kd = [dims[i] for i in keep]
    order = list(np.argsort(keep))
    for vec, mat in zip(vecs.reshape(-1, 12), mats.reshape(-1, side, 12 // side)):
        gram = (mat @ mat.conj().T).reshape(kd + kd)
        gram = gram.transpose(order + [len(keep) + i for i in order]).reshape(side, side)
        ref = partial_trace(np.outer(vec, vec.conj()), dims, keep)
        assert np.max(np.abs(gram - ref)) <= 1e-13


def _moveaxis_cut(vecs, dims, keep):
    # reference layout: move the kept factors to the front, in keep's order
    off = vecs.ndim - 1
    tensor = vecs.reshape(vecs.shape[:-1] + tuple(dims))
    tensor = np.moveaxis(tensor, [off + i for i in keep], list(range(off, off + len(keep))))
    side = int(np.prod([dims[i] for i in keep]))
    return tensor.reshape(vecs.shape[:-1] + (side, -1))


def _every_keep(n):
    return [p for k in range(1, n + 1) for p in itertools.permutations(range(n), k)]


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (2, 3, 2), (3, 3), (2, 4)])
@pytest.mark.parametrize("lead", [(), (5,)])
def test_bipartition_matches_moveaxis_bit_for_bit(dims, lead):
    rng = np.random.default_rng(len(dims) + len(lead))
    dim = int(np.prod(dims))
    vecs = rng.normal(size=lead + (dim,)) + 1j * rng.normal(size=lead + (dim,))
    for keep in _every_keep(len(dims)):
        got = _bipartition(vecs, dims, keep)
        ref = _moveaxis_cut(vecs, dims, keep)
        assert got.shape == ref.shape
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(ref).tobytes()


def test_kron_refuses_no_factor():
    with pytest.raises(DomainError) as err:
        kron()
    assert str(err.value) == "kron needs at least one factor"


def test_partial_trace_refuses_a_non_square_matrix():
    with pytest.raises(DomainError) as err:
        partial_trace(np.ones((2, 4)), (2, 2), (0,))
    assert str(err.value) == "matrix must be a square matrix, got shape (2, 4)"
