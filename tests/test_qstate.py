import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsallisq import (
    Decomposition,
    DensityMatrix,
    DomainError,
    PartitionError,
    PureState,
    StateFormatError,
    example3_state,
    example4_state,
    example5_state,
    generalized_w,
    ghz,
    load_state,
    random_pure_state,
    reduced_density,
    save_state,
    w_state,
)


def test_pure_state_requires_unit_norm():
    with pytest.raises(DomainError):
        PureState((2,), np.array([1.0, 1.0]))


def test_pure_state_rejects_oversized_system():
    with pytest.raises(DomainError):
        PureState((2,) * 7, np.zeros(128))


def test_pure_state_amplitudes_read_only(bell):
    with pytest.raises(ValueError):
        bell.amplitudes[0] = 0.0


def test_to_density_is_projector(bell):
    rho = bell.to_density()
    assert isinstance(rho, DensityMatrix)
    assert abs(rho.purity() - 1.0) < 1e-12
    assert rho.rank() == 1


def test_reduced_marginal_of_bell(bell):
    red = bell.reduced([0])
    assert red.dims == (2,)
    assert np.allclose(red.matrix, np.eye(2) / 2)


def test_reduced_pair_of_ghz4():
    red = ghz(4).reduced([1, 3])
    assert red.dims == (2, 2)
    expect = np.zeros((4, 4))
    expect[0, 0] = expect[3, 3] = 0.5
    assert np.allclose(red.matrix, expect)


def test_density_matrix_validation():
    with pytest.raises(DomainError):
        DensityMatrix((2,), np.array([[0.5, 0.3], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(DomainError):
        DensityMatrix((2,), np.eye(2))  # trace 2
    with pytest.raises(DomainError):
        DensityMatrix((2,), np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(PartitionError):
        DensityMatrix((2, 2), np.eye(2) / 2)  # dims/shape mismatch


def test_constructors_reject_non_finite_entries():
    # NaN passes every "beyond tolerance" test, so it is refused up front
    with pytest.raises(DomainError, match="non-finite"):
        PureState((2,), np.array([np.nan, 1.0]))
    with pytest.raises(DomainError, match="non-finite"):
        DensityMatrix((2,), np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_density_matrix_spectrum_descending():
    dm = DensityMatrix((2,), np.diag([0.3, 0.7]))
    assert np.allclose(dm.spectrum(), [0.7, 0.3])


def test_density_partial_trace():
    dm = DensityMatrix((2, 2), np.eye(4) / 4)
    red = dm.partial_trace([1])
    assert red.dims == (2,)
    assert np.allclose(red.matrix, np.eye(2) / 2)


def test_decomposition_validation(bell):
    with pytest.raises(DomainError):
        Decomposition(())
    with pytest.raises(DomainError):
        Decomposition(((0.5, bell),))  # weights must sum to 1
    dec = Decomposition(((0.5, bell), (0.5, bell)))
    assert dec.size == 2
    assert np.allclose(dec.reconstruct(), bell.to_density().matrix)


def test_ghz_and_w_shapes():
    g = ghz(3)
    assert g.dims == (2, 2, 2)
    assert abs(abs(g.amplitudes[0]) ** 2 - 0.5) < 1e-12
    w = w_state(4)
    probs = np.abs(w.amplitudes) ** 2
    assert np.allclose(sorted(probs)[-4:], [0.25] * 4)


def test_ghz_size_limits():
    with pytest.raises(DomainError):
        ghz(1)
    with pytest.raises(DomainError):
        ghz(7)


def test_generalized_w_recovers_w3():
    st_w = generalized_w(np.pi / 2, np.pi / 4)
    probs = np.abs(st_w.amplitudes) ** 2
    assert np.allclose(probs[[1, 2, 4]], [1 / 3] * 3)


def test_generalized_w_rejects_null_direction():
    with pytest.raises(DomainError):
        generalized_w(0.0, np.pi / 2)


def test_example_states_normalized():
    for state in (example3_state(0.3), example4_state(), example5_state()):
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


def test_example4_antisymmetric_structure():
    amps = example4_state().amplitudes.reshape(3, 3, 3)
    # fully antisymmetric under swapping any two tensor slots
    assert np.allclose(amps, -np.transpose(amps, (1, 0, 2)))
    assert np.allclose(amps, -np.transpose(amps, (0, 2, 1)))


def test_random_pure_state_normalized(rng):
    psi = random_pure_state((2, 3, 2), rng)
    assert psi.dims == (2, 3, 2)
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12


def test_save_load_pure_roundtrip(tmp_path, rng):
    psi = random_pure_state((2, 2, 2), rng)
    path = tmp_path / "pure.json"
    save_state(psi, path)
    back = load_state(path)
    assert isinstance(back, PureState)
    assert back.dims == psi.dims
    assert np.allclose(back.amplitudes, psi.amplitudes)


def test_save_load_mixed_roundtrip(tmp_path, rng):
    # 200 seeded mixtures of rank 1 to 4; a stored trace is often 1 +- 2^-52,
    # which the constructor accepts, so nothing is divided out and the file
    # (the stored matrix bit for bit) reloads bit for bit
    path = tmp_path / "mixed.json"
    off_one = 0
    for k in range(200):
        rank = 1 + k % 4
        weights = rng.random(rank)
        mats = [random_pure_state((2, 2), rng).to_density().matrix for _ in range(rank)]
        dm = DensityMatrix((2, 2), sum(w * m for w, m in zip(weights / weights.sum(), mats)))
        off_one += dm.matrix.trace().real != 1.0
        save_state(dm, path)
        back = load_state(path)
        assert isinstance(back, DensityMatrix)
        pairs = np.array(json.loads(path.read_text())["matrix"])
        assert np.array_equal(pairs[..., 0] + 1j * pairs[..., 1], dm.matrix)
        assert np.array_equal(back.matrix, dm.matrix)
    assert off_one > 0


def test_save_load_pure_roundtrip_is_exact(tmp_path, rng):
    path = tmp_path / "pure.json"
    for dims in [(2, 2), (2, 3), (2, 2, 2)] * 20:
        psi = random_pure_state(dims, rng)
        save_state(psi, path)
        assert np.array_equal(load_state(path).amplitudes, psi.amplitudes)


def test_load_reports_json_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dims": [2], amplitudes}')
    with pytest.raises(StateFormatError, match="line 1"):
        load_state(path)


def test_load_rejects_wrong_amplitude_count(tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"dims": [2, 2], "amplitudes": [[1.0, 0.0]]}))
    with pytest.raises(StateFormatError):
        load_state(path)


def test_load_repairs_small_norm_drift(tmp_path):
    a = 0.7071069
    path = tmp_path / "drift.json"
    path.write_text(
        json.dumps({"dims": [2, 2], "amplitudes": [[a, 0], [0, 0], [0, 0], [a, 0]]})
    )
    st_back = load_state(path)
    assert abs(np.linalg.norm(st_back.amplitudes) - 1.0) < 1e-12


def test_load_repairs_small_trace_drift(tmp_path):
    # a trace off by 4e-7 lies beyond the constructor's 1e-9 but inside the
    # 1e-6 repair, so it is divided out
    mat = np.diag([0.5 + 4e-7, 0.5, 0.0, 0.0])
    path = tmp_path / "drift.json"
    path.write_text(json.dumps({"dims": [2, 2], "matrix": np.stack([mat, 0 * mat], -1).tolist()}))
    assert np.array_equal(load_state(path).matrix, mat / mat.trace())


def test_load_rejects_large_norm_drift(tmp_path):
    path = tmp_path / "far.json"
    path.write_text(
        json.dumps({"dims": [2, 2], "amplitudes": [[0.8, 0], [0, 0], [0, 0], [0.8, 0]]})
    )
    with pytest.raises(StateFormatError):
        load_state(path)


def test_load_names_the_file_once_for_bad_pairs(tmp_path):
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps({"dims": [2], "amplitudes": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}))
    with pytest.raises(StateFormatError) as info:
        load_state(path)
    assert str(info.value) == f"{path}: malformed amplitudes: entries must be [re, im] pairs"


@pytest.mark.parametrize(
    "payload,message",
    [
        (
            {"dims": [2, 2], "amplitudes": [[0.8, 0], [0, 0], [0, 0], [0.8, 0]]},
            "state vector norm is 1.1313708499, expected 1",
        ),
        ({"dims": [2, 2], "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}, "dims (2, 2) need a 4x4 matrix"),
        (
            {"dims": [2], "matrix": [[[0.5, 0], [0.1, 0]], [[0, 0], [0.5, 0]]]},
            "density matrix is not Hermitian (max deviation 1.000e-01)",
        ),
        ({"dims": [2], "matrix": [[[2, 0], [0, 0]], [[0, 0], [0, 0]]]}, "density matrix trace is 2, expected 1"),
    ],
)
def test_load_values_are_judged_by_the_constructors(tmp_path, payload, message):
    # load_state checks only the format; a value the constructor refuses is
    # refused with the constructor's message, after the file name
    path = tmp_path / "values.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(StateFormatError) as info:
        load_state(path)
    assert str(info.value).startswith(f"{path}: {message}")


@pytest.mark.parametrize("dims", [[2.9, 2], ["2", 2], [True, 2, 2]])
def test_load_rejects_non_integer_dims(tmp_path, dims):
    bell = [[2**-0.5, 0], [0, 0], [0, 0], [2**-0.5, 0]]
    path = tmp_path / "dims.json"
    path.write_text(json.dumps({"dims": dims, "amplitudes": bell}))
    with pytest.raises(StateFormatError, match="'dims' must be a list of integers"):
        load_state(path)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8), st.integers(0, 2**31))
def test_roundtrip_random_amplitudes(tmp_path_factory, raw, seed):
    re = np.array(raw[:4])
    im = np.array(raw[4:])
    vec = re + 1j * im
    norm = np.linalg.norm(vec)
    if norm < 1e-3:
        return
    psi = PureState((2, 2), vec / norm)
    path = tmp_path_factory.mktemp("h") / f"s{seed}.json"
    save_state(psi, path)
    back = load_state(path)
    assert np.allclose(back.amplitudes, psi.amplitudes, atol=1e-15)


_BELL_PAIRS = [[2**-0.5, 0], [0, 0], [0, 0], [2**-0.5, 0]]


@pytest.mark.parametrize(
    "payload,message",
    [
        ([2, 2], "top level must be a JSON object"),
        ({"amplitudes": _BELL_PAIRS}, "missing required key 'dims'"),
        (
            {"dims": [2, 2], "amplitudes": _BELL_PAIRS, "matrix": [[[1, 0]]]},
            "exactly one of 'amplitudes' or 'matrix' is required",
        ),
        (
            {"dims": [2, 2], "amplitudes": [_BELL_PAIRS[:2], _BELL_PAIRS[2:]]},
            "amplitudes must be a flat list",
        ),
        (
            {"dims": [2], "matrix": [[1, 0], [0, 0]]},
            "matrix must be a list of rows, got shape (2,)",
        ),
    ],
)
def test_load_refuses_each_format_fault(tmp_path, payload, message):
    path = tmp_path / "format.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(StateFormatError) as info:
        load_state(path)
    assert str(info.value) == f"{path}: {message}"


def test_save_refuses_what_is_not_a_state(tmp_path):
    path = tmp_path / "none.json"
    with pytest.raises(TypeError) as info:
        save_state([1.0, 0.0], path)
    assert str(info.value) == "cannot serialize list" and not path.exists()


def test_density_matrix_dim_is_the_total_dimension():
    assert DensityMatrix((2, 3), np.eye(6) / 6).dim == 6


def test_decomposition_refuses_members_of_different_dims():
    members = [(0.5, ghz(2)), (0.5, ghz(3))]
    with pytest.raises(PartitionError) as info:
        Decomposition(members)
    assert str(info.value) == "decomposition members disagree on dims"


def test_reduced_density_keeping_every_site_is_the_whole_state():
    psi = w_state(3)
    assert np.array_equal(reduced_density(psi, (0, 1, 2)).matrix, psi.to_density().matrix)


def test_w_state_refuses_seven_qubits():
    with pytest.raises(DomainError) as info:
        w_state(7)
    assert str(info.value) == "w_state supports 2..6 qubits, got 7"
