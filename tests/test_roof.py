import math

import numpy as np
import pytest

from tsallisq import (
    DensityMatrix,
    DomainError,
    PartitionError,
    PureState,
    RoofConfig,
    concurrence_pure,
    concurrence_two_qubit,
    ghz,
    indicator,
    minimize_roof,
    random_biseparable_mixture,
    random_pure_state,
    roof_concurrence,
    tee_pure,
    tee_two_qubit,
    w_state,
)
from tsallisq.linalg import _bipartition, _sq_norms
from tsallisq.measures import _FLOOR_MARGIN, _pair_concurrence_sq, _tau_residual
from tsallisq.roof import (
    _eigenbasis,
    _ensemble_gradient,
    _member_terms,
    _phase_fixed_isometries,
    _wootters_start,
    concurrence_cost,
    decomposition_from_isometry,
    indicator_summand_cost,
    tee_cost,
)


def _rank2_mixture(rng, w=None):
    a = random_pure_state((2, 2), rng)
    b = random_pure_state((2, 2), rng)
    w = rng.uniform(0.2, 0.8) if w is None else w
    mat = w * a.to_density().matrix + (1 - w) * b.to_density().matrix
    return DensityMatrix((2, 2), mat)


def test_config_validation():
    with pytest.raises(DomainError):
        RoofConfig(restarts=0)
    with pytest.raises(DomainError):
        RoofConfig(max_iterations=-1)
    with pytest.raises(DomainError):
        RoofConfig(tolerance=0.0)
    cfg = RoofConfig()
    assert cfg.restarts == 32 and cfg.seed == 42


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(restarts=2.5),
        dict(max_iterations=3.7),
        dict(restarts=True),
        dict(max_iterations=False),
        dict(tolerance=float("inf")),
        dict(tolerance=float("nan")),
        dict(seed=2.5),
        dict(seed=-1),
        dict(seed=True),
    ],
)
def test_config_rejects_values_that_would_fail_later(kwargs):
    # each of these used to pass and then fail inside numpy, or (an infinite
    # tolerance) stop every floored roof at sweep 0
    with pytest.raises(DomainError):
        RoofConfig(**kwargs)


def test_config_accepts_numpy_integer_counts():
    cfg = RoofConfig(restarts=np.int64(3), max_iterations=np.int32(5))
    assert cfg.restarts == 3 and cfg.max_iterations == 5


def test_rank_one_fast_path(bell):
    res = roof_concurrence(bell.to_density())
    assert res.value == pytest.approx(1.0, abs=1e-10)
    assert res.converged and res.iterations == 0
    assert res.decomposition.size == 1


def test_roof_concurrence_matches_wootters_rank2(rng, quick_roof):
    for _ in range(4):
        rho = _rank2_mixture(rng)
        wootters = concurrence_two_qubit(rho).c
        res = roof_concurrence(rho, quick_roof)
        assert res.value == pytest.approx(wootters, abs=2e-6)
        # roof averages can only sit above the infimum
        assert res.value >= wootters - 1e-9


def test_roof_never_below_wootters_full_rank(rng):
    cfg = RoofConfig(restarts=4, seed=9, max_iterations=400)
    mats = [random_pure_state((2, 2), rng).to_density().matrix for _ in range(4)]
    w = rng.dirichlet(np.ones(4))
    rho = DensityMatrix((2, 2), sum(wi * mi for wi, mi in zip(w, mats)))
    res = roof_concurrence(rho, cfg)
    assert res.value >= concurrence_two_qubit(rho).c - 1e-9


def test_roof_tee_matches_closed_form_rank2(rng, quick_roof):
    rho = _rank2_mixture(rng)
    closed = tee_two_qubit(rho, 2.0)
    res = minimize_roof(rho, tee_cost((2, 2), 0, 2.0), quick_roof)
    assert res.value == pytest.approx(closed, abs=2e-6)


def test_roof_decomposition_reconstructs(rng, quick_roof):
    rho = _rank2_mixture(rng)
    res = roof_concurrence(rho, quick_roof)
    assert np.allclose(res.decomposition.reconstruct(), rho.matrix, atol=1e-8)


def test_roof_restart_prefix_monotone(rng):
    # more restarts share the RNG prefix, so the optimum cannot get worse
    rho = _rank2_mixture(rng)
    values = []
    for restarts in (1, 3, 6):
        cfg = RoofConfig(restarts=restarts, seed=123, max_iterations=300)
        values.append(minimize_roof(rho, tee_cost((2, 2), 0, 2.0), cfg).value)
    assert values[1] <= values[0] + 1e-12
    assert values[2] <= values[1] + 1e-12


def test_roof_deterministic_given_seed(rng):
    rho = _rank2_mixture(rng)
    cfg = RoofConfig(restarts=3, seed=77, max_iterations=200)
    a = minimize_roof(rho, concurrence_cost((2, 2), 0), cfg)
    b = minimize_roof(rho, concurrence_cost((2, 2), 0), cfg)
    assert a.value == b.value
    assert a.iterations == b.iterations


def test_roof_separable_three_qubit_indicator(quick_roof):
    # diagonal separable state: the eigenbasis start already solves it
    diag = np.diag([0.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.6])
    rho = DensityMatrix((2, 2, 2), diag)
    res = minimize_roof(rho, indicator_summand_cost((2, 2, 2), 0, 2.0), quick_roof)
    assert res.value == pytest.approx(0.0, abs=1e-9)


def test_decomposition_from_isometry_identity(rng):
    rho = _rank2_mixture(rng)
    rank = rho.rank()
    dec = decomposition_from_isometry(rho, np.eye(rank))
    assert np.allclose(dec.reconstruct(), rho.matrix, atol=1e-10)


def test_decomposition_from_isometry_rejects_non_isometry(rng):
    rho = _rank2_mixture(rng)
    bad = np.ones((2, 2), dtype=complex)
    with pytest.raises(DomainError):
        decomposition_from_isometry(rho, bad)


def test_decomposition_from_isometry_wrong_shape(rng):
    rho = _rank2_mixture(rng)
    with pytest.raises(PartitionError):
        decomposition_from_isometry(rho, np.eye(3))


def test_roof_concurrence_requires_bipartite():
    rho = DensityMatrix((2, 2, 2), np.eye(8) / 8)
    with pytest.raises(PartitionError):
        roof_concurrence(rho)


def test_roof_rank_limit():
    rho = DensityMatrix((4, 4), np.eye(16) / 16)
    with pytest.raises(DomainError):
        roof_concurrence(rho)


def test_roof_2x3_upper_bounds_pure_value(rng):
    # a pure (2,3) state passed as rank-1 density recovers its exact value
    psi = random_pure_state((2, 3), rng)
    rho = DensityMatrix((2, 3), psi.to_density().matrix)
    from tsallisq import concurrence_pure

    res = roof_concurrence(rho)
    assert res.value == pytest.approx(concurrence_pure(psi, 0), abs=1e-10)


def test_cost_factories_reject_bad_party():
    with pytest.raises(DomainError):
        tee_cost((2, 2), 2, 2.0)
    with pytest.raises(DomainError):
        indicator_summand_cost((2, 3, 2), 0, 2.0)


_TWINS = {
    "tee": (tee_pure, tee_cost),
    "concurrence": (lambda psi, party, q: concurrence_pure(psi, party), lambda dims, party, q: concurrence_cost(dims, party)),
    "indicator": (lambda psi, party, q: indicator(psi.to_density(), q, focus=party), indicator_summand_cost),
}
_BAD_Q = [(0, q) for q in (0.0, -1.0, math.nan, math.inf)]
_BAD_PARTY = [(3, 2.0), (-1, 2.0)]


@pytest.mark.parametrize(
    "name,party,q",
    [("tee", p, q) for p, q in _BAD_Q + _BAD_PARTY]
    + [("concurrence", p, q) for p, q in _BAD_PARTY]
    + [("indicator", p, q) for p, q in _BAD_Q + _BAD_PARTY + [(0, 5.0)]],
)
def test_cost_factories_refuse_what_their_scalar_twins_refuse(name, party, q):
    # a roof cost takes the same order and cut checks as the scalar call it
    # averages; the indicator's pair terms need q inside the analytic window
    scalar, factory = _TWINS[name]
    psi = w_state(3)
    with pytest.raises(DomainError) as want:
        scalar(psi, party, q)
    with pytest.raises(DomainError) as got:
        factory(psi.dims, party, q)
    assert got.type is want.type


# --- certified floor stop ----------------------------------------------------


def _separable_block(rng):
    # mixture of two qubit x ququart products: roof concurrence exactly 0
    mat = np.zeros((8, 8), dtype=complex)
    weights = rng.dirichlet(np.ones(2))
    for w in weights:
        vec = np.kron(
            random_pure_state((2,), rng).amplitudes,
            random_pure_state((4,), rng).amplitudes,
        )
        mat += w * np.outer(vec, vec.conj())
    return DensityMatrix((2, 4), mat)


def _ghz4_block():
    # (0 | 2 3) block of GHZ4: (|000><000| + |111><111|)/2, separable
    return DensityMatrix((2, 4), ghz(4).reduced((0, 2, 3)).matrix)


def test_floor_stops_separable_blocks(rng):
    cfg = RoofConfig(restarts=8, seed=11)
    for rho in [_separable_block(rng) for _ in range(3)] + [_ghz4_block()]:
        res = roof_concurrence(rho, cfg)
        assert res.value <= cfg.tolerance
        assert res.stop_reason == "floor" and res.converged
        assert res.iterations <= cfg.max_iterations // 20
        assert np.allclose(res.decomposition.reconstruct(), rho.matrix, atol=1e-8)
    # the eigenbasis start already reaches C = 0 on the GHZ4 block
    assert roof_concurrence(_ghz4_block(), cfg).iterations == 0


def test_floor_restart_prefix_within_tolerance(rng):
    # a larger batch may stop earlier, but only once within tolerance of the
    # floor, so adding restarts never costs more than the tolerance
    cases = [
        (_separable_block(rng), concurrence_cost((2, 4), 0)),
        (_ghz4_block(), concurrence_cost((2, 4), 0)),
        (_rank2_mixture(rng), concurrence_cost((2, 2), 0)),
        (
            random_biseparable_mixture(rng, members=2),
            indicator_summand_cost((2, 2, 2), 0, 2.0),
        ),
    ]
    for rho, cost in cases:
        values = []
        for restarts in (1, 3, 6):
            cfg = RoofConfig(restarts=restarts, seed=123, max_iterations=300)
            values.append(minimize_roof(rho, cost, cfg, floor=0.0).value)
        assert values[1] <= values[0] + cfg.tolerance
        assert values[2] <= values[1] + cfg.tolerance


def test_floor_free_run_ends_where_the_floored_batch_goes_on(rng):
    # a floor that is never reached lets every restart run to its own stop;
    # without a floor the batch ends at the sweep where its best restart stops
    cfg = RoofConfig(restarts=4, seed=31, max_iterations=400)
    calls = []
    for _ in range(3):
        rho = _rank2_mixture(rng)
        cost = concurrence_cost((2, 2), 0)
        plain = minimize_roof(rho, cost, cfg)
        floored = minimize_roof(rho, cost, cfg, floor=0.0)
        assert plain.value > 10 * cfg.tolerance
        assert floored.stop_reason != "floor" and floored.converged
        assert floored.value == minimize_roof(rho, cost, cfg, floor=-1.0).value
        assert plain.value >= floored.value
        assert plain.cost_calls <= floored.cost_calls
        assert plain.cost_calls == plain.iterations + 2
        calls.append((plain.cost_calls, floored.cost_calls))
    assert any(p < f for p, f in calls)


def test_stop_reasons(rng, bell):
    assert roof_concurrence(bell.to_density()).stop_reason == "exact"
    rho = _rank2_mixture(rng)
    capped = minimize_roof(
        rho, tee_cost((2, 2), 0, 2.0), RoofConfig(restarts=2, seed=3, max_iterations=3)
    )
    assert capped.stop_reason == "cap" and not capped.converged
    assert capped.iterations == 3
    done = minimize_roof(rho, tee_cost((2, 2), 0, 2.0), RoofConfig(restarts=2, seed=3))
    assert done.stop_reason in ("tolerance", "step") and done.converged


def test_mixed_indicator_stops_at_floor(rng):
    rho = random_biseparable_mixture(rng, members=2)
    res = indicator(rho, 2.0, RoofConfig(restarts=6, seed=5))
    assert res.upper_bound
    assert res.value <= 1e-7
    assert res.roof.stop_reason == "floor"


# --- the bracket [lower, value] ----------------------------------------------


def _criterion07_inputs():
    # the ten rank-2 and three full-rank inputs of acceptance criterion 07,
    # drawn the same way
    rng = np.random.default_rng(707)
    rank2 = []
    for _ in range(10):
        a = random_pure_state((2, 2), rng)
        b = random_pure_state((2, 2), rng)
        w = rng.uniform(0.25, 0.75)
        mat = w * a.to_density().matrix + (1 - w) * b.to_density().matrix
        rank2.append(DensityMatrix((2, 2), mat))
    bell = np.zeros((4, 4))
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    full = []
    for _ in range(3):
        mats = [random_pure_state((2, 2), rng).to_density().matrix for _ in range(3)]
        full.append(DensityMatrix((2, 2), 0.55 * bell + 0.15 * sum(mats)))
    return rank2, full


def test_floor_free_optimizer_matches_wootters():
    # criterion 07 now stops at the Wootters value it compares with; this run
    # keeps the floor at 0, so only the optimizer itself can reach Wootters
    cfg = RoofConfig(restarts=6, seed=3)
    for rho in _criterion07_inputs()[0]:
        res = minimize_roof(rho, concurrence_cost((2, 2), 0), cfg, floor=0.0)
        assert res.stop_reason != "floor" and res.lower == 0.0
        assert abs(res.value - concurrence_two_qubit(rho).c) <= 1e-4


def _wootters_floor(rho):
    # the concurrence less its rounding margin: a proven lower bound
    return max(0.0, concurrence_two_qubit(rho).c - _FLOOR_MARGIN)


def test_two_qubit_roof_stops_at_wootters_floor():
    cfg = RoofConfig(restarts=6, seed=3)
    for rho in _criterion07_inputs()[0]:
        res = roof_concurrence(rho, cfg)
        assert res.stop_reason == "floor" and res.converged
        assert res.lower == _wootters_floor(rho)
        assert -1e-12 <= res.gap <= cfg.tolerance + 1e-12
        assert np.allclose(res.decomposition.reconstruct(), rho.matrix, atol=1e-8)


def test_full_rank_two_qubit_roofs_reach_the_wootters_floor():
    # the four-small-gains stop must not end these before the floor
    cfg = RoofConfig(restarts=8, seed=3)
    for rho in _criterion07_inputs()[1]:
        res = roof_concurrence(rho, cfg)
        assert res.stop_reason == "floor" and res.converged
        assert 0.0 <= res.gap <= cfg.tolerance + 1e-12


@pytest.mark.parametrize("q", [2.0, 3.5])
def test_floor_free_tee_roofs_match_closed_form(q):
    # the closed form T_q = f_q(C^2) holds for (5 - sqrt 13)/2 <= q <= (5 + sqrt 13)/2
    cfg = RoofConfig(restarts=6, seed=3)
    for rho in _criterion07_inputs()[0]:
        res = minimize_roof(rho, tee_cost((2, 2), 0, q), cfg)
        assert abs(res.value - tee_two_qubit(rho, q)) <= 1e-8


def _rank4_draws():
    # ROADMAP item 1's recipe: twelve uniformly random rank-4 two-qubit mixtures
    rng = np.random.default_rng(2026)
    for _ in range(12):
        v = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        w = rng.random(4)
        yield DensityMatrix((2, 2), np.einsum("k,ki,kj->ij", w / w.sum(), v, v.conj()))


@pytest.mark.parametrize("q", [2.0, 3.5])
def test_floor_free_batch_ends_when_its_winner_stops(q):
    # the first cost call, one per sweep of the winner, the recompute: no sweep
    # runs after the winner stops, and the roofs stay as close to the closed
    # form as they were measured (worst gap over both q, pinned as an upper
    # limit)
    rank2, full = _criterion07_inputs()
    runs = [(rho, RoofConfig(restarts=6, seed=3)) for rho in rank2 + full]
    runs += [(rho, RoofConfig(restarts=8, seed=1)) for rho in _rank4_draws()]
    gaps = []
    for rho, cfg in runs:
        res = minimize_roof(rho, tee_cost((2, 2), 0, q), cfg)
        if res.stop_reason in ("tolerance", "step"):
            assert res.cost_calls == res.iterations + 2
        gaps.append(res.value - tee_two_qubit(rho, q))
    assert min(gaps) >= -1e-12
    assert max(gaps) <= 7.439155517985352e-07


def test_rank4_two_qubit_bracket():
    # uniformly random rank-4 mixtures: draws 0, 1, 4, 7 and 9 are separable;
    # restart 0 starts at Wootters' decomposition, so every draw ends within
    # tolerance of its floor
    rng = np.random.default_rng(2026)
    cfg = RoofConfig(restarts=8, seed=1)
    gaps = []
    for _ in range(12):
        v = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        w = rng.random(4)
        w /= w.sum()
        rho = DensityMatrix((2, 2), np.einsum("k,ki,kj->ij", w, v, v.conj()))
        res = roof_concurrence(rho, cfg)
        wootters = _wootters_floor(rho)
        assert res.lower == wootters and res.gap == res.value - wootters
        assert res.gap >= -1e-12
        assert np.allclose(res.decomposition.reconstruct(), rho.matrix, atol=1e-8)
        gaps.append(res.gap)
    assert max(gaps) <= cfg.tolerance


def _two_qubit_start_inputs():
    # entangled mixtures of rank 2-4, the separable draws of the rank-4
    # recipe, Werner states and Bell-diagonal states with repeated weights
    rng = np.random.default_rng(2424)
    states = []
    for rank in (2, 3, 4):
        drawn = [_random_mixture((2, 2), rank, rng) for _ in range(40)]
        states += [rho for rho in drawn if concurrence_two_qubit(rho).c > 1e-3][:4]
    draws = list(_rank4_draws())
    states += [draws[k] for k in (0, 1, 4, 7, 9)]
    bells = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / math.sqrt(2)
    singlet = np.outer(bells[3], bells[3])
    for p in (0.2, 1 / 3, 0.5, 0.9):
        states.append(DensityMatrix((2, 2), p * singlet + (1 - p) * np.eye(4) / 4))
    repeated = [(0.4, 0.2, 0.2, 0.2), (0.3, 0.3, 0.2, 0.2), (0.25,) * 4, (0.5, 0.5, 0, 0), (0.6, 0.2, 0.2, 0)]
    for weights in repeated:
        states.append(DensityMatrix((2, 2), np.einsum("k,ki,kj->ij", weights, bells, bells)))
    assert len(states) == 26
    return states


def test_two_qubit_start_is_wootters_decomposition():
    # restart 0 of a (2, 2) roof: an isometry whose members reconstruct rho
    # and have average concurrence C(rho)
    for rho in _two_qubit_start_inputs():
        lam, basis = _eigenbasis(rho)
        start = _wootters_start(np.sqrt(lam)[:, None] * basis.T)
        assert start.shape == (2 * lam.size, lam.size)
        assert np.max(np.abs(start.conj().T @ start - np.eye(lam.size))) <= 1e-14
        dec = decomposition_from_isometry(rho, start)
        assert np.max(np.abs(dec.reconstruct() - rho.matrix)) <= 1e-14
        average = sum(w * concurrence_pure(psi) for w, psi in dec.members)
        assert abs(average - concurrence_two_qubit(rho).c) <= 1e-14


def test_rank4_two_qubit_roofs_stop_at_sweep_zero():
    cfg = RoofConfig(restarts=8, seed=1)
    for rho in _rank4_draws():
        res = roof_concurrence(rho, cfg)
        assert res.stop_reason == "floor" and res.iterations == 0
        assert 0.0 <= res.gap <= _FLOOR_MARGIN + 1e-15


@pytest.mark.parametrize("dims", [(2, 3), (2, 4)])
def test_qubit_qudit_bracket_holds(dims):
    # the capped runs stay upper bounds, so the bracket must hold for them too
    rng = np.random.default_rng(dims[1])
    cfg = RoofConfig(restarts=4, seed=2, max_iterations=300)
    for k in range(8):
        rho = _random_mixture(dims, 2 + k % 2, rng)
        res = roof_concurrence(rho, cfg)
        assert res.lower is not None and 0.0 <= res.lower <= res.value
        assert res.gap == res.value - res.lower
        assert np.allclose(res.decomposition.reconstruct(), rho.matrix, atol=1e-8)


def test_bracket_fields_follow_the_floor(rng, bell):
    rho = _rank2_mixture(rng)
    plain = minimize_roof(rho, tee_cost((2, 2), 0, 2.0), RoofConfig(restarts=2, seed=3))
    assert plain.lower is None and plain.gap is None
    exact = roof_concurrence(bell.to_density())
    assert exact.stop_reason == "exact" and exact.lower == pytest.approx(1.0, abs=1e-12)
    mixed = indicator(random_biseparable_mixture(rng, members=2), 2.0, RoofConfig(restarts=4))
    assert mixed.roof.lower == 0.0 and mixed.roof.gap == mixed.value


# --- per-iteration kernels ---------------------------------------------------


def _lapack_isometries(mats):
    # reference route: LAPACK QR with the R diagonal rotated positive
    q, r = np.linalg.qr(mats)
    diag = np.einsum("...ii->...i", r)
    return q * (diag / np.abs(diag))[..., None, :]


@pytest.mark.parametrize("m,r", [(4, 2), (6, 3), (8, 4), (12, 6), (16, 8), (3, 3)])
def test_gram_schmidt_matches_phase_fixed_qr(m, r):
    rng = np.random.default_rng(1000 + 10 * m + r)
    mats = rng.standard_normal((64, m, r)) + 1j * rng.standard_normal((64, m, r))
    iso = _phase_fixed_isometries(mats)
    assert np.max(np.abs(iso - _lapack_isometries(mats))) <= 1e-13
    gram = np.einsum("nmi,nmj->nij", iso.conj(), iso)
    assert np.max(np.abs(gram - np.eye(r))) <= 1e-13


def test_gram_schmidt_orthonormal_when_ill_conditioned():
    # columns within 1e-3 of a common direction (condition number ~1e4): a
    # single Gram-Schmidt pass would lose orthogonality to ~1e-9
    rng = np.random.default_rng(77)
    shape = (64, 8, 4)
    common = rng.standard_normal((64, 8, 1)) + 1j * rng.standard_normal((64, 8, 1))
    mats = common + 1e-3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    iso = _phase_fixed_isometries(mats)
    gram = np.einsum("nmi,nmj->nij", iso.conj(), iso)
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-13
    assert np.max(np.abs(iso - _lapack_isometries(mats))) <= 1e-10


def _local_unitary(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, _ = np.linalg.qr(z)
    return q


def test_tau_pair_concurrence_matches_wootters(rng):
    states = [random_pure_state((2, 2, 2), rng) for _ in range(40)]
    states += [ghz(3), w_state(3)]
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    states.append(PureState((2, 2, 2), np.kron(bell, random_pure_state((2,), rng).amplitudes)))
    for _ in range(4):
        local = np.kron(np.kron(_local_unitary(rng), _local_unitary(rng)), _local_unitary(rng))
        states.append(PureState((2, 2, 2), local @ ghz(3).amplitudes))
    batch = np.stack([psi.amplitudes for psi in states])
    for keep in ((0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)):
        got = np.sqrt(_pair_concurrence_sq(batch, (2, 2, 2), [keep])[:, 0])
        ref = [concurrence_two_qubit(psi.reduced(list(keep))).c for psi in states]
        assert np.max(np.abs(got - ref)) <= 1e-12


def test_tau_pair_concurrence_product_is_zero(rng):
    # a pure product pair has C = 0 exactly
    def qubit():
        return random_pure_state((2,), rng).amplitudes

    batch = np.stack([np.kron(np.kron(qubit(), qubit()), qubit()) for _ in range(20)])
    for keep in ((0, 1), (0, 2), (1, 2)):
        assert np.max(_pair_concurrence_sq(batch, (2, 2, 2), [keep])) <= 1e-28


@pytest.mark.parametrize("q", [0.75, 1.0, 2.0, 3.0, 4.25])
def test_indicator_summand_nonnegative_on_pure_states(q):
    # squared monogamy of Tsallis-q entanglement on three qubits
    rng = np.random.default_rng(7)
    batch = np.stack(
        [random_pure_state((2, 2, 2), rng).amplitudes for _ in range(200)]
        + [ghz(3).amplitudes, w_state(3).amplitudes]
    )
    for focus in (0, 1, 2):
        values = indicator_summand_cost((2, 2, 2), focus, q)(batch)[0]
        assert np.min(values) >= -1e-12


# --- gradient ----------------------------------------------------------------


def _random_mixture(dims, rank, rng):
    weights = rng.dirichlet(np.ones(rank))
    mats = [random_pure_state(dims, rng).to_density().matrix for _ in range(rank)]
    return DensityMatrix(dims, sum(w * mat for w, mat in zip(weights, mats)))


def _weighted_eigenvectors(rho):
    lam, basis = _eigenbasis(rho)
    return lam.size, np.sqrt(lam)[:, None] * basis.T


_STEP = 1e-6


def _theta_mats(thetas, m, r):
    # the real parametrization (Re A, Im A) of a stack of m x r matrices A
    n = thetas.shape[0]
    return thetas[:, : m * r].reshape(n, m, r) + 1j * thetas[:, m * r :].reshape(n, m, r)


def _theta_differences(rho, cost, thetas):
    # reference route: central differences of the whole-ensemble value over
    # every real parameter of the unconstrained matrix
    r, b_mat = _weighted_eigenvectors(rho)
    m = 2 * r

    def value(th):
        iso = _phase_fixed_isometries(_theta_mats(th, m, r))
        return _member_terms(iso @ b_mat, cost)[0].sum(axis=1)

    bump = np.eye(thetas.shape[1]) * _STEP
    return np.stack([(value(t + bump) - value(t - bump)) / (2 * _STEP) for t in thetas])


def _isometry_thetas(thetas, m, r):
    # the optimizer keeps its iterate on the isometry, so both routes are
    # taken at Q = GS(A), where the R of Q = QR is the identity
    flat = _phase_fixed_isometries(_theta_mats(thetas, m, r)).reshape(len(thetas), -1)
    return np.concatenate([flat.real, flat.imag], axis=1)


def _member_gradient(rho, cost, thetas):
    # the optimizer's route: analytic member gradients pulled back to Q
    r, b_mat = _weighted_eigenvectors(rho)
    iso = _theta_mats(thetas, 2 * r, r)
    grad = _ensemble_gradient(iso, b_mat, _member_terms(iso @ b_mat, cost)[1])
    flat = grad.reshape(len(thetas), -1)
    return np.concatenate([flat.real, flat.imag], axis=1)


@pytest.mark.parametrize(
    "name,dims,rank",
    [
        ("tee2", (2, 2), 2),
        ("tee2", (2, 2), 3),
        ("tee2", (2, 3), 3),
        ("tee3.5", (2, 2), 2),
        ("tee3.5", (2, 2), 3),
        ("tee3.5", (2, 3), 3),
        ("concurrence", (2, 2), 3),
        ("concurrence", (2, 3), 2),
        ("indicator", (2, 2, 2), 2),
        ("indicator", (2, 2, 2), 3),
    ],
)
def test_member_gradient_matches_theta_differences(name, dims, rank):
    rng = np.random.default_rng(sum(map(ord, name)) + 10 * len(dims) + rank)
    if name == "indicator":
        rho = random_biseparable_mixture(rng, members=rank)
        cost = indicator_summand_cost(dims, 0, 2.0)
    elif name == "concurrence":
        # random members of a random mixture sit away from product states,
        # where the concurrence has a cone
        rho = _random_mixture(dims, rank, rng)
        cost = concurrence_cost(dims, 0)
    else:
        rho = _random_mixture(dims, rank, rng)
        cost = tee_cost(dims, 0, float(name[3:]))
    r = rho.rank()
    thetas = _isometry_thetas(rng.standard_normal((3, 4 * r * r)), 2 * r, r)
    ref = _theta_differences(rho, cost, thetas)
    got = _member_gradient(rho, cost, thetas)
    assert np.max(np.abs(got - ref)) <= 1e-6 * np.max(np.abs(ref))


def _term_differences(cost, phi):
    # reference: central differences of each member term over each real and
    # imaginary coordinate, as d/dRe + i d/dIm
    out = np.zeros(phi.shape, dtype=complex)
    for k in range(phi.shape[-1]):
        for unit in (1.0, 1j):
            bump = np.zeros(phi.shape[-1], dtype=complex)
            bump[k] = unit * _STEP
            diff = _member_terms(phi + bump, cost)[0] - _member_terms(phi - bump, cost)[0]
            out[:, k] += unit * diff / (2 * _STEP)
    return out


_GRAD_QS = [0.75, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0, 3.5, 4.25]


@pytest.mark.parametrize(
    "name,dims,q",
    [("tee", (2, 3), q) for q in _GRAD_QS]
    + [("tee", (3, 3), q) for q in _GRAD_QS]
    + [("indicator", (2, 2, 2), q) for q in _GRAD_QS]
    + [("concurrence", (2, 3), None), ("concurrence", (3, 3), None)],
)
def test_cost_gradients_match_central_differences(name, dims, q):
    # party dimension 2 takes the 2x2 closed form, 3 the eigenvectors; the
    # q-logarithm keeps q = 1 and its neighbours exact.  Row 0 is maximally
    # entangled across the cut, a degenerate marginal; on three qubits it is
    # |000> + |101>, whose focus pairs have C = 0 and C = 1
    rng = np.random.default_rng(len(name) + 10 * len(dims) + dims[0])
    if name == "tee":
        cost = tee_cost(dims, 0, q)
    elif name == "indicator":
        cost = indicator_summand_cost(dims, 0, q)
    else:
        cost = concurrence_cost(dims, 0)
    dim = int(np.prod(dims))
    phi = 0.4 * (rng.standard_normal((6, dim)) + 1j * rng.standard_normal((6, dim)))
    side = min(dims[0], dim // dims[0])
    phi[0] = 0.0
    phi[0, np.arange(side) * (dim // dims[0] + 1)] = 0.5
    ref = _term_differences(cost, phi)
    got = _member_terms(phi, cost)[1]
    assert np.max(np.abs(got - ref)) <= 1e-6 * np.max(np.abs(ref))


def _directional(cost, phi, v, eps):
    # one-sided difference quotient of the member term along v
    return (_member_terms(phi + eps * v, cost)[0] - _member_terms(phi, cost)[0])[0] / eps


def test_concurrence_gradient_at_product_member_is_cone_centre():
    # C is a cone at product members: the one-sided derivatives along v and -v
    # are equal and positive, so no gradient exists, and the member gradient
    # is the cone's centre, 0, which every central difference matches
    rng = np.random.default_rng(21)
    cost = concurrence_cost((2, 3), 0)
    a, b = random_pure_state((2,), rng).amplitudes, random_pure_state((3,), rng).amplitudes
    phi = 0.7 * np.kron(a, b)[None]
    grad = _member_terms(phi, cost)[1]
    assert np.all(np.isfinite(grad)) and np.max(np.abs(grad)) <= 1e-6
    v = (rng.standard_normal(6) + 1j * rng.standard_normal(6))[None]
    up, down = _directional(cost, phi, v, 1e-4), _directional(cost, phi, -v, 1e-4)
    assert up > 0.1 and abs(up - down) <= 1e-3 * up
    # along a path of product members the one-sided difference is 0, up to
    # the ~1e-8 rounding of C = sqrt(2 (1 - purity)) there
    da, db = rng.standard_normal(2), rng.standard_normal(3)
    path = 0.7 * np.kron(a + 0.1 * da, b + 0.1 * db)[None]
    assert abs(_member_terms(path, cost)[0][0] - _member_terms(phi, cost)[0][0]) / 0.1 <= 1e-6


def test_indicator_gradient_where_tau_has_rank_one():
    # on span{|001>, |010>, |100>} both focus-0 pairs have tau = diag(., 0):
    # rank 1, det tau = 0.  Inside the span |det tau| stays 0, so the term is
    # smooth and one-sided differences match.  Leaving it, |det tau| is a
    # cone: its first-order part cancels from central differences, which keep
    # a bias linear in eps, removed here by Richardson extrapolation
    rng = np.random.default_rng(5)
    cost = indicator_summand_cost((2, 2, 2), 0, 2.0)
    support = [1, 2, 4]
    coef = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    phi = np.zeros((1, 8), dtype=complex)
    phi[0, support] = 0.8 * coef / np.linalg.norm(coef)
    m = np.stack([_bipartition(phi, (2, 2, 2), p) for p in ((0, 1), (0, 2))], axis=-3)
    tau, _, live, _ = _tau_residual(m)
    assert not live.any() and np.min(np.abs(tau[..., 0, 0])) > 0.01
    grad = _member_terms(phi, cost)[1][0]
    assert np.all(np.isfinite(grad))
    for _ in range(4):
        v = np.zeros((1, 8), dtype=complex)
        v[0, support] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        want = np.vdot(grad, v[0]).real
        assert abs(_directional(cost, phi, v, 1e-7) - want) <= 1e-5 * np.abs(grad).max()
        v = rng.standard_normal((1, 8)) + 1j * rng.standard_normal((1, 8))
        mid = [
            _directional(cost, phi, v, e) - _directional(cost, phi, -v, e) for e in (1e-5, 1e-6)
        ]
        limit = (10 * mid[1] - mid[0]) / 18
        assert abs(limit - np.vdot(grad, v[0]).real) <= 1e-6 * np.abs(grad).max()


@pytest.mark.parametrize("q", [0.75, 2.0, 3.5])
def test_indicator_gradient_at_a_maximally_entangled_focus_pair(q):
    # (|000> + |101>)/sqrt 2 with amplitudes fl(sqrt 0.5): the focus pair
    # (0, 2) is a Bell pair whose x = C^2 rounds above 1.  p+ and p- must then
    # agree exactly, or g'(x) divides their rounding by s = 0.  The member is
    # a zero of the nonnegative summand, so its term's gradient is 0
    cost = indicator_summand_cost((2, 2, 2), 0, q)
    phi = np.zeros((1, 8), dtype=complex)
    phi[0, [0, 5]] = np.sqrt(0.5)
    m = np.stack([_bipartition(phi, (2, 2, 2), p) for p in ((0, 1), (0, 2))], axis=-3)
    assert _sq_norms(_tau_residual(m)[3])[0, 1] > 1.0
    grads = cost(phi)[1]
    assert np.all(np.isfinite(grads)) and np.max(np.abs(grads)) <= 4.0
    for scale in (1.0, 0.8):
        grad = _member_terms(scale * phi, cost)[1]
        assert np.max(np.abs(grad)) <= 1e-12
        assert np.max(np.abs(_term_differences(cost, scale * phi))) <= 1e-9


@pytest.mark.parametrize("dims", [(2, 3), (3, 3)])
def test_tee_gradient_at_product_member_below_q_one(dims):
    # the marginal of a product member has zero eigenvalues, where
    # lambda^(q-1) is unbounded for q < 1; their terms vanish (u^dagger M = 0),
    # and one-sided differences fall to the zero gradient like eps^(2q - 1)
    rng = np.random.default_rng(dims[0])
    cost = tee_cost(dims, 0, 0.75)
    a, b = (random_pure_state((d,), rng).amplitudes for d in dims)
    phi = 0.6 * np.kron(a, b)[None]
    grad = _member_terms(phi, cost)[1]
    assert np.all(np.isfinite(grad)) and np.max(np.abs(grad)) <= 1e-10
    v = rng.standard_normal((1, phi.shape[1])) + 1j * rng.standard_normal((1, phi.shape[1]))
    slopes = [_directional(cost, phi, v, eps) for eps in (1e-2, 1e-4, 1e-6)]
    assert slopes[0] > 5 * slopes[1] > 25 * slopes[2] > 0.0
    assert slopes[2] <= 1e-2


def test_cost_rows_per_call_bounded():
    # one cost call per sweep yields the candidates' values and gradients, so
    # no call after the initial evaluation sees more than restarts * m rows
    rng = np.random.default_rng(8)
    rho = _random_mixture((2, 32), 8, rng)
    rows = []
    inner = concurrence_cost((2, 32), 0)

    def cost(states):
        rows.append(len(states))
        return inner(states)

    cfg = RoofConfig(restarts=8, max_iterations=5)
    res = minimize_roof(rho, cost, cfg)
    m = 2 * 8
    assert np.allclose(res.decomposition.reconstruct(), rho.matrix, atol=1e-8)
    # the initial evaluation, one call per sweep and the final recompute
    assert len(rows) == 1 + res.iterations + 1 == res.cost_calls
    assert max(rows) <= cfg.restarts * m


def test_costs_see_only_live_members_of_running_restarts():
    # restart 0 of a qubit-qutrit roof starts at [I; 0]: its last r members
    # have weight 0 and never move, so they must not reach the cost; nor may a
    # restart that stopped
    rho = _random_mixture((2, 3), 2, np.random.default_rng(19))
    r, m = 2, 4
    inner = concurrence_cost((2, 3), 0)
    unit = np.eye(1, 6)

    def sweep_rows(restarts):
        # rows per cost call of a floored batch whose floor is never reached,
        # so every restart runs to its own stop
        rows = []

        def cost(states):
            assert not np.any(np.all(states == unit, axis=1))
            rows.append(len(states))
            return inner(states)

        res = minimize_roof(rho, cost, RoofConfig(restarts=restarts, seed=4), floor=-1.0)
        assert res.converged and rows[0] == restarts * m - r
        return rows[1:-1]  # the sweeps, without the first call and the recompute

    batches = [[]] + [sweep_rows(k) for k in range(1, 7)]
    stops = []
    for k in range(6):
        # restart k is the difference of the prefix batches k + 1 and k: its
        # live members on each sweep it runs, nothing once it has stopped
        later = np.array(batches[k + 1])
        own = later - np.pad(batches[k], (0, len(later) - len(batches[k])))
        stops.append(int(np.count_nonzero(own)))
        assert np.all(own[: stops[-1]] == (r if k == 0 else m)) and np.all(own[stops[-1] :] == 0)
    assert len(set(stops)) > 2


def test_run_record_counts_cost_calls_and_agreeing_restarts(bell):
    calls = []

    def counted(inner):
        def cost(states):
            calls.append(len(states))
            return inner(states)

        return cost

    cfg = RoofConfig(restarts=6, seed=3)
    rank2, full = _criterion07_inputs()
    runs = [(rho, tee_cost((2, 2), 0, 2.0), None) for rho in rank2[:3]]
    runs += [(rho, concurrence_cost((2, 2), 0), concurrence_two_qubit(rho).c) for rho in full]
    for rho, inner, floor in runs:
        calls.clear()
        res = minimize_roof(rho, counted(inner), cfg, floor=floor)
        assert res.cost_calls == len(calls) >= 2
        assert 1 <= res.agreeing_restarts <= cfg.restarts
        single = minimize_roof(rho, inner, RoofConfig(restarts=1, seed=3), floor=floor)
        assert single.agreeing_restarts == 1
    calls.clear()
    exact = minimize_roof(bell.to_density(), counted(concurrence_cost((2, 2), 0)), cfg)
    assert exact.cost_calls == len(calls) == 1 and exact.agreeing_restarts == 1


# --- pinned runs --------------------------------------------------------------


def _pinned_roof_runs():
    # one seeded roof per cost factory and kind of floor; each case draws its
    # state from its own generator
    cfg = RoofConfig(restarts=4, seed=9, max_iterations=400)

    def mixture(dims, rank, seed):
        return _random_mixture(dims, rank, np.random.default_rng(seed))

    def ghz_w(p):
        mat = p * ghz(3).to_density().matrix + (1 - p) * w_state(3).to_density().matrix
        return DensityMatrix((2, 2, 2), mat)

    cases = {
        "tee-22-p0-q2": lambda: minimize_roof(mixture((2, 2), 2, 1), tee_cost((2, 2), 0, 2.0), cfg),
        "tee-22-p1-q3.5": lambda: minimize_roof(mixture((2, 2), 2, 2), tee_cost((2, 2), 1, 3.5), cfg),
        "tee-22-p0-q0.9": lambda: minimize_roof(mixture((2, 2), 2, 3), tee_cost((2, 2), 0, 0.9), cfg),
        "tee-32-p0-q2": lambda: minimize_roof(mixture((3, 2), 2, 4), tee_cost((3, 2), 0, 2.0), cfg),
        "tee-23-p1-q3": lambda: minimize_roof(mixture((2, 3), 2, 5), tee_cost((2, 3), 1, 3.0), cfg),
        "tee-22-r3-q2": lambda: minimize_roof(mixture((2, 2), 3, 6), tee_cost((2, 2), 0, 2.0), cfg),
        "conc-22-wootters-r2": lambda: roof_concurrence(mixture((2, 2), 2, 7), cfg),
        "conc-22-wootters-r3": lambda: roof_concurrence(mixture((2, 2), 3, 8), cfg),
        "conc-22-p1-floor0": lambda: minimize_roof(
            mixture((2, 2), 2, 9), concurrence_cost((2, 2), 1), cfg, floor=0.0
        ),
        "conc-24-caf": lambda: roof_concurrence(mixture((2, 4), 2, 10), cfg),
        "conc-23-caf-r3": lambda: roof_concurrence(mixture((2, 3), 3, 11), cfg),
        "indicator-bisep": lambda: indicator(
            random_biseparable_mixture(np.random.default_rng(12), members=2), 2.0, cfg
        ).roof,
        "indicator-ghz-w": lambda: indicator(ghz_w(0.5), 2.0, cfg).roof,
    }
    return {name: run() for name, run in cases.items()}


# value.hex(), iterations and stop_reason of each run in _pinned_roof_runs,
# recorded before the optimizer's numpy calls were trimmed: those trims must
# leave every bit of every run unchanged.  A floor-free batch ends when its
# best restart stops, which moved only "tee-22-p1-q3.5".  Restart 0 of a
# (2, 2) roof starts at Wootters' decomposition, which moved every (2, 2) run;
# the comments give each one's gap to concurrence_two_qubit or tee_two_qubit
_PINNED_ROOFS = {
    "tee-22-p0-q2": ("0x1.c8d66e068f482p-6", 9, "tolerance"),  # +6.0e-13
    "tee-22-p1-q3.5": ("0x1.470babf97a01ap-5", 10, "tolerance"),  # +8.4e-14
    "tee-22-p0-q0.9": ("0x1.706610ad023ecp-2", 14, "tolerance"),  # +2.7e-11
    "tee-32-p0-q2": ("0x1.2b1be02c83834p-2", 13, "tolerance"),
    "tee-23-p1-q3": ("0x1.90896127a2190p-4", 12, "tolerance"),
    "tee-22-r3-q2": ("0x1.13e64f04baa47p-3", 29, "tolerance"),  # +3.4e-8
    "conc-22-wootters-r2": ("0x1.c92cda70fad1dp-2", 0, "floor"),  # -6.7e-16
    "conc-22-wootters-r3": ("0x1.b4dbef8c1da62p-3", 0, "floor"),  # -1.9e-16
    # the floor 0 is never reached, so the start's steps shrink to "step"
    "conc-22-p1-floor0": ("0x1.5958fb4a7d47ep-2", 24, "step"),  # -5.6e-17
    "conc-24-caf": ("0x1.4dc5ad5604f12p-1", 9, "tolerance"),
    "conc-23-caf-r3": ("0x1.974422e172845p-2", 166, "tolerance"),
    "indicator-bisep": ("0x1.ddf5fa4a18597p-28", 8, "floor"),
    "indicator-ghz-w": ("0x1.cdd90338907a9p-4", 70, "tolerance"),
}


def test_roof_runs_are_pinned():
    got = {
        name: (res.value.hex(), res.iterations, res.stop_reason)
        for name, res in _pinned_roof_runs().items()
    }
    assert got == _PINNED_ROOFS


def test_isometry_with_fewer_rows_than_the_rank_is_refused():
    rho = DensityMatrix((2, 2), np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
    with pytest.raises(DomainError) as err:
        decomposition_from_isometry(rho, np.array([[1.0, 0.0]]))
    assert str(err.value) == "isometry needs at least rank many rows"
