import functools
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsallisq import (
    ANALYTIC_Q_MAX,
    ANALYTIC_Q_MIN,
    DensityMatrix,
    DomainError,
    PartitionError,
    PureState,
    QRangeError,
    RoofConfig,
    as_q,
    binary_entropy,
    concurrence_pure,
    concurrence_two_qubit,
    ef_two_qubit,
    example3_state,
    example4_state,
    example5_state,
    ghz,
    minimize_roof,
    random_pure_state,
    roof_concurrence,
    save_state,
    tee_2xd,
    tee_from_concurrence_sq,
    tee_pure,
    tee_two_qubit,
    tsallis_entropy,
    w_state,
)
from tsallisq.analysis import tee_curvature, tee_curvature_wrt_c, tee_sq_curvature
from tsallisq.cli import main
from tsallisq.measures import _caf_bound, _pair_concurrence_sq, _pair_gather
from tsallisq.roof import concurrence_cost, tee_cost

LN2 = math.log(2.0)


# --- q parameter --------------------------------------------------------------


def test_as_q_flags():
    assert as_q(1.0).is_von_neumann
    assert not as_q(1.0 + 1e-9).is_von_neumann
    assert as_q(2.0).analytic_two_qubit
    assert as_q(0.5).analytic_two_qubit is False
    assert as_q(ANALYTIC_Q_MIN).analytic_two_qubit
    assert as_q(ANALYTIC_Q_MAX).analytic_two_qubit


def test_as_q_concave_regime_bands():
    assert as_q(1.5).concave_regime
    assert as_q(2.0).concave_regime
    assert as_q(2.5).concave_regime is False
    assert as_q(3.0).concave_regime
    assert as_q(4.0).concave_regime
    assert as_q(0.8).concave_regime
    assert as_q(ANALYTIC_Q_MIN - 0.05).concave_regime is False


@pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
def test_as_q_rejects(bad):
    with pytest.raises(QRangeError):
        as_q(bad)


@pytest.mark.parametrize("bad", [0, -1.0, float("nan"), float("inf"), -float("inf")])
def test_scalar_and_array_q_routes_share_one_rule(bad):
    # QParam (scalar) and _check_q (arrays, via the closed form) refuse the
    # same orders with the same message; only the scalar one names the value
    prefix = "entropic order must be finite and positive"
    with pytest.raises(QRangeError) as scalar:
        as_q(bad)
    with pytest.raises(QRangeError) as array:
        tee_from_concurrence_sq(np.full(3, 0.5), np.array([2.0, bad, 3.0]))
    assert str(scalar.value) == f"{prefix}, got {float(bad)!r}"
    assert str(array.value) == prefix


# --- entropies ----------------------------------------------------------------


def test_tsallis_entropy_maximally_mixed():
    assert tsallis_entropy(np.eye(2) / 2, 2.0) == pytest.approx(0.5, abs=1e-14)
    assert tsallis_entropy(np.eye(3) / 3, 3.0) == pytest.approx(4 / 9, abs=1e-14)
    assert tsallis_entropy(np.eye(2) / 2, 1.0) == pytest.approx(LN2, abs=1e-14)


def test_tsallis_entropy_pure_state_is_zero(rng):
    psi = random_pure_state((4,), rng)
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    assert abs(tsallis_entropy(rho, 2.7)) < 1e-12
    assert abs(tsallis_entropy(rho, 1.0)) < 1e-12


def test_tsallis_entropy_accepts_density_matrix():
    dm = DensityMatrix((2,), np.diag([0.25, 0.75]))
    direct = tsallis_entropy(dm.matrix, 2.0)
    assert tsallis_entropy(dm, 2.0) == pytest.approx(direct, abs=0)


def test_tsallis_entropy_refuses_a_bare_matrix_that_is_not_a_state():
    # a bare matrix is read as a one-party DensityMatrix, with its checks
    with pytest.raises(DomainError, match="trace is 2, expected 1"):
        tsallis_entropy(np.eye(2), 2.0)
    with pytest.raises(DomainError, match="negative eigenvalue"):
        tsallis_entropy(np.diag([1.5, -0.5]), 2.0)


def test_cut_costs_refuse_a_single_site():
    # a party|rest cut needs a rest, as tee_pure and concurrence_pure say
    for factory in (lambda: tee_cost((4,), 0, 2.0), lambda: concurrence_cost((4,), 0)):
        with pytest.raises(DomainError, match="a cut needs at least two subsystems"):
            factory()


def test_binary_entropy_extremes():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(LN2, abs=1e-14)
    with pytest.raises(DomainError):
        binary_entropy(1.2)


# --- concurrence --------------------------------------------------------------


def test_concurrence_bell(bell):
    cv = concurrence_two_qubit(bell.to_density())
    assert cv.c == pytest.approx(1.0, abs=1e-10)
    assert cv.lambdas[0] == pytest.approx(1.0, abs=1e-10)
    assert max(cv.lambdas[1:]) < 1e-10


def test_concurrence_product_and_separable():
    prod = PureState((2, 2), np.array([1.0, 0.0, 0.0, 0.0]))
    assert concurrence_two_qubit(prod.to_density()).c == 0.0
    assert concurrence_two_qubit(np.eye(4) / 4).c == 0.0


def test_concurrence_pure_matches_wootters(rng):
    for _ in range(5):
        psi = random_pure_state((2, 2), rng)
        assert concurrence_pure(psi, 0) == pytest.approx(
            concurrence_two_qubit(psi.to_density()).c, abs=1e-8
        )


def test_concurrence_pure_party_symmetry(rng):
    psi = random_pure_state((2, 2), rng)
    assert concurrence_pure(psi, 0) == pytest.approx(concurrence_pure(psi, 1), abs=1e-12)


def test_concurrence_pure_qudit_ceiling():
    # maximally entangled qutrit pair saturates sqrt(2(d-1)/d)
    amps = np.zeros(9, dtype=complex)
    amps[[0, 4, 8]] = 1 / math.sqrt(3)
    psi = PureState((3, 3), amps)
    assert concurrence_pure(psi, 0) == pytest.approx(math.sqrt(4 / 3), abs=1e-12)


_PRODUCT_CUTS = [((2, 4), 0), ((3, 3), 0), ((2, 2, 2), 1)]


def _product_state(dims, party, rng):
    # party's factor times a random state of the rest, reordered into place
    rest = tuple(d for k, d in enumerate(dims) if k != party)
    local = random_pure_state((dims[party],), rng).amplitudes
    other = random_pure_state((int(np.prod(rest)),), rng).amplitudes.reshape(rest)
    amps = np.moveaxis(np.multiply.outer(local, other), 0, party)
    return PureState(dims, amps.ravel())


def _purity_route(psi, party):
    sigma = psi.reduced([party]).matrix
    side = min(psi.dims[party], psi.dim // psi.dims[party])
    purity = np.vdot(sigma, sigma).real
    return math.sqrt(min(max(2.0 * (1.0 - purity), 0.0), 2.0 * (side - 1) / side))


@pytest.mark.parametrize("dims,party", _PRODUCT_CUTS)
def test_concurrence_pure_is_zero_on_product_states(dims, party):
    # the 2x2-minor route leaves only rounding of the minors, where
    # sqrt(2(1 - purity)) turned the purity's ~1e-16 into ~1e-8
    rng = np.random.default_rng(sum(dims) + party)
    worst = max(concurrence_pure(_product_state(dims, party, rng), party) for _ in range(200))
    assert worst <= 1e-15


@pytest.mark.parametrize("dims,party", _PRODUCT_CUTS + [((2, 3), 1), ((4, 2, 2), 0)])
def test_concurrence_pure_minors_match_purity_route(dims, party):
    rng = np.random.default_rng(3 * sum(dims) + party)
    for _ in range(50):
        psi = random_pure_state(dims, rng)
        assert abs(concurrence_pure(psi, party) - _purity_route(psi, party)) <= 1e-14


def test_caf_bound_exact_on_pure_qubit_qudit_states():
    rng = np.random.default_rng(40)
    for dims in [(2, 3), (2, 4), (3, 2)] * 10:
        psi = random_pure_state(dims, rng)
        assert abs(_caf_bound(psi.to_density()) - concurrence_pure(psi)) <= 1e-12


def test_caf_bound_vanishes_on_separable_mixtures():
    rng = np.random.default_rng(41)
    for _ in range(20):
        weights = rng.dirichlet(np.ones(3))
        mat = sum(
            w * _product_state((2, 4), 0, rng).to_density().matrix for w in weights
        )
        assert _caf_bound(DensityMatrix((2, 4), mat)) <= 1e-12


def test_concurrence_two_qubit_rejects_other_dims():
    with pytest.raises(DomainError):
        concurrence_two_qubit(DensityMatrix((4,), np.eye(4) / 4))
    # a bare array is validated as one 4x4 density matrix, so a stack is refused
    with pytest.raises(PartitionError):
        concurrence_two_qubit(np.stack([np.eye(4) / 4] * 2))


# --- closed-form entanglement curve -------------------------------------------


@pytest.mark.parametrize(
    "q,func",
    [
        (2.0, lambda x: x / 2),
        (3.0, lambda x: 3 * x / 8),
        (4.0, lambda x: (8 * x - x * x) / 24),
    ],
)
def test_tee_curve_polynomial_forms(q, func):
    xs = np.linspace(0.0, 1.0, 101)
    assert np.allclose(tee_from_concurrence_sq(xs, q), func(xs), atol=1e-13)


def test_tee_curve_von_neumann_values():
    assert tee_from_concurrence_sq(1.0, 1.0) == pytest.approx(LN2, abs=1e-14)
    assert tee_from_concurrence_sq(0.0, 1.0) == 0.0
    # h((1+sqrt(3)/2)/2) at x = 1/4
    s = math.sqrt(0.75)
    expect = binary_entropy((1 + s) / 2)
    assert tee_from_concurrence_sq(0.25, 1.0) == pytest.approx(expect, abs=1e-14)


def test_tee_curve_broadcasts_q_and_x():
    xs = np.array([0.0, 0.5, 1.0])
    qs = np.array([[1.0], [2.0]])
    out = tee_from_concurrence_sq(xs, qs)
    assert out.shape == (2, 3)
    assert out[1, 2] == pytest.approx(0.5, abs=1e-14)


def test_tee_curve_domain_errors():
    with pytest.raises(DomainError):
        tee_from_concurrence_sq(1.5, 2.0)
    with pytest.raises(QRangeError):
        tee_from_concurrence_sq(0.5, -1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(ANALYTIC_Q_MIN, ANALYTIC_Q_MAX),
)
def test_tee_curve_monotone_in_x(x_a, x_b, q):
    lo, hi = sorted((x_a, x_b))
    assert tee_from_concurrence_sq(hi, q) >= tee_from_concurrence_sq(lo, q) - 1e-12


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 1.0))
def test_tee_curve_continuous_at_q_one(x):
    at_one = tee_from_concurrence_sq(x, 1.0)
    near = tee_from_concurrence_sq(x, 1.0 + 1e-8)
    assert abs(near - at_one) < 1e-6
    near = tee_from_concurrence_sq(x, 1.0 - 1e-8)
    assert abs(near - at_one) < 1e-6


def _q_one_subjects():
    rng = np.random.default_rng(11)
    xs = np.array([0.05, 0.5, 0.95])
    psi = random_pure_state((2, 3, 2), rng)
    rhos = [random_pure_state((2, 3), rng).reduced([1]), psi.reduced([0, 2])]
    batch = np.stack([random_pure_state((2, 2, 2), rng).amplitudes for _ in range(6)])
    return {
        "tee_from_concurrence_sq": lambda q: tee_from_concurrence_sq(xs, q),
        "tsallis_entropy": lambda q: np.array([tsallis_entropy(r, q) for r in rhos]),
        "tee_pure": lambda q: np.array([tee_pure(psi, p, q) for p in range(3)]),
        "tee_cost": lambda q: tee_cost((2, 2, 2), 1, q)(batch)[0],
        "tee_curvature": lambda q: tee_curvature(xs, q),
        "tee_sq_curvature": lambda q: tee_sq_curvature(xs, q),
        "tee_curvature_wrt_c": lambda q: tee_curvature_wrt_c(q, np.sqrt(xs)),
    }


@pytest.mark.parametrize("name", sorted(_q_one_subjects()))
def test_q_one_neighbours_follow_the_tangent(name):
    # f(1 +- delta) may leave f(1) only by the slope times delta; a formula
    # that cancels in (q - 1) adds ~eps/delta on top (1e-4 at delta = 1e-12)
    f = _q_one_subjects()[name]
    at_one = f(1.0)
    slope = (f(1.0 + 1e-4) - f(1.0 - 1e-4)) / 2e-4
    for delta in (1e-8, 1e-10, 1e-12):
        for sign in (1.0, -1.0):
            step = f(1.0 + sign * delta) - at_one
            assert np.max(np.abs(step - sign * delta * slope)) <= 1e-10


def _local_unitary(rng):
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.one_of(st.just(1.0), st.floats(ANALYTIC_Q_MIN, ANALYTIC_Q_MAX)),
)
def test_scalar_and_batched_routes_agree(seed, q):
    rng = np.random.default_rng(seed)
    local = np.kron(np.kron(_local_unitary(rng), _local_unitary(rng)), _local_unitary(rng))
    product = np.kron(np.kron(_local_unitary(rng)[:, 0], _local_unitary(rng)[:, 0]), [1.0, 0.0])
    states = [random_pure_state((2, 2, 2), rng) for _ in range(4)]
    states += [PureState((2, 2, 2), local @ w_state(3).amplitudes), PureState((2, 2, 2), product)]
    batch = np.stack([psi.amplitudes for psi in states])
    for party in range(3):
        got = tee_cost((2, 2, 2), party, q)(batch)[0]
        assert np.max(np.abs(got - [tee_pure(psi, party, q) for psi in states])) <= 1e-12
        got = concurrence_cost((2, 2, 2), party)(batch)[0]
        assert np.max(np.abs(got - [concurrence_pure(psi, party) for psi in states])) <= 1e-12
    for keep in ((0, 1), (0, 2), (1, 2)):
        got = np.sqrt(_pair_concurrence_sq(batch, (2, 2, 2), [keep])[:, 0])
        ref = [concurrence_two_qubit(psi.reduced(keep)).c for psi in states]
        assert np.max(np.abs(got - ref)) <= 1e-12
    for dims in ((2, 3, 2), (3, 3)):
        qudit = random_pure_state(dims, rng)
        for party in range(len(dims)):
            got = tee_cost(dims, party, q)(qudit.amplitudes[None])[0][0]
            assert abs(got - tee_pure(qudit, party, q)) <= 1e-12
            got = concurrence_cost(dims, party)(qudit.amplitudes[None])[0][0]
            assert abs(got - concurrence_pure(qudit, party)) <= 1e-12


@pytest.mark.parametrize(
    "states",
    [
        lambda: [random_pure_state((3, 3), np.random.default_rng(seed)) for seed in range(3)],
        lambda: [random_pure_state((4, 2, 2), np.random.default_rng(seed)) for seed in range(3)],
        lambda: [random_pure_state((2, 3, 3), np.random.default_rng(seed)) for seed in range(3)],
        lambda: [example3_state(0.7), example4_state(), example5_state()],
    ],
    ids=["3x3", "4x2x2", "2x3x3", "examples"],
)
def test_pure_and_cost_tee_take_one_spectrum_route(states):
    # a qudit cut took eigvalsh in tee_pure and eigh in tee_cost, whose
    # spectra differ in the last bits
    for psi in states():
        for party, q in itertools.product(range(psi.num_sites), (0.75, 1.0, 2.0, 3.5)):
            got = tee_cost(psi.dims, party, q)(psi.amplitudes[None])[0][0]
            assert got == tee_pure(psi, party, q)


@pytest.mark.parametrize("dims", [(2, 3), (2, 4), (3, 4)])
def test_both_sides_of_a_qudit_cut_agree(dims):
    # the larger side's marginal is rank-deficient; its rounding-size
    # eigenvalues would add about eps^q below q = 1
    rng = np.random.default_rng(3)
    states = [random_pure_state(dims, rng) for _ in range(30)]
    for psi, q in itertools.product(states, (0.3, 0.5, 0.75, 2.0)):
        small, large = tee_pure(psi, 0, q), tee_pure(psi, 1, q)
        assert abs(large - small) <= 1e-13 * small


@pytest.mark.parametrize("n", [3, 4])
def test_concurrence_two_qubit_zero_on_product_pairs(n):
    rng = np.random.default_rng(n)
    for _ in range(10):
        vec = np.ones(1, dtype=complex)
        for _ in range(n):
            vec = np.kron(vec, random_pure_state((2,), rng).amplitudes)
        psi = PureState((2,) * n, vec)
        for i in range(n):
            for j in range(i + 1, n):
                assert concurrence_two_qubit(psi.reduced([i, j])).c <= 1e-14


def _kernel_test_state(kind, n, rng):
    if kind == "random":
        return random_pure_state((2,) * n, rng)
    local = [_local_unitary(rng) for _ in range(n)]
    if kind == "product":
        return PureState((2,) * n, functools.reduce(np.kron, [u[:, 0] for u in local]))
    if kind == "product-rest":
        # two product qubits beside an entangled rest
        rest = random_pure_state((2,) * (n - 2), rng).amplitudes
        return PureState((2,) * n, np.kron(np.kron(local[0][:, 0], local[1][:, 0]), rest))
    base = w_state(n) if kind == "w" else ghz(n)
    return PureState((2,) * n, functools.reduce(np.kron, local) @ base.amplitudes)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(3, 6),
    st.sampled_from(["random", "product", "product-rest", "w", "ghz"]),
    st.integers(0, 2**32 - 1),
)
# a rotated W4 whose pair (1, 3) reads 1.6e-8 below 1/4 through eigh of its
# marginal: rounding leaves a zero eigenvalue just above the rank cutoff, and
# its square root enters the factor as a 2e-8 column
@example(4, "w", 1003126)
def test_pair_kernel_matches_wootters_on_marginals(n, kind, seed):
    rng = np.random.default_rng(seed)
    states = [_kernel_test_state(kind, n, rng) for _ in range(3)]
    pairs = list(itertools.combinations(range(n), 2))
    got = _pair_concurrence_sq(np.stack([psi.amplitudes for psi in states]), (2,) * n, pairs)
    assert got.shape == (3, len(pairs))
    # exact values where they are known: W_N pairs 4/N^2, product and GHZ pairs 0
    if kind == "w":
        assert np.max(np.abs(got - 4.0 / n**2)) <= 2e-15
    product = [kind in ("product", "ghz") or (kind == "product-rest" and i < 2) for i, _ in pairs]
    assert np.all(got[:, product] <= 1e-28)
    if kind in ("random", "product-rest"):
        for row, psi in zip(got, states):
            ref = [concurrence_two_qubit(psi.reduced(pair)).c ** 2 for pair in pairs]
            assert np.max(np.abs(row - ref)) <= 1e-14


def test_pair_kernel_ghz3_pairs_exactly_zero():
    # tau = [[0, -1/2], [-1/2, 0]] has det = -1/4; the unit phase must be exactly -1
    got = _pair_concurrence_sq(ghz(3).amplitudes, (2, 2, 2), [(0, 1), (0, 2), (2, 1)])
    assert got.tolist() == [0.0, 0.0, 0.0]


# --- state-level wrappers ------------------------------------------------------


def test_tee_pure_bell_and_w(bell):
    assert tee_pure(bell, 0, 2.0) == pytest.approx(0.5, abs=1e-12)
    assert tee_pure(bell, 1, 3.0) == pytest.approx(3 / 8, abs=1e-12)
    # W3 one-vs-rest marginal is diag(2/3, 1/3)
    assert tee_pure(w_state(3), 0, 2.0) == pytest.approx(4 / 9, abs=1e-12)


def test_tee_pure_matches_curve(rng):
    psi = random_pure_state((2, 2), rng)
    c = concurrence_pure(psi, 0)
    for q in (1.0, 1.7, 2.0, 3.4):
        assert tee_pure(psi, 0, q) == pytest.approx(
            float(tee_from_concurrence_sq(c * c, q)), abs=1e-10
        )


def test_tee_two_qubit_window_gate(bell):
    rho = bell.to_density()
    with pytest.raises(QRangeError):
        tee_two_qubit(rho, 5.0)
    assert tee_two_qubit(rho, 5.0, force_q=True) > 0.0
    assert tee_two_qubit(rho, 2.0) == pytest.approx(0.5, abs=1e-12)


def test_out_of_window_closed_form_is_an_upper_bound():
    # every member of Wootters' decomposition has concurrence C(rho), so that
    # decomposition attains g(C^2): outside the window the closed form is an
    # upper bound, and here the optimizer's roof, itself an upper bound on
    # the true roof, lands 4.7e-3 below it
    rng = np.random.default_rng(5)
    members = [random_pure_state((2, 2), rng).amplitudes for _ in range(3)]
    weights = rng.random(3)
    weights /= weights.sum()
    mat = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, members))
    rho = DensityMatrix((2, 2), mat)
    closed = tee_two_qubit(rho, 0.5, force_q=True)
    roof = minimize_roof(rho, tee_cost((2, 2), 0, 0.5), RoofConfig(restarts=16, seed=1))
    assert roof.value < closed - 1e-3
    with pytest.raises(QRangeError, match="as an upper bound"):
        tee_two_qubit(rho, 0.5)


def test_tee_two_qubit_on_mixture(rng, bell):
    # rank-2 mixture: closed form evaluates f_q of the Wootters concurrence
    mat = 0.7 * bell.to_density().matrix + 0.3 * np.diag([1.0, 0, 0, 0])
    rho = DensityMatrix((2, 2), mat)
    c = concurrence_two_qubit(rho).c
    assert tee_two_qubit(rho, 2.0) == pytest.approx(c * c / 2, abs=1e-12)


def test_ef_two_qubit_bell(bell):
    assert ef_two_qubit(bell.to_density()) == pytest.approx(LN2, abs=1e-10)


def test_tee_2xd_flags_and_gate(tmp_path, capsys):
    dm = DensityMatrix((2, 3), np.eye(6) / 6)
    est = tee_2xd(dm, 2.0, 0.5)
    assert est.exact and est.value == pytest.approx(0.125, abs=1e-12)
    est = tee_2xd(dm, 2.5, 0.5)
    assert est.exact is False
    with pytest.raises(DomainError):
        tee_2xd(dm, 2.0, 1.2)
    # the qubit may sit on either side; a qutrit pair has no qubit cut
    flipped = tee_2xd(DensityMatrix((3, 2), np.eye(6) / 6), 2.0, 0.5)
    assert flipped == tee_2xd(dm, 2.0, 0.5)
    with pytest.raises(DomainError):
        tee_2xd(DensityMatrix((3, 3), np.eye(9) / 9), 2.0, 0.5)
    # the CLI's qubit-qudit route is tee_2xd on the roof of the qubit side
    rng = np.random.default_rng(7)
    mats = [random_pure_state((3, 2), rng).to_density().matrix for _ in range(2)]
    rho = DensityMatrix((3, 2), 0.6 * mats[0] + 0.4 * mats[1])
    path = tmp_path / "q32.json"
    save_state(rho, path)
    assert main(["tee", str(path), "--q", "2", "--restarts", "4", "--json"]) == 0
    got = json.loads(capsys.readouterr().out)["value"]
    roof = roof_concurrence(rho, RoofConfig(restarts=4, seed=42), party=1)
    assert got == tee_2xd(rho, 2.0, roof.value).value


def test_tee_pure_ghz_across_any_cut():
    g = ghz(4)
    for party in range(4):
        assert tee_pure(g, party, 2.0) == pytest.approx(0.5, abs=1e-12)


def test_measures_holds_its_kernels_without_importing_roof():
    import ast
    import pathlib

    import tsallisq.measures as measures

    tree = ast.parse(pathlib.Path(measures.__file__).read_text(encoding="utf-8"))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "roof" not in imported
    for name in ("_eig2_descending", "_tee_values", "_concurrence_values"):
        assert getattr(measures, name).__module__ == "tsallisq.measures"


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("lead", [(), (5,)])
def test_pair_gather_matches_moveaxis_bit_for_bit(n, lead):
    rng = np.random.default_rng(n)
    dims = (2,) * n
    vecs = rng.normal(size=lead + (2**n,)) + 1j * rng.normal(size=lead + (2**n,))
    pairs = tuple(itertools.permutations(range(n), 2))
    got = vecs[..., _pair_gather(dims, pairs)]
    off = len(lead)
    ref = []
    for pair in pairs:
        tensor = np.moveaxis(vecs.reshape(lead + dims), [off + i for i in sorted(pair)], [off, off + 1])
        ref.append(tensor.reshape(lead + (4, -1)))
    ref = np.stack(ref, axis=-3)
    assert got.shape == ref.shape == lead + (len(pairs), 4, 2 ** (n - 2))
    assert got.tobytes() == ref.tobytes()
