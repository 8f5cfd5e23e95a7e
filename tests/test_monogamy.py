import math

import numpy as np
import pytest

from tsallisq import (
    Decomposition,
    DensityMatrix,
    DomainError,
    PartitionError,
    PureState,
    QRangeError,
    RoofConfig,
    alpha_residual,
    binary_entropy,
    ckw_check,
    example3_residual,
    example4_residual,
    example5_residual,
    generalized_w,
    ghz,
    hierarchical_check,
    indicator,
    partial_trace,
    random_pure_state,
    tee_2xd,
    tee_cost,
    tee_from_concurrence_sq,
    tee_pure,
    tee_sq_residual,
    w_indicator_closed_form,
    w_state,
)
from tsallisq.analysis import find_root_q, holds_power_bound, holds_sum_power_bound
from tsallisq.measures import _pair_concurrence_sq
from tsallisq.monogamy import _gw_indicator, random_biseparable_mixture

# roots of the two example residuals, frozen from high-precision solves
EXAMPLE4_ROOT = 1.619194744390993
EXAMPLE5_ROOT = 2.471370753410185
# von Neumann limit of the closed-form W3 indicator
W3_TAU_Q1 = 0.114425729109666
# orders across the closed-form window, both sides of 1 and its edges
WINDOW_QS = (0.75, 1.0, 2.0, 3.5, 4.25)


# --- squared-TEE residual -------------------------------------------------------


def test_tee_sq_residual_w3(w3):
    rep = tee_sq_residual(w3, 0, 2.0)
    assert rep.residual == pytest.approx(8 / 81, abs=1e-12)
    assert rep.satisfied
    assert rep.partners == (1, 2)
    assert rep.lhs == pytest.approx(16 / 81, abs=1e-12)
    assert rep.rhs == pytest.approx(8 / 81, abs=1e-12)


def test_tee_sq_residual_ghz3(ghz3):
    rep = tee_sq_residual(ghz3, 0, 2.0)
    assert rep.residual == pytest.approx(0.25, abs=1e-12)
    assert rep.terms == (0.0, 0.0)


def test_tee_sq_residual_focus_choice(w3):
    # W state is symmetric, every focus gives the same residual
    vals = [tee_sq_residual(w3, f, 1.5).residual for f in range(3)]
    assert max(vals) - min(vals) < 1e-12


def test_tee_sq_residual_window_gate(w3):
    with pytest.raises(QRangeError):
        tee_sq_residual(w3, 0, 5.0)


def test_tee_sq_residual_needs_qubits():
    psi = random_pure_state((2, 3, 2), np.random.default_rng(1))
    with pytest.raises(PartitionError):
        tee_sq_residual(psi, 0, 2.0)


def test_tee_sq_residual_random_states_satisfied(rng):
    for _ in range(5):
        psi = random_pure_state((2, 2, 2, 2), rng)
        for q in (1.0, 2.0, 3.5):
            assert tee_sq_residual(psi, 0, q).satisfied


# --- alpha variant ---------------------------------------------------------------


def test_alpha_two_matches_squared(w3):
    a = alpha_residual(w3, 0, 2.0, 1.7)
    b = tee_sq_residual(w3, 0, 1.7)
    assert a.residual == pytest.approx(b.residual, abs=1e-14)


def test_alpha_residual_w3_cubed(w3):
    rep = alpha_residual(w3, 0, 3.0, 2.0)
    assert rep.residual == pytest.approx(48 / 729, abs=1e-12)


def test_alpha_residual_rejects_small_alpha(w3):
    with pytest.raises(DomainError):
        alpha_residual(w3, 0, 1.5, 2.0)


def test_alpha_residual_stays_satisfied_as_alpha_grows(w3):
    # satisfaction at alpha = 2 propagates upward since every term is <= 1
    for alpha in (2.0, 2.5, 3.0, 5.0, 8.0):
        assert alpha_residual(w3, 0, alpha, 2.0).satisfied


def test_alpha_residual_random_sweep(rng):
    psi = random_pure_state((2, 2, 2, 2), rng)
    for alpha in (2.0, 2.5, 4.0):
        for q in (0.8, 1.0, 2.0, 4.2):
            assert alpha_residual(psi, 0, alpha, q).satisfied


# --- CKW --------------------------------------------------------------------------


def test_ckw_w3_is_tight(w3):
    rep = ckw_check(w3, 0)
    assert rep.q is None
    assert abs(rep.residual) < 1e-9
    assert rep.satisfied


def test_ckw_ghz3(ghz3):
    rep = ckw_check(ghz3, 0)
    assert rep.residual == pytest.approx(1.0, abs=1e-10)


def test_ckw_random_states(rng):
    for _ in range(5):
        psi = random_pure_state((2, 2, 2), rng)
        assert ckw_check(psi, 0).satisfied


# --- hierarchical variant ----------------------------------------------------------


def test_hierarchical_equals_full_at_k_n(quick_roof):
    for state in (w_state(4), ghz(4)):
        full = tee_sq_residual(state, 0, 2.0).residual
        rep = hierarchical_check(state, 0, 4, 2.0, config=quick_roof)
        assert rep.residual == pytest.approx(full, abs=1e-12)


def test_hierarchical_w4_block(quick_roof):
    rep = hierarchical_check(w_state(4), 0, 3, 2.0, config=quick_roof)
    assert rep.partners == (1, (2, 3))
    assert rep.residual == pytest.approx(0.0625, abs=1e-6)
    assert rep.satisfied


def test_hierarchical_residual_grows_with_k(quick_roof):
    # merging partners into a block can only strengthen the subtracted side
    vals = [
        hierarchical_check(w_state(5), 0, k, 2.0, config=quick_roof).residual
        for k in (3, 4, 5)
    ]
    assert vals[0] <= vals[1] + 1e-6
    assert vals[1] <= vals[2] + 1e-6


def test_hierarchical_range_checks(w3):
    with pytest.raises(DomainError):
        hierarchical_check(w3, 0, 2, 2.0)
    with pytest.raises(DomainError):
        hierarchical_check(w3, 0, 4, 2.0)
    with pytest.raises(QRangeError):
        hierarchical_check(w3, 0, 3, 2.5)  # convex middle band


def test_hierarchical_focus_one(quick_roof):
    rep = hierarchical_check(w_state(4), 1, 3, 2.0, config=quick_roof)
    assert rep.satisfied
    assert rep.partners == (0, (2, 3))


_INTEGER = "must be an integer"


@pytest.mark.parametrize(
    "call,error,match",
    [
        (lambda w4: tee_pure(w4, 1.7, 2.0), PartitionError, _INTEGER),
        (lambda w4: tee_pure(w4, True, 2.0), PartitionError, _INTEGER),
        (lambda w4: w4.reduced((0, 1.0)), PartitionError, _INTEGER),
        (lambda w4: hierarchical_check(w4, 0, 3.9, 2.0), DomainError, _INTEGER),
        (lambda w4: hierarchical_check(w4, 0, 4.0, 2.0), DomainError, _INTEGER),
        (lambda w4: alpha_residual(w4, 2.9, 2.0, 2.0), DomainError, _INTEGER),
        (lambda w4: ckw_check(w4, 1.0), DomainError, _INTEGER),
        (lambda w4: indicator(w4, 2.0, focus=0.5), DomainError, _INTEGER),
        (lambda w4: ghz(3.9), DomainError, _INTEGER),
        (lambda w4: w_state(4.7), DomainError, _INTEGER),
        (lambda w4: w_indicator_closed_form(3.5, 2.0), DomainError, _INTEGER),
        (
            lambda w4: random_pure_state((2, 2.9), np.random.default_rng(0)),
            PartitionError,
            _INTEGER,
        ),
        (lambda w4: PureState((2.5, 2), [1.0, 0.0, 0.0, 0.0]), PartitionError, _INTEGER),
        (
            lambda w4: random_biseparable_mixture(np.random.default_rng(0), members=2.7),
            DomainError,
            _INTEGER,
        ),
        (lambda w4: tee_cost((2, 3.6), 0, 2.0), PartitionError, _INTEGER),
        (lambda w4: partial_trace(np.eye(4) / 4, (2.9, 2.2), (0,)), PartitionError, _INTEGER),
        (lambda w4: partial_trace(np.eye(4) / 4, (4, 1), (0,)), PartitionError, "dimension >= 2"),
    ],
    ids=[
        "tee-party-1.7",
        "tee-party-True",
        "reduced-keep-1.0",
        "hierarchical-k-3.9",
        "hierarchical-k-4.0",
        "alpha-focus-2.9",
        "ckw-focus-1.0",
        "indicator-focus-0.5",
        "ghz-n-3.9",
        "w-state-n-4.7",
        "w-closed-form-n-3.5",
        "random-pure-dims-2.9",
        "pure-state-dims-2.5",
        "biseparable-members-2.7",
        "tee-cost-dims-3.6",
        "partial-trace-dims-2.9",
        "partial-trace-dims-1",
    ],
)
def test_non_integral_indices_are_refused(call, error, match):
    # one rule for parties, foci, k, counts and dimensions: int() would read
    # 1.7 as 1 and 3.9 as 3; a dimension must also be at least 2
    with pytest.raises(error, match=match):
        call(w_state(4))


def test_numpy_integer_indices_are_accepted():
    w4 = w_state(4)
    one, two, three, four = (np.int64(k) for k in (1, 2, 3, 4))
    assert tee_pure(w4, one, 2.0) == tee_pure(w4, 1, 2.0)
    assert hierarchical_check(w4, one, four, 2.0) == hierarchical_check(w4, 1, 4, 2.0)
    assert np.array_equal(ghz(three).amplitudes, ghz(3).amplitudes)
    assert np.array_equal(w_state(four).amplitudes, w4.amplitudes)
    assert w_indicator_closed_form(three, 2.0) == w_indicator_closed_form(3, 2.0)
    psi = random_pure_state((2, three), np.random.default_rng(0))
    assert psi.dims == (2, 3) and type(psi.dims[1]) is int
    ref = random_pure_state((2, 3), np.random.default_rng(0))
    assert np.array_equal(psi.amplitudes, ref.amplitudes)
    assert PureState((two, 2), [1.0, 0.0, 0.0, 0.0]).dims == (2, 2)
    rho, ref_rho = (random_biseparable_mixture(np.random.default_rng(0), m) for m in (two, 2))
    assert np.array_equal(rho.matrix, ref_rho.matrix)
    values, grads = tee_cost((2, three), 0, 2.0)(psi.amplitudes[None])
    ref_values, ref_grads = tee_cost((2, 3), 0, 2.0)(psi.amplitudes[None])
    assert np.array_equal(values, ref_values) and np.array_equal(grads, ref_grads)
    mat = psi.to_density().matrix
    assert np.array_equal(partial_trace(mat, (two, three), (1,)), partial_trace(mat, (2, 3), (1,)))


@pytest.mark.parametrize(
    "call",
    [
        lambda: tee_from_concurrence_sq(math.nan, 2.0),
        lambda: tee_from_concurrence_sq(np.array([0.5, math.nan]), 2.0),
        lambda: tee_2xd(DensityMatrix((2, 2), np.eye(4) / 4), 2.0, math.nan),
        lambda: binary_entropy(math.nan),
        lambda: alpha_residual(w_state(4), 0, math.nan, 2.0),
        lambda: holds_power_bound(math.nan, 2.0),
        lambda: holds_power_bound(0.5, math.nan),
        lambda: holds_sum_power_bound([0.5, math.nan], 2.0),
        lambda: holds_sum_power_bound([0.5], math.nan),
        lambda: Decomposition(((math.nan, w_state(3)),)),
    ],
    ids=[
        "tee-curve-x",
        "tee-curve-x-array",
        "tee-2xd-c",
        "binary-entropy-p",
        "alpha-residual-alpha",
        "power-bound-x",
        "power-bound-t",
        "sum-power-bound-entries",
        "sum-power-bound-alpha",
        "decomposition-weight",
    ],
)
def test_nan_is_outside_every_range(call):
    # each range check accepts only inside its range; a comparison with NaN
    # is false, so a check written as "refuse outside" would let it through
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: alpha_residual(w_state(4), 0, math.inf, 2.0),
        lambda: holds_sum_power_bound([0.5], math.inf),
    ],
    ids=["alpha-residual", "sum-power-bound"],
)
def test_infinite_alpha_is_refused(call):
    # alpha >= 2 was the whole rule, so inf passed and every power read 0
    with pytest.raises(DomainError, match=r"^alpha must be finite, got inf$"):
        call()


# --- indicator ----------------------------------------------------------------------


def test_indicator_pure_w3(w3):
    res = indicator(w3, 2.0)
    assert res.upper_bound is False
    assert res.value == pytest.approx(8 / 81, abs=1e-12)
    assert res.report is not None


def test_indicator_closed_form_w_family():
    # the closed form covers any N; the pure indicator checks it state by state
    for n in (3, 4, 5, 6):
        for q in WINDOW_QS:
            res = indicator(w_state(n), q, focus=n - 1)
            assert res.upper_bound is False
            assert res.value == pytest.approx(float(w_indicator_closed_form(n, q)), abs=1e-12)


def test_indicator_closed_form_von_neumann(w3):
    assert w_indicator_closed_form(3, 1.0) == pytest.approx(W3_TAU_Q1, abs=1e-12)
    assert indicator(w3, 1.0).value == pytest.approx(W3_TAU_Q1, abs=1e-9)


def test_indicator_closed_form_broadcasts():
    vals = w_indicator_closed_form(3, np.array([1.0, 2.0, 3.0]))
    assert vals.shape == (3,)
    assert vals[1] == pytest.approx(8 / 81, abs=1e-12)


def test_indicator_mixed_pure_projector(w3, quick_roof):
    rho = DensityMatrix((2, 2, 2), w3.to_density().matrix)
    res = indicator(rho, 2.0, config=quick_roof)
    assert res.upper_bound is True
    assert res.value == pytest.approx(8 / 81, abs=1e-7)
    assert res.roof is not None


def test_indicator_biseparable_mixture_near_zero(quick_roof):
    rng = np.random.default_rng(42)
    rho = random_biseparable_mixture(rng)
    res = indicator(rho, 2.0, config=quick_roof)
    assert res.upper_bound
    assert abs(res.value) < 5e-3


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_indicator_pure_ghz_n_is_the_squared_focus_entropy(n):
    # every pair marginal of GHZ_n is separable, so each pair term is 0
    psi = ghz(n)
    for q in WINDOW_QS:
        for focus in (0, n - 1):
            res = indicator(psi, q, focus=focus)
            assert res.report.terms == (0.0,) * (n - 1)
            assert res.value == np.square(tee_pure(psi, focus, q))


def test_indicator_pure_random_n_qubit_states_nonnegative():
    rng = np.random.default_rng(4242)
    for n in (4, 5, 6):
        for _ in range(4):
            psi = random_pure_state((2,) * n, rng)
            for q in WINDOW_QS:
                for focus in range(n):
                    assert indicator(psi, q, focus=focus).value >= -1e-12


def test_gw_indicator_batch_is_the_scalar_indicator_bit_for_bit():
    thetas = np.linspace(0.02, np.pi - 0.02, 13)
    phis = np.linspace(0.0, 2.0 * np.pi, 25)
    for q in WINDOW_QS:
        for focus in (0, 1, 2):
            batch = _gw_indicator(thetas[:, None], phis[None, :], q, focus)
            scalar = [
                [indicator(generalized_w(th, ph), q, focus=focus).value for ph in phis]
                for th in thetas
            ]
            assert np.array_equal(batch, np.array(scalar)), (q, focus)


def test_indicator_rejects_wrong_shapes(rng):
    with pytest.raises(PartitionError):
        indicator(random_pure_state((2, 2), rng), 2.0)
    with pytest.raises(PartitionError):
        indicator(random_pure_state((2, 3, 2), rng), 2.0)
    # pure input takes N qubits, mixed input stays three-qubit
    rho = DensityMatrix((2,) * 4, random_pure_state((2,) * 4, rng).to_density().matrix)
    with pytest.raises(PartitionError, match=r"three qubits, got dims \(2, 2, 2, 2\)"):
        indicator(rho, 2.0)
    with pytest.raises(TypeError):
        indicator(np.eye(8) / 8, 2.0)
    with pytest.raises(QRangeError):
        indicator(w_state(3), 6.0)


def test_random_biseparable_mixture_valid(rng):
    rho = random_biseparable_mixture(rng, members=4)
    assert rho.dims == (2, 2, 2)
    assert abs(np.trace(rho.matrix).real - 1.0) < 1e-10
    assert rho.spectrum()[-1] > -1e-10


# --- worked examples ------------------------------------------------------------------


def test_example3_values():
    assert example3_residual(np.pi / 4, 2.0) == pytest.approx(1 / 16, abs=1e-12)
    assert example3_residual(np.pi / 4, 4.0) == pytest.approx(
        -2303 / 36864, abs=1e-12
    )
    assert example3_residual(0.0, 2.0) == pytest.approx(0.0, abs=1e-12)


def test_example3_broadcasts_over_q():
    qs = np.array([2.0, 3.0, 4.0])
    out = example3_residual(0.9, qs)
    assert out.shape == (3,)
    assert out[0] == pytest.approx(example3_residual(0.9, 2.0), abs=1e-15)
    thetas = np.array([0.0, 0.3, 0.9, np.pi / 4])
    grid = example3_residual(thetas[:, None], qs)
    assert grid.shape == (4, 3)
    for i, th in enumerate(thetas):
        assert grid[i] == pytest.approx(example3_residual(float(th), qs), abs=1e-15)


def test_example4_values():
    assert example4_residual(2.0) == pytest.approx(-1 / 18, abs=1e-12)
    root_val = example4_residual(EXAMPLE4_ROOT)
    assert abs(root_val) < 1e-12


def test_example4_root_position():
    root = find_root_q(example4_residual, (1.1, 2.0), f_tol=1e-14, x_tol=1e-13)
    assert root == pytest.approx(EXAMPLE4_ROOT, abs=1e-9)


def test_example5_values():
    assert example5_residual(2.0) == pytest.approx(4 / 81, abs=1e-12)
    assert example5_residual(3.0) == pytest.approx(-2 / 81, abs=1e-12)


def test_example5_root_position():
    root = find_root_q(example5_residual, (2.0, 3.0), f_tol=1e-14, x_tol=1e-13)
    assert root == pytest.approx(EXAMPLE5_ROOT, abs=1e-9)


def test_examples_reach_their_von_neumann_values():
    # at q = 1 each residual is S(cut)^2 - sum S(pair)^2 in nats
    ln2, ln3 = math.log(2.0), math.log(3.0)
    cases = (
        (lambda q: example3_residual(np.pi / 4, q), 2.0 * ln2**2),
        (example4_residual, ln3**2 - 2.0 * ln2**2),
        (example5_residual, ln3**2 - 2.0 * (ln3 - 2.0 * ln2 / 3.0) ** 2),
    )
    for func, closed in cases:
        at_one = func(1.0)
        assert isinstance(at_one, float)
        assert abs(at_one - closed) <= 1e-15
        for q in (1.0 - 1e-9, 1.0 + 1e-9):
            assert abs(func(q) - at_one) <= 1e-8
        # the array route takes q = 1 inside a grid as well
        assert func(np.array([1.0, 2.0])) == pytest.approx([at_one, func(2.0)], abs=1e-15)


def test_example3_matches_roof_route(quick_roof):
    # the pair terms in the closed form are convex-roof TEEs of the mixed
    # marginals, not plain entropies, so cross-check through the optimizer
    from tsallisq import example3_state, minimize_roof, tee_pure
    from tsallisq.roof import tee_cost

    theta, q = 0.6, 2.0
    psi = example3_state(theta)
    lhs = tee_pure(psi, 0, q) ** 2
    terms = []
    for pair in ((0, 1), (0, 2)):
        red = psi.reduced(pair)
        terms.append(minimize_roof(red, tee_cost(red.dims, 0, q), quick_roof).value ** 2)
    direct = lhs - sum(terms)
    assert example3_residual(theta, q) == pytest.approx(direct, abs=1e-6)


def test_example5_matches_roof_route(quick_roof):
    from tsallisq import example5_state, minimize_roof, tee_pure
    from tsallisq.roof import tee_cost

    q = 2.0
    psi = example5_state()
    lhs = tee_pure(psi, 0, q) ** 2
    terms = []
    for pair in ((0, 1), (0, 2)):
        red = psi.reduced(pair)
        terms.append(minimize_roof(red, tee_cost(red.dims, 0, q), quick_roof).value ** 2)
    direct = lhs - sum(terms)
    assert example5_residual(q) == pytest.approx(direct, abs=1e-6)


# --- pinned bits ------------------------------------------------------------------


def _pinned_kernel_values():
    # seeded 3- to 6-qubit states on both sides of q = 1; every float each
    # call returns, as .hex()
    rng = np.random.default_rng(2718)

    def bits(values):
        return tuple(float(v).hex() for v in values)

    def report(rep):
        return bits((rep.lhs, rep.residual, *rep.terms))

    out = {}
    for n, q, focus in ((3, 0.8, 0), (4, 1.0, 2), (5, 2.0, 4), (6, 3.5, 1)):
        psi = random_pure_state((2,) * n, rng)
        pairs = [(focus, j) for j in range(n) if j != focus]
        out[f"n{n}-pairs"] = bits(_pair_concurrence_sq(psi.amplitudes, psi.dims, pairs))
        out[f"n{n}-alpha2"] = report(alpha_residual(psi, focus, 2.0, q))
        out[f"n{n}-alpha3"] = report(alpha_residual(psi, focus, 3.0, q))
        out[f"n{n}-ckw"] = report(ckw_check(psi, focus))
        out[f"n{n}-hier"] = report(hierarchical_check(psi, focus, n, q))
        if n == 4:
            cfg = RoofConfig(restarts=4, seed=2)
            out["n4-hier-k3"] = report(hierarchical_check(psi, focus, 3, 2.0, cfg))
    return out


# _pinned_kernel_values as recorded before the pure-state kernels' numpy calls
# were trimmed: those trims must leave every bit unchanged.  The n4 and n5 pair
# values (and the terms and residuals made from them) were re-pinned when
# pairs of four or more qubits took their factor from a QR of the amplitudes;
# CHANGES.md lists each beside its 50-digit mpmath value
_PINNED_KERNEL_BITS = {
    "n3-pairs": (
        "0x1.4819191adf955p-4", "0x1.9e7825ad077c0p-4",
    ),
    "n3-alpha2": (
        "0x1.b9d407cd45792p-2", "0x1.8996db0d1947cp-2", "0x1.43e2ea9cd1dc6p-6",
        "0x1.bfefe165f139cp-6",
    ),
    "n3-alpha3": (
        "0x1.2238d0c278fe7p-2", "0x1.1abf26f3abc44p-2", "0x1.6c4eed0299c72p-9",
        "0x1.2842fd3201a9bp-8",
    ),
    "n3-ckw": (
        "0x1.a37bb42996826p-1", "0x1.46a98c5099a04p-1", "0x1.4819191adf955p-4",
        "0x1.9e7825ad077c0p-4",
    ),
    "n3-hier": (
        "0x1.b9d407cd45792p-2", "0x1.8996db0d1947cp-2", "0x1.43e2ea9cd1dc6p-6",
        "0x1.bfefe165f139cp-6",
    ),
    "n4-pairs": (
        "0x1.68159b28f007ap-7", "0x1.2777544794ba6p-4", "0x1.009d7b8810125p-7",
    ),
    "n4-alpha2": (
        "0x1.03adb0e6ef4edp-2", "0x1.f502babae2765p-3", "0x1.7a1925f3fb882p-12",
        "0x1.1320deb3336c2p-7", "0x1.a632533bcb36ep-13",
    ),
    "n4-alpha3": (
        "0x1.05899941848bbp-3", "0x1.03f1257129362p-3", "0x1.cb80666fb42bbp-18",
        "0x1.935d6c8cf6753p-11", "0x1.7f63017fb1ec3p-19",
    ),
    "n4-ckw": (
        "0x1.4a7ff85453783p-1", "0x1.1bee41709ce08p-1", "0x1.68159b28f007ap-7",
        "0x1.2777544794ba6p-4", "0x1.009d7b8810125p-7",
    ),
    "n4-hier": (
        "0x1.03adb0e6ef4edp-2", "0x1.f502babae2765p-3", "0x1.7a1925f3fb882p-12",
        "0x1.1320deb3336c2p-7", "0x1.a632533bcb36ep-13",
    ),
    "n4-hier-k3": (
        "0x1.aaae2c31bbc05p-4", "0x1.057fd00d672b0p-4", "0x1.fa7cc635f5ef0p-16",
        "0x1.4a1d68afe26bfp-5",
    ),
    "n5-pairs": (
        "0x0.0p+0", "0x1.24a67e03e3356p-8", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "n5-alpha2": (
        "0x1.d7be613cda35ep-3", "0x1.d7bbc42462b4dp-3", "0x0.0p+0",
        "0x1.4e8c3bc0897c9p-18", "0x0.0p+0", "0x0.0p+0",
    ),
    "n5-alpha3": (
        "0x1.c4d187f4669ccp-4", "0x1.c4d184f7838d3p-4", "0x0.0p+0",
        "0x1.7e7187c475b2ap-27", "0x0.0p+0", "0x0.0p+0",
    ),
    "n5-ckw": (
        "0x1.eb75b718b8cb8p-1", "0x1.e92c6a1cb1051p-1", "0x0.0p+0",
        "0x1.24a67e03e3356p-8", "0x0.0p+0", "0x0.0p+0",
    ),
    "n5-hier": (
        "0x1.d7be613cda35ep-3", "0x1.d7bbc42462b4dp-3", "0x0.0p+0",
        "0x1.4e8c3bc0897c9p-18", "0x0.0p+0", "0x0.0p+0",
    ),
    "n6-pairs": (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0",
    ),
    "n6-alpha2": (
        "0x1.9d78db4dfea94p-4", "0x1.9d78db4dfea94p-4", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "n6-alpha3": (
        "0x1.06bc607607414p-5", "0x1.06bc607607414p-5", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "n6-ckw": (
        "0x1.ece52f2acf5d4p-1", "0x1.ece52f2acf5d4p-1", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0",
    ),
    "n6-hier": (
        "0x1.9d78db4dfea94p-4", "0x1.9d78db4dfea94p-4", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0",
    ),
}


def test_pure_kernel_bits_are_pinned():
    assert _pinned_kernel_values() == _PINNED_KERNEL_BITS


def test_w_indicator_closed_form_refuses_one_qubit():
    with pytest.raises(DomainError) as err:
        w_indicator_closed_form(1, 2.0)
    assert str(err.value) == "the W family needs n >= 2, got 1"


def test_biseparable_mixture_refuses_no_member(rng):
    with pytest.raises(DomainError) as err:
        random_biseparable_mixture(rng, members=0)
    assert str(err.value) == "need at least one member"
