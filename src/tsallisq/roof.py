"""Convex-roof minimization over pure-state decompositions.

Every decomposition of a rank-r density matrix into m >= r pure states is
reachable from the eigendecomposition through an m x r isometry V, so the
roof of a pure-state cost is a minimum over the isometry manifold.  The
optimizer below keeps each iterate on it: a step moves V against the gradient
and maps the result back by two-pass Gram-Schmidt (the QR factor with a
positive real R diagonal), the QR retraction of Absil, Mahony & Sepulchre
(Optimization Algorithms on Matrix Manifolds, 2008, sec. 4.1); several
independently seeded restarts run in one vectorized batch.  A cost maps a
(batch, dim) array of normalized state vectors to (values, grads): the
(batch,) values and the (batch, dim) gradients of the cost formula, as
d/dRe + i d/dIm.  New roof quantities only need a new cost.

Member i of the ensemble is row i of phi = V B, with B the weighted
eigenvectors, and contributes t = w f(phi_i / sqrt(w)), w = |phi_i|^2, which
depends on phi_i alone.  With psi = phi_i / sqrt(w), the chain rule through
the normalization, grad t = 2 f phi_i + sqrt(w) (grad f - Re<psi, grad f> psi),
gives dF/dphi for every cost; G = (dF/dphi) B^dagger is the gradient in V, and
its pullback through Gram-Schmidt at an isometry, where R = I, is G - V H with
H Hermitian (see _ensemble_gradient; Edelman, Arias & Smith, SIAM J. Matrix
Anal. Appl. 20, 303 (1998)).  So one cost call per sweep yields the values of
the candidates and the gradients at the points they accept; a rejected step
keeps its point and its gradient.  That call sees only the members above
weight 1e-14 of the running restarts; every other member gives 0.

A caller that knows a proven lower bound of the roof of the input may pass it
as floor: the batch then stops as soon as some restart comes within tolerance
of it, since no decomposition can do better.  The floor only decides when to
stop; the reported value is still recomputed from the decomposition found.
Without a floor the batch ends at the sweep where its best restart stops: a
stopped restart keeps its value and a running one only goes down, so the rest
could change the answer only by overtaking it.

Restart 0 starts at the eigendecomposition, the isometry [I; 0], except on two
qubits, where it starts at a Wootters decomposition of rho (_wootters_start):
its members have equal preconcurrence and average concurrence C(rho), so a
concurrence roof stops at its floor before the first sweep, and every other
cost starts from a decomposition that is optimal for the concurrence.  Results
are deterministic for a fixed seed: restart k >= 1 draws the same Gaussian
initial point no matter how many restarts follow it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PartitionError
from .linalg import _bipartition, _check_dims, _check_index, _check_party, _sq_norms
from .measures import (
    _FLIP_SIGN,
    _FLOOR_MARGIN,
    _caf_bound,
    _concurrence_values,
    _qlog,
    _pair_gather,
    _qubit_partners,
    _spin_flip_overlaps,
    _tau_residual,
    _tee_curve,
    _tee_values,
    _window_q,
    as_q,
    concurrence_two_qubit,
)
from .qstate import Decomposition, DensityMatrix, PureState

_RANK_TOL = 1e-10
_MAX_RANK = 8
_ACCEPT_SLACK = 1e-15
_DROP_WEIGHT = 1e-12
_TINY = np.finfo(float).tiny
# the real 4x4 Hadamard matrix over 2: orthogonal, every entry squared 1/4
_HADAMARD4 = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0
# fifth roots of unity w: for a unitary p of size 4, one of them keeps the
# spectrum of p / w at least pi/5 away from -1
_ROOTS5 = np.exp(0.4j * np.pi * np.arange(5))


@dataclass(frozen=True)
class RoofConfig:
    """Optimizer knobs."""

    restarts: int = 32
    max_iterations: int = 2000
    tolerance: float = 1e-7
    seed: int = 42

    def __post_init__(self):
        for name in ("restarts", "max_iterations", "seed"):
            _check_index(getattr(self, name), name)
        if self.seed < 0:
            raise DomainError("seed must be nonnegative")
        if self.restarts < 1:
            raise DomainError("need at least one restart")
        if self.max_iterations < 1:
            raise DomainError("need at least one iteration")
        if not (0.0 < self.tolerance < math.inf):
            raise DomainError("tolerance must be positive and finite")


@dataclass(frozen=True)
class RoofResult:
    """Outcome of a roof minimization: the bracket [lower, value] on the roof.

    value is recomputed from the returned decomposition, so it always matches
    it and is a genuine upper bound; lower is the floor the caller proved (or
    None), and gap = value - lower.  converged reports whether the restart
    that won actually met a stop rule rather than the iteration cap, and
    iterations is that restart's own count.  stop_reason names the rule that
    ended the winning restart: "floor" (within tolerance of lower, so the gap
    certifies the value), "tolerance" (four accepted steps each gaining less
    than tolerance), "step" (step size collapsed below 1e-10), "cap"
    (max_iterations reached) or "exact" (rank-1 input, nothing to optimize).
    cost_calls counts every call of the cost, the final recompute included;
    agreeing_restarts counts the restarts whose last value, where the batch
    ended for those it abandoned, lies within tolerance of the winner's (1 for
    rank-1 input).
    """

    value: float
    decomposition: Decomposition
    converged: bool
    iterations: int
    stop_reason: str
    lower: float | None = None
    cost_calls: int = 0
    agreeing_restarts: int = 0

    @property
    def gap(self) -> float | None:
        return None if self.lower is None else self.value - self.lower


def _eigenbasis(rho: DensityMatrix):
    vals, vecs = np.linalg.eigh(rho.matrix)
    keep = vals > _RANK_TOL
    lam = vals[keep][::-1]
    basis = vecs[:, keep][:, ::-1]
    # fix each column's global phase for bit-stable output
    for j in range(basis.shape[1]):
        k = int(np.argmax(np.abs(basis[:, j])))
        piv = basis[k, j]
        if abs(piv) > 0.0:
            basis[:, j] *= piv.conjugate() / abs(piv)
    return lam, basis


def _phase_fixed_isometries(mats: np.ndarray) -> np.ndarray:
    """Map a stack of full-column-rank m x r matrices to isometries.

    Two-pass Gram-Schmidt over the columns yields the Q factor whose R has a
    positive real diagonal, so the map is smooth; for r <= 8 this beats a
    batched LAPACK QR plus phase fix.
    """
    q = np.empty(mats.shape, dtype=complex)
    for j in range(mats.shape[-1]):
        v = mats[..., j]
        if j:
            prev = q[..., :j]
            prev_conj = prev.conj()
            for _ in range(2):
                coef = np.einsum("...mk,...m->...k", prev_conj, v)
                v = v - np.einsum("...mk,...k->...m", prev, coef)
        q[..., j] = v / np.sqrt(_sq_norms(v))[..., None]
    return q


def decomposition_from_isometry(rho: DensityMatrix, isometry: np.ndarray) -> Decomposition:
    """Realize the pure-state ensemble an m x r isometry induces on rho.

    Row i of the isometry mixes the weighted eigenvectors into the i-th
    (subnormalized) member; members below weight 1e-12 are dropped.
    """
    lam, basis = _eigenbasis(rho)
    r = lam.size
    v = np.asarray(isometry, dtype=complex)
    if v.ndim != 2 or v.shape[1] != r:
        raise PartitionError(f"isometry shape {v.shape} does not match state rank {r}")
    if v.shape[0] < r:
        raise DomainError("isometry needs at least rank many rows")
    gram = v.conj().T @ v
    if np.max(np.abs(gram - np.eye(r))) > 1e-8:
        raise DomainError("matrix is not an isometry (columns not orthonormal)")
    # row i of the seed matrix is sqrt(lam_i) e_i^T; a conjugate here would
    # realize rho* instead of rho
    phi = v @ (np.sqrt(lam)[:, None] * basis.T)
    return _ensemble_from_members(rho.dims, phi)[0]


def _ensemble_from_members(dims, phi: np.ndarray):
    """The decomposition of the members phi above weight 1e-12, with the
    weights and unit vectors it is built from."""
    weights = _sq_norms(phi)
    keep = weights > _DROP_WEIGHT
    states = phi[keep] / np.sqrt(weights[keep])[:, None]
    weights = weights[keep] / weights[keep].sum()
    members = tuple((float(w), PureState(dims, psi)) for w, psi in zip(weights, states))
    return Decomposition(members), weights, states


def _member_terms(phi: np.ndarray, cost, running=True):
    """Ensemble terms t = w cost(phi / sqrt(w)) of a (..., dim) member stack
    and their gradients in phi (module docstring), from one cost call.

    w = |phi|^2 is the member's weight.  Only members above weight 1e-14 of a
    running restart reach the cost, where running is True or one flag per
    restart of a (restarts, m, dim) stack; every other member gives 0.
    """
    w = _sq_norms(phi)
    on = (w > 1e-14) & np.asarray(running)[..., None]
    rows, w_on = phi[on], w[on]
    root = np.sqrt(w_on)[:, None]
    states = rows / root
    f, f_grad = cost(states)
    radial = np.einsum("ni,ni->n", states.conj(), f_grad).real[:, None]
    terms, grads = np.zeros(w.shape), np.zeros(phi.shape, dtype=complex)
    terms[on] = w_on * f
    grads[on] = 2.0 * f[:, None] * rows + root * (f_grad - radial * states)
    return terms, grads


_HALF_UPPER = tuple(np.triu(np.ones((r, r)), 1) + 0.5 * np.eye(r) for r in range(_MAX_RANK + 1))


def _ensemble_gradient(iso, b_mat, dphi) -> np.ndarray:
    """Gradient of the ensemble value at a stack of m x r isometries Q (iso).

    The value is sum_i t_i(phi_i) with phi = GS(A) B, GS = _phase_fixed_isometries,
    B = b_mat, and dphi holds the member gradients dt_i/dphi_i at A = Q, where
    A = QR has R = I; with G = dphi B^dagger and W = Q^dagger G, the pullback is

        dF/dA = G - Q (W - tril(W - W^dagger, -1) - i Im diag W) = G - Q H,

    where H = U + U^dagger, U = triu(W, 1) + diag(W) / 2, is the Hermitian
    matrix equal to W above the diagonal and to Re W on it.  Derivatives come
    as d/dRe + i d/dIm, one complex m x r matrix per Q.
    """

    def dag(x):
        return x.conj().swapaxes(-1, -2)

    g = dphi @ dag(b_mat)
    u = (dag(iso) @ g) * _HALF_UPPER[iso.shape[-1]]
    return g - iso @ (u + dag(u))


def _wootters_start(b_mat: np.ndarray) -> np.ndarray:
    """The 2r x r isometry of a two-qubit decomposition whose members have
    average concurrence C(rho), for the weighted eigenvectors B of a rank
    r >= 2 state (Wootters, PRL 80, 2245 (1998)).

    With the factor L = [B^T, 0] and tau = L^T (sigma_y x sigma_y) L =
    u diag(l) vh (its SVD), p = vh u* is unitary, commutes with diag(l)
    and is symmetric where l > 0.  So a square root S of p that is a function
    of p, the polar factor of I + p/w times sqrt(w), gives the Takagi form
    tau = (u S) diag(l) (u S)^T, and the columns x_j of L (u S)* have
    x_j^T (sigma_y x sigma_y) x_k = l_j delta_jk.  Phases e^(i theta_j / 2)
    with sum_j e^(i theta_j) l_j = max(C, 0) (theta = (0, pi, pi, pi), or
    angles that close the polygon of the l_j when C = 0) and the real
    Hadamard mix give four members of equal preconcurrence, a quarter of that
    sum each; halving members fills the 2r rows.
    """
    r = b_mat.shape[0]
    factor = np.zeros((4, 4), dtype=complex)
    factor[:, :r] = b_mat.T
    u, lam, vh = np.linalg.svd(_spin_flip_overlaps(factor))
    shifted = np.eye(4) + (vh @ u.conj()) / _ROOTS5[:, None, None]
    left, sing, right = np.linalg.svd(shifted)
    k = int(np.argmax(sing[:, -1]))
    takagi = (np.sqrt(_ROOTS5[k]) * (u @ left[k] @ right[k])).conj()
    if lam[0] - lam[1] - lam[2] - lam[3] >= 0.0:
        turns = np.array([1.0, -1.0, -1.0, -1.0], dtype=complex)
    else:
        # a triangle with sides l1, l2 and l3 + l4, scaled by l1 > 0
        b, c = lam[1] / lam[0], (lam[2] + lam[3]) / lam[0]
        cos = min(1.0, max(-1.0, (c * c - 1.0 - b * b) / (2.0 * b)))
        second = complex(cos, math.sqrt(1.0 - cos * cos))
        third = np.exp(1j * np.angle(-(1.0 + b * second)))
        turns = np.array([1.0, second, third, third])
    iso = _HADAMARD4 @ (np.sqrt(turns)[:, None] * takagi[:r].T)
    halves = np.repeat([2, 1], [2 * r - 4, 8 - 2 * r])
    return np.repeat(iso / np.sqrt(halves)[:, None], halves, axis=0)


def minimize_roof(
    rho: DensityMatrix,
    cost,
    config: RoofConfig | None = None,
    *,
    floor: float | None = None,
) -> RoofResult:
    """Minimize the ensemble average of a pure-state cost over decompositions.

    cost maps a (batch, dim) array of normalized vectors psi to (f, grad f),
    the (batch,) values and the cost formula's gradients as d/dRe + i d/dIm;
    a member term t = w f(phi / sqrt(w)) has grad t = 2 f phi + sqrt(w)
    (grad f - Re<psi, grad f> psi), and each sweep makes one cost call, on the
    members above weight 1e-14 of the running restarts.  The returned value is
    an upper bound on the true roof (the optimizer can only certify what it
    found), tight in practice for the ranks this package allows.  Restart 0
    starts at [I; 0], or on two qubits at a decomposition with average
    concurrence C(rho) (module docstring); restart k >= 1 at the k-th seeded
    Gaussian draw.

    floor, when given, must be a proven lower bound of the roof of rho, that
    is of the cost averaged over every decomposition of rho (a lower bound of
    the cost on every pure state is one).  Once the best restart's ensemble
    average is within config.tolerance of it, no decomposition can improve by
    more than that, so the whole batch stops and the winner reports
    stop_reason "floor".  Without a floor the batch stops when its best restart
    stops on "tolerance" or "step"; since the rest are abandoned, not run out,
    more restarts can on rare inputs read slightly higher.
    """
    cfg = config or RoofConfig()
    lam, basis = _eigenbasis(rho)
    r = lam.size
    if r > _MAX_RANK:
        raise DomainError(f"state rank {r} exceeds the optimizer limit {_MAX_RANK}")
    dims = rho.dims

    if r == 1:
        psi = PureState(dims, basis[:, 0])
        value = float(cost(basis[:, 0][None, :])[0][0])
        return RoofResult(
            value=value,
            decomposition=Decomposition(((1.0, psi),)),
            converged=True,
            iterations=0,
            stop_reason="exact",
            lower=floor,
            cost_calls=1,
            agreeing_restarts=1,
        )

    m = 2 * r  # ensemble size: enough for every optimal decomposition targeted here

    b_mat = np.sqrt(lam)[:, None] * basis.T  # (r, dim); transpose, never dagger

    n_restart = cfg.restarts
    rng = np.random.default_rng(cfg.seed)
    draws = np.zeros((n_restart, m, r), dtype=complex)
    if dims == (2, 2):
        draws[0] = _wootters_start(b_mat)
    else:
        draws[0, :r, :r] = np.eye(r)
    if n_restart > 1:
        # one contiguous draw per restart keeps restart k's start independent
        # of how many restarts come after it
        normals = rng.standard_normal((n_restart - 1, 2, m, r))
        draws[1:] = normals[:, 0] + 1j * normals[:, 1]

    mats = _phase_fixed_isometries(draws)
    terms, dphi = _member_terms(mats @ b_mat, cost)
    current = terms.sum(axis=1)
    grad = _ensemble_gradient(mats, b_mat, dphi)
    alpha = np.full(n_restart, 0.25)
    streak = np.zeros(n_restart, dtype=int)
    iters = np.zeros(n_restart, dtype=int)
    stopped = np.zeros(n_restart, dtype=bool)

    while True:
        at_floor = floor is not None and current.min() <= floor + cfg.tolerance
        # without a floor the batch is over once its best restart stops: the
        # rest only go down, so they matter only if one of them overtakes it
        settled = stopped.all() if floor is not None else stopped[np.argmin(current)]
        if at_floor or settled or iters.max() == cfg.max_iterations:
            break
        running = ~stopped
        iso_cand = _phase_fixed_isometries(mats - alpha[:, None, None] * grad)
        terms, dphi = _member_terms(iso_cand @ b_mat, cost, running)
        f_cand = terms.sum(axis=1)
        gain = current - f_cand
        took = (gain > _ACCEPT_SLACK) & running
        mats[took] = iso_cand[took]
        current[took] = f_cand[took]
        if took.any():  # a rejected step keeps its point, and so its gradient
            grad[took] = _ensemble_gradient(mats[took], b_mat, dphi[took])
        streak[took] = np.where(gain[took] < cfg.tolerance, streak[took] + 1, 0)
        alpha[running] *= np.where(took[running], 1.3, 0.4)
        iters[running] += 1
        stopped |= (alpha < 1e-10) | (streak >= 4)

    best = int(np.argmin(current))
    # a stopped restart's streak and step size no longer change
    reason = "tolerance" if streak[best] >= 4 else "step"
    reason = "floor" if at_floor else reason if stopped[best] else "cap"
    if at_floor or settled:  # the rest of the batch is abandoned, not run to the cap
        stopped[:] = True
    decomposition, weights, states = _ensemble_from_members(dims, mats[best] @ b_mat)
    value = float((weights * cost(states)[0]).sum())
    return RoofResult(
        value=value,
        decomposition=decomposition,
        converged=bool(stopped[best]),
        iterations=int(iters[best]),
        stop_reason=reason,
        lower=floor,
        cost_calls=int(iters.max()) + 2,  # the first, one a sweep, the recompute
        agreeing_restarts=int((current <= current[best] + cfg.tolerance).sum()),
    )


# --- pure-state cost factories: values from measures, gradients here ---------


def _state_order(dims, keep):
    """The gather that undoes _bipartition(., dims, keep), made once per cost;
    the slice that gathers nothing where it is the identity (a leading cut)."""
    order = np.argsort(_bipartition(np.arange(math.prod(dims)), dims, keep).ravel())
    return slice(None) if np.array_equal(order, np.arange(order.size)) else order


def _to_states(grad_mats: np.ndarray, order) -> np.ndarray:
    """Undo _bipartition on a stack of gradients in the (d_keep, d_rest) matrices."""
    return grad_mats.reshape(len(grad_mats), -1)[:, order]


def tee_cost(dims, party: int, q: float):
    """Pure-state Tsallis-q entanglement across party|rest, batched.

    The gradient is -2q ln_q(sigma) M; eigenvalues at or below 4 eps max add
    nothing (u^dagger M = 0 there).  A qubit party takes ln_q(sigma) M as
    L1 M + D (sigma - l1) M, D = (L1 - L2)/(l1 - l2), and sigma = l1 if l1 = l2.
    """
    dims = _check_dims(dims)
    party, q = _check_party(dims, party), as_q(q).q
    order = _state_order(dims, (party,))

    def cost(states: np.ndarray):
        values, mat, gram, spec, vecs = _tee_values(states, dims, party, q)
        cut = 4.0 * np.finfo(float).eps * spec.max(axis=1, keepdims=True)
        logs = _qlog(np.where(spec > cut, spec, 1.0), q)
        if vecs is not None:
            log_m = vecs @ (logs[:, :, None] * (vecs.conj().swapaxes(1, 2) @ mat))
        else:
            top, gap = spec[:, :1, None], (spec[:, 0] - spec[:, 1])[:, None, None]
            slope = (logs[:, 0] - logs[:, 1])[:, None, None] / np.maximum(gap, _TINY)
            log_m = logs[:, :1, None] * mat + slope * (gram @ mat - top * mat)
        return values, _to_states(-2.0 * q * log_m, order)

    return cost


def concurrence_cost(dims, party: int):
    """Pure-state generalized concurrence sqrt(2(1 - purity)), batched.

    The gradient is -4 sigma M / c, and 0 at the cone's tip c <= 1e-14,
    where c is the minors' rounding and the quotient would be noise.
    """
    dims = _check_dims(dims)
    party = _check_party(dims, party)
    order = _state_order(dims, (party,))

    def cost(states: np.ndarray):
        c, mat, gram = _concurrence_values(states, dims, party)
        grad = -4.0 * (gram @ mat) / np.where(c > 1e-14, c, np.inf)[:, None, None]
        return c, _to_states(grad, order)

    return cost


def indicator_summand_cost(dims, focus: int, q: float):
    """Monogamy-deficit summand for three-qubit pure members, batched.

    Returns T_q(focus marginal)^2 minus the squared pair measures g(x_j) of
    the two focus pairs, each through the concurrence closed form (so q must
    sit in the window where that form is exact).  The gradient is
    2 T grad T - sum_j 2 g(x_j) g'(x_j) grad x_j with x_j = C_j^2 in [0, 1] and
    g'(x) = q (ln_q p+ - ln_q p-)/(4s), s = sqrt(1 - x), p+- = (1 +- s)/2.  A
    pair adds nothing at x_j = 0, where g = 0, or at x_j = 1, where det tau = 0
    and grad x_j = grad |tau|^2 is radial (|tau|^2 is at its maximum 1).
    """
    dims = _check_dims(dims)
    if dims != (2, 2, 2):
        raise PartitionError(f"indicator needs three qubits, got dims {dims}")
    q = _window_q(q).q
    pairs = tuple(tuple(sorted((int(focus), j))) for j in _qubit_partners(dims, focus))
    focus_tee = tee_cost(dims, focus, q)
    gather = _pair_gather(dims, pairs)
    orders = [_state_order(dims, p) for p in pairs]

    def cost(states: np.ndarray):
        t, t_grad = focus_tee(states)
        m = states[:, gather]
        tau, phase, live, row = _tau_residual(m)
        x = np.clip(_sq_norms(row), 0.0, 1.0)
        pair_tee = _tee_curve(x, q)
        s = np.sqrt(1.0 - x)
        logs = _qlog(np.stack([(1.0 + s) / 2.0, np.where(x > 0.0, x, 1.0) / (2.0 * (1.0 + s))]), q)
        coef = -2.0 * q * pair_tee * (logs[0] - logs[1]) / np.maximum(s, _TINY)
        adj = tau[..., ::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]])
        e = tau - (phase * live)[..., None, None] * adj.conj()
        x_grad = (_FLIP_SIGN[:, None] * m[..., ::-1, :].conj()) @ e
        grads = 2.0 * t[:, None] * t_grad
        for j, order in enumerate(orders):
            grads += _to_states(coef[:, j, None, None] * x_grad[:, j], order)
        return t**2 - pair_tee[:, 0] ** 2 - pair_tee[:, 1] ** 2, grads

    return cost


def roof_concurrence(
    rho: DensityMatrix, config: RoofConfig | None = None, party: int = 0
) -> RoofResult:
    """Convex-roof concurrence of a bipartite mixed state, stopped within
    tolerance of its floor: Wootters at (2, 2), which is the roof itself, the
    Chen-Albeverio-Fei bound for a qubit against a qudit, 0 otherwise.  Both
    bounds give up _FLOOR_MARGIN for rounding, clipped at 0, so [lower, value]
    stays a proven bracket where the two-qubit start lands on C within ulps."""
    if rho.num_sites != 2:
        raise PartitionError(f"roof concurrence expects a bipartite state, got dims {rho.dims}")
    cost = concurrence_cost(rho.dims, party)
    if rho.dims == (2, 2):
        floor = max(0.0, concurrence_two_qubit(rho).c - _FLOOR_MARGIN)
    else:
        floor = _caf_bound(rho) if 2 in rho.dims else 0.0
    return minimize_roof(rho, cost, config, floor=floor)
