"""Brute-force oracle in a truncated two-mode Fock basis.

H(y) = hbar omega (N1 + N2 + 1) + g(y) x1 x2 over product states |n, n'>
with n, n' <= n_max.  H commutes with mode exchange and with the parity of
n + n' (x changes n by +-1), so its ground state lies in the exchange-
symmetric, even-parity sector: the pairs n <= n' with n + n' even, held as
orthonormal coordinates u = w c[n, n'] (w = sqrt 2 off the diagonal, 1 on
it) of the amplitude table c[n, n'].  The sector has d = (n_max+2)^2 // 4
coordinates (121 at n_max = 20, 441 at 40) against (n_max+1)^2 table
entries, and a FockOracle holds H on it as a five-row stencil: the H0
diagonal and the x (x) x couplings to (n+-1, n'+-1).  ground_state finds the
lowest eigenpair by thick-restart Lanczos with full reorthogonalization
(numpy only) on u, in a basis of at most 24 vectors that restarts from its 8
lowest Ritz vectors; no matrix of side (n_max+1)^2 is built.  The first
solve of an oracle starts from |0,0>, each later one from the previous
ground state, or from the quadratic extrapolation of the last three to the
new g where that is safe (see EXTRAPOLATE_MIN_U), so a grid sweep or a
trajectory is warm-started and reruns stay deterministic.
A GroundStateResult holds u; its amplitude table, and the residual measured
with the full-table H0 o c + g(y) x c x (FockOracle.apply), are computed on
first read.  <x1 x2> = u . (V u) comes from the stencil
(FockOracle.correlation); the other observables are contracted on the table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NoConvergenceError, TruncationMismatchError
from .model import ValidatedModel
from .quantum import VacuumExpansion, VacuumObservables


def _lowering(n_max: int) -> np.ndarray:
    """Single-mode lowering matrix a with a|n> = sqrt(n)|n-1>, n <= n_max."""
    return np.diag(np.sqrt(np.arange(1, n_max + 1)), k=1)


@dataclass(frozen=True)
class OperatorMatrix:
    matrix: np.ndarray


@dataclass(frozen=True)
class GroundStateResult:
    """E0 and the sector coordinates u of a ground state of oracle's H at
    coupling g; the amplitude table and the residual are computed on first
    read."""

    E0: float
    vector: np.ndarray
    steps: int  # Lanczos steps: matvecs, across restarts
    oracle: FockOracle = field(repr=False)
    g: float

    @functools.cached_property
    def amplitudes(self) -> np.ndarray:
        """The amplitude table c[n, n'] of the ground state."""
        return self.oracle.table(self.vector)

    @functools.cached_property
    def residual_norm(self) -> float:
        """||H c - E0 c|| by the full-table H (FockOracle.apply), so it
        audits the sector stencil too."""
        c = self.amplitudes
        r = self.oracle.apply(self.g, c).ravel()
        r -= self.E0 * c.ravel()
        return math.sqrt(r @ r)

    def edge_mass(self) -> float:
        """Sum of c[n, n']^2 over n = n_max or n' = n_max: the weight on the
        basis edge, a truncation estimate that needs no analytic answer."""
        c = self.amplitudes
        return float(np.sum(c[-1, :] ** 2) + np.sum(c[:-1, -1] ** 2))


@dataclass(frozen=True)
class StructureReport:
    symmetry_violation: float
    odd_parity_mass: float


def position_matrix(model: ValidatedModel, n_max: int) -> np.ndarray:
    """Single-mode x = sqrt(hbar/(2 m omega)) (a' + a)."""
    a = _lowering(n_max)
    return math.sqrt(model.hbar / (2.0 * model.m * model.omega)) * (a + a.T)


@functools.cache
def _sector(n_max: int):
    """The parts of a FockOracle that depend on n_max alone, read-only.

    Returns the table n + n' + 1; the sector pairs (n, m), n <= m, n + m
    even, (0, 0) first; their weights w; the stencil columns (row 0 the
    pair itself, rows 1-4 the coordinate of (n + a, m + b) for (a, b) =
    (1, 1), (1, -1), (-1, 1), (-1, -1), mapped back to n <= m); the indices
    into hop of x[n, n + a] and x[m, m + b]; and w_i / w_j.
    """
    levels = np.arange(n_max + 1, dtype=float)
    quanta = levels[:, None] + levels[None, :] + 1.0
    n, m = np.triu_indices(n_max + 1)
    even = (n + m) % 2 == 0
    n, m = n[even], m[even]
    weight = np.where(n < m, math.sqrt(2.0), 1.0)
    # index maps a padded (n + 1, m + 1) either way round to its coordinate;
    # a neighbour outside the basis lands on coordinate 0 with a zero hop.
    index = np.zeros((n_max + 3, n_max + 3), dtype=np.intp)
    index[n + 1, m + 1] = index[m + 1, n + 1] = np.arange(n.size)
    a = np.array([[1], [1], [-1], [-1]])
    b = np.array([[1], [-1], [1], [-1]])
    cols = index[n + 1 + a, m + 1 + b]
    ratio = weight / weight[cols]
    cols = np.vstack([np.arange(n.size), cols])
    hops = (n + (a + 1) // 2, m + (b + 1) // 2)
    parts = (quanta, n, m, weight, cols, *hops, ratio)
    for array in parts:
        array.flags.writeable = False
    return quanta, (n, m), weight, cols, hops, ratio


class FockOracle:
    """H(y) = H0 + g(y) V for n, n' <= n_max, and where its next solve starts.

    Build one per (model, n_max) and pass it to ground_state for every y of a
    sweep: each solve starts from the ground state of the one before.
    """

    def __init__(self, model: ValidatedModel, n_max: int):
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        self.model = model
        self.n_max = n_max
        quanta, self.pairs, self.weight, self.cols, hops, ratio = _sector(n_max)
        self.h0 = model.hbar * model.omega * quanta
        self.x = position_matrix(model, n_max)
        # Stencil rows 1-4: hop[k] = x[k - 1, k], with hop[0] = hop[n_max + 1]
        # = 0 for the neighbours that leave the basis.
        hop = np.zeros(n_max + 2)
        hop[1:-1] = np.diag(self.x, 1)
        n, m = self.pairs
        self.stencil = np.vstack([self.h0[n, m], hop[hops[0]] * hop[hops[1]] * ratio])
        self.start = np.zeros(n.size)
        self.start[0] = 1.0  # |0,0>
        # recent: (g, u) of the last three ground states at most, oldest
        # first, for the extrapolated start (see _start); empty until the
        # first solve, which is cold.  warm_steps: the step count of the last
        # warm solve (0 before one), below which the next solve skips checks
        # (see ground_state).
        self.recent = ()
        self.warm_steps = 0

    def apply(self, g: float, c: np.ndarray) -> np.ndarray:
        """H0 + g V applied to amplitude tables c[..., n, n']: V = x (x) x acts
        as x c x, x1 on the rows and x2 on the columns."""
        return self.h0 * c + g * (self.x @ c @ self.x)

    def sector_operator(self, g: float):
        """H0 + g V on sector coordinates u, as a function of u."""
        vals = self.stencil * np.array([1.0, g, g, g, g])[:, None]
        cols = self.cols
        return lambda u: (vals * u[cols]).sum(0)

    def correlation(self, u: np.ndarray) -> float:
        """<x1 x2> = u . (V u) of normalized sector coordinates u, with V on
        rows 1-4 of the stencil."""
        return float(u @ (self.stencil[1:] * u[self.cols[1:]]).sum(0))

    def table(self, u: np.ndarray) -> np.ndarray:
        """The amplitude table c[n, n'] of sector coordinates u."""
        c = np.zeros_like(self.h0)
        n, m = self.pairs
        c[n, m] = c[m, n] = u / self.weight
        return c


def build_hamiltonian(model: ValidatedModel, y: float, n_max: int) -> OperatorMatrix:
    """Dense view of the oracle's H(y), for auditing its matrix elements:
    column j is the oracle's H applied to basis state j = n*(n_max+1)+n'."""
    side = n_max + 1
    dim = side * side
    units = np.eye(dim).reshape(dim, side, side)
    columns = FockOracle(model, n_max).apply(model.g(y), units)
    return OperatorMatrix(matrix=columns.reshape(dim, dim).T)


# A solve stops when the Ritz residual estimate beta_k |s_k| of the lowest
# Ritz pair is at most RITZ_TOL |theta_0|.  A looser stop saves a few steps
# per warm solve, but the relative error of a small <x1 x2> grows as
# RITZ_TOL / (g/k): at g/k = 1e-9 it was 3e-9 with 1e-13, 3e-14 with epsilon.
# A floor of epsilon ||T_k|| in place of epsilon |theta_0| cut warm steps by
# 13% but raised that error at n_max = 40 from 1.7e-13 to about 1e-9.
# Skipping checks leaves the test as it is: a solve stops at the same k as
# with every check, or at a later one.
RITZ_TOL = float(np.finfo(float).eps)


# The Krylov basis holds at most BASIS_MAX vectors; when it is full and the
# stop test fails it restarts from its RESTART_KEEP lowest Ritz vectors
# (Wu & Simon, SIAM J. Matrix Anal. Appl. 22, 602 (2000)).  Cold n_max = 40
# solves at g/k = 0.5, 0.9 and 0.99 took 63, 120 and 184 steps against 63,
# 121 and 151 unrestarted, in 1.8, 3.2 and 4.7 ms against 3.7, 7.7 and 11.2
# (one BLAS thread, 2-vCPU Xeon); 16/6, 32/10 and 40/12 were no faster.
# Where the space is larger than the basis, a solve gives up after
# STEP_LIMIT times its dimension in steps: the longest solve measured took
# 200 steps at dimension 441 (g/k = 0.999).
BASIS_MAX = 24
RESTART_KEEP = 8
STEP_LIMIT = 8


def _next_check(k: int) -> int:
    return k + max(1, k // 4)


def _lanczos(matvec, start: np.ndarray, skip_below: int) -> tuple[float, np.ndarray, int]:
    """Lowest eigenpair of a symmetric operator by thick-restart Lanczos
    from start.

    Every new Krylov vector is orthogonalized against all vectors of the
    basis in two classical Gram-Schmidt passes (one pass lets the basis lose
    orthogonality and the stop test is never met), so the projected matrix
    T holds Ritz values with no spurious copies.  k counts steps (matvecs)
    across restarts.  The stop test runs at k = 1 on T_1 itself (theta_0 =
    alpha_1, s = [1]) and then on an eigh of T at the schedule points 2, 3,
    ..., 8, 10, 12, 15, ... (next at k + max(1, k // 4)) from the last one
    below skip_below on, so with skip_below = 22 at k = 1, 18, 22, ...: an
    eigh after every step made grid sweeps slower than ARPACK.  It also runs
    whenever the basis is full.  The solve stops when beta |s_last,0| <=
    RITZ_TOL |theta_0|, which an exact breakdown (beta = 0) meets.

    A full basis of BASIS_MAX vectors V restarts from the Ritz vectors
    S[:, :RESTART_KEEP].T @ V of that eigh; T becomes diag(theta_0, ...)
    with the arrow row and column beta S[-1, :RESTART_KEEP] to the next
    Krylov vector, and the tridiagonal recurrence goes on from there.  A
    solve of BASIS_MAX steps or fewer never restarts.
    Returns (theta_0, Ritz vector, k).  Raises NoConvergenceError when the
    basis fills the whole space (dimension <= BASIS_MAX) or after
    STEP_LIMIT times the dimension in steps.
    """
    dim = start.size
    size = min(dim, BASIS_MAX)
    limit = dim if dim <= BASIS_MAX else STEP_LIMIT * dim
    basis = np.empty((size, dim))
    t = np.zeros((size, size))  # T is t[:j, :j]
    np.divide(start, math.sqrt(start @ start), out=basis[0])
    j = k = 0
    check = 1
    while True:
        q = basis[j]
        w = matvec(q)
        t[j, j] = q @ w
        j += 1
        k += 1
        v = basis[:j]
        for _ in range(2):
            w -= (v @ w) @ v
        b = math.sqrt(w @ w)
        if k == 1:
            if b <= RITZ_TOL * abs(t[0, 0]):
                return float(t[0, 0]), q.copy(), 1
        elif k == check or j == size or k == limit or b == 0.0:
            theta, s = np.linalg.eigh(t[:j, :j])
            if b * abs(s[-1, 0]) <= RITZ_TOL * abs(theta[0]):
                return float(theta[0]), s[:, 0] @ v, k
            if k == limit:
                raise NoConvergenceError(
                    f"Lanczos took {k} steps in dimension {dim} with Ritz "
                    f"residual {b * abs(s[-1, 0]):.3e} > {RITZ_TOL:.3e} |E0|"
                )
        if k == check:
            check = _next_check(k)
            while _next_check(check) < skip_below:
                check = _next_check(check)
        if j < size:
            t[j - 1, j] = t[j, j - 1] = b
        else:
            keep = s[:, :RESTART_KEEP]
            basis[:RESTART_KEEP] = keep.T @ v
            t[:] = 0.0
            np.fill_diagonal(t[:RESTART_KEEP, :RESTART_KEEP], theta[:RESTART_KEEP])
            t[RESTART_KEEP, :RESTART_KEEP] = t[:RESTART_KEEP, RESTART_KEEP] = b * keep[-1]
            j = RESTART_KEEP
        np.divide(w, b, out=basis[j])


# A solve starts from the quadratic extrapolation q of the last three ground
# states to the new g (the predictor of predictor-corrector continuation:
# Allgower & Georg, Numerical Continuation Methods, 1990) when the three g
# differ and both of these hold; otherwise from the last ground state.
# - g/k >= EXTRAPOLATE_MIN_U = RITZ_TOL / 1e-13, about 2.2e-3.  Below it the
#   stop rule bounds <x1 x2> only to RITZ_TOL / (g/k) relative, and a start
#   that close lets a solve stop early with <x1 x2> off by more than 1e-12;
#   the plain warm start keeps the sweeps to g/k = 1e-9 within 1e-12.
# - ||q - l|| < EXTRAPOLATE_BEND ||l - u_c||, l the linear extrapolation from
#   the last two.  Along a slow trajectory the ratio is 1e-5 or less, and
#   from q a run takes 0.44-0.63 of the Lanczos steps (n_max 12, g/k 0.4).
#   On force-curve grids, where g moves 18-73% between points, the ratio is
#   5e-3 to 0.2: with a bound of 1e-2 the reference sweep at n_max 28 took
#   322 steps against 317, with 1e-3 it keeps the plain start and takes 317.
#   Where g moves about 1% per step (ratio near 2e-3) q saves no steps.
EXTRAPOLATE_MIN_U = RITZ_TOL / 1e-13
EXTRAPOLATE_BEND = 1e-3


def _start(oracle: FockOracle, g: float) -> np.ndarray:
    """Where the solve at g starts: the quadratic extrapolation (Newton form)
    of oracle.recent to g where the rules above allow it, else oracle.start."""
    if len(oracle.recent) < 3 or not abs(g) >= EXTRAPOLATE_MIN_U * oracle.model.k:
        return oracle.start
    (ga, ua), (gb, ub), (gc, uc) = oracle.recent
    if ga == gb or gb == gc or ga == gc:
        return oracle.start
    step = (g - gc) / (gc - gb) * (uc - ub)
    bend = (g - gc) * (g - gb) / (ga - gc) * ((ua - ub) / (ga - gb) - (ub - uc) / (gb - gc))
    if not bend @ bend < EXTRAPOLATE_BEND**2 * (step @ step):
        return oracle.start
    return uc + step + bend


def ground_state(oracle: FockOracle, y: float) -> GroundStateResult:
    """Lowest eigenpair of H(y) by Lanczos on the oracle's sector
    coordinates, started from its last ground state or their extrapolation
    (|0,0> on its first solve; see _start).

    The eigenvector is normalized with its |0,0> amplitude positive; steps
    counts the matvecs across restarts.  A warm solve spends most of its
    steps on rounding noise and takes about as many as the warm solve before
    it, so it skips the checks below the last schedule point under that
    count; the cold first solve and the first warm one check at every point.
    """
    g = oracle.model.g(y)
    e0, u, steps = _lanczos(oracle.sector_operator(g), _start(oracle, g), oracle.warm_steps)
    if oracle.recent:
        oracle.warm_steps = steps
    u /= math.sqrt(u @ u)
    if u[0] < 0:
        u = -u
    oracle.start = u
    oracle.recent = (*oracle.recent[-2:], (g, u))
    return GroundStateResult(E0=e0, vector=u, steps=steps, oracle=oracle, g=g)


def cross_correlation(table: np.ndarray, x: np.ndarray) -> float:
    """<x1 x2> of the state with amplitudes table[n, n']: x1 acts on rows."""
    return float((table * (x @ table @ x)).sum())


def oracle_observables(oracle: FockOracle, gs: GroundStateResult) -> VacuumObservables:
    """Expectation values in a ground state of the oracle."""
    c = gs.amplitudes
    x = oracle.x
    x1x2 = cross_correlation(c, x)
    x1_sq = float(np.sum(c * (x @ x @ c)))
    x2_sq = float(np.sum(c * (c @ x @ x)))
    p = c * c
    n = np.arange(len(c))
    # x+-^2 = (x1^2 + x2^2 +- 2 x1 x2)/2
    return VacuumObservables(
        E_vac=gs.E0,
        x_plus_sq=(x1_sq + x2_sq) / 2.0 + x1x2,
        x_minus_sq=(x1_sq + x2_sq) / 2.0 - x1x2,
        x1x2=x1x2,
        N1=float(n @ p.sum(axis=1)),
        N2=float(n @ p.sum(axis=0)),
    )


def oracle_force(oracle: FockOracle, y: float) -> float:
    """F = -g'(y) <x1 x2> in the numerical ground state."""
    gs = ground_state(oracle, y)
    return -oracle.model.g_prime(y) * oracle.correlation(gs.vector)


def verify_annihilation(expansion: VacuumExpansion, n_max: int) -> float:
    """Residual norm ||a |0~>|| for a = alpha(a1 + a2) + beta(a1' + a2').

    Rows whose occupation touches the basis edge (n or n' = n_max) are
    excluded: raising maps edge states out of the basis, so including them
    would measure truncation rather than the annihilation identity.
    """
    if expansion.N_max > n_max:
        raise TruncationMismatchError(
            f"N_max={expansion.N_max} exceeds basis n_max={n_max}"
        )
    side = n_max + 1
    state = np.zeros((side, side))
    pairs = np.arange(expansion.N_max + 1)
    state[pairs, pairs] = expansion.coefficients
    a = _lowering(n_max)
    # a1 acts on the row index, a2 on the column index
    residual = expansion.alpha * (a @ state + state @ a.T) + expansion.beta * (
        a.T @ state + state @ a
    )
    interior = residual[:n_max, :n_max]
    return float(np.linalg.norm(interior))


def ground_state_structure_checks(result: GroundStateResult) -> StructureReport:
    """Audit the numerical ground-state amplitudes.

    Checks exchange symmetry c[n,n'] = c[n',n] and the vanishing of odd
    total-occupation amplitudes (the interaction changes n + n' by 0 or +-2).
    A ground_state table is unpacked from the sector, so both read exactly 0.
    """
    c = result.amplitudes
    n = np.arange(len(c))
    odd = (n[:, None] + n[None, :]) % 2 == 1
    return StructureReport(
        symmetry_violation=float(np.max(np.abs(c - c.T))),
        odd_parity_mass=float(np.sum(c[odd] ** 2)),
    )


def free_vacuum_correlation(model: ValidatedModel, n_max: int, psi2: np.ndarray) -> float:
    """<x1 x2> in |0_1> (x) |psi2>; zero for any mode-2 state."""
    psi2 = np.asarray(psi2, dtype=float)
    if psi2.shape != (n_max + 1,):
        raise ValueError(f"psi2 must have length {n_max + 1}")
    norm = np.linalg.norm(psi2)
    if not math.isclose(norm, 1.0, rel_tol=1e-9):
        raise ValueError(f"psi2 must be normalized, got ||psi2|| = {norm}")
    table = np.zeros((n_max + 1, n_max + 1))
    table[0] = psi2
    return cross_correlation(table, position_matrix(model, n_max))
