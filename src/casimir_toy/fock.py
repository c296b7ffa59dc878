"""Brute-force oracle in a truncated two-mode Fock basis.

H(y) = hbar omega (N1 + N2 + 1) + g(y) x1 x2 over product states |n, n'>
with n, n' <= n_max.  With x = sqrt(hbar/(m omega)) X, X = (a + a')/sqrt 2,
H/(hbar omega) = N1 + N2 + 1 + u X1 X2 at u = g(y)/k.  The oracle solves that,
which depends on n_max alone, and applies the model's scales once each: E0 =
hbar omega theta_0, <x1 x2> = hbar/(m omega) <X1 X2>, and the residual is
hbar omega times the dimensionless one.  H commutes with mode exchange and
with the parity of n + n' (X changes n by +-1), so its ground state lies in
the exchange-symmetric, even-parity sector: the pairs n <= n' with n + n'
even, held as orthonormal coordinates v = w c[n, n'] (w = sqrt 2 off the
diagonal, 1 on it) of the amplitude table c[n, n'].  The sector has
d = (n_max+2)^2 // 4 coordinates (121 at n_max = 20, 441 at 40) against
(n_max+1)^2 table entries, and _sector builds H/(hbar omega) on it once per
n_max as a five-row stencil: the diagonal D = n + n' + 1 and the
W = X (x) X couplings to (n+-1, n'+-1); no matrix of side (n_max+1)^2 is
built.  Below |u| = SERIES_MAX_U = 0.5 ground_state sums the weak-coupling
series of D + u W about |0,0>, whose coefficients of u^n are built once per
n_max (_series): 51 of them from n_max 9 up, the one of order n zero outside
the pairs with max(n, n') <= n, so they are held on the pairs up to a cutoff
of 50 at most.  Such a solve takes no start vector and no matvec.  A force
and an E_vac come from one function per oracle, FockOracle.force_route,
which the oracle route of dynamics.evolve steps with and oracle_force reads;
it needs no state below |u| = POLYNOMIAL_MAX_U = 0.9: E0/(hbar omega) =
theta_0(u) = sum e_n u^n and, by Hellmann-Feynman, <X1 X2> = theta_0'(u),
from the coefficients the same builder gives to 0.9 (_series at that cut),
held per cutoff as short polynomials in w = u^2 over cells of w
(_force_table) and summed by Horner in Python floats once per u, so a
constant-g trajectory sums them once.  At
the strong-coupling end, |u| >= 0.5 for a state and |u| >= 0.9 for a force,
ground_state finds the lowest eigenpair by thick-restart Lanczos with full
reorthogonalization (numpy only) on v, in a basis of at most 24 vectors that
restarts from its 8 lowest Ritz vectors.  The first solve of an oracle starts
from the Rayleigh-Ritz vector of the span of the 0.5 series' state terms at u
(_subspace: one eigh of at most 51 x 51; at n_max 40 it took 2-18 steps
where |0,0> took 40-78 at g/k 0.5-0.8, and 72 against 120 at 0.9), each later
one from the previous ground state, or from the quadratic extrapolation of
the last three to the new u where that is safe, plus the cubic term from a
fourth where that term is above the stored states' rounding noise, 4
RITZ_TOL (together 0.34-0.82 of the plain start's steps on slow trajectories
at g/k 0.6-0.9; see EXTRAPOLATE_BEND), so a grid sweep or a trajectory is
warm-started and reruns stay deterministic.  A solve at the last solve's u
reuses it, so a constant-g trajectory solves once.
A GroundStateResult holds v; its amplitude table, and the residual measured
with the full-table (N1 + N2 + 1) o c + u X c X (FockOracle.apply), are
computed on first read.  <x1 x2> comes from the stencil
(FockOracle.correlation); the other observables are contracted on the table.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import NoConvergenceError
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
    """E0 and the sector coordinates v of a ground state of oracle's H at
    u = g/k; the amplitude table and the residual are computed on first
    read."""

    E0: float
    vector: np.ndarray
    steps: int  # matvecs, across Lanczos restarts; 0 on a reuse or a series solve
    oracle: FockOracle = field(repr=False)
    u: float

    @functools.cached_property
    def amplitudes(self) -> np.ndarray:
        """The amplitude table c[n, n'] of the ground state."""
        return self.oracle.table(self.vector)

    @functools.cached_property
    def residual_norm(self) -> float:
        """||H c - E0 c|| = hbar omega ||H/(hbar omega) c - E0/(hbar omega) c||
        by the full-table apply, so it audits the sector stencil too."""
        c, scale = self.amplitudes, self.oracle.hbar_omega
        r = self.oracle.apply(self.u, c).ravel()
        r -= self.E0 / scale * c.ravel()
        return scale * math.sqrt(r @ r)

    def edge_mass(self) -> float:
        """Sum of c[n, n']^2 over n = n_max or n' = n_max: the weight on the
        basis edge, a truncation estimate that needs no analytic answer."""
        c = self.amplitudes
        return float(np.sum(c[-1, :] ** 2) + np.sum(c[:-1, -1] ** 2))


@dataclass(frozen=True)
class StructureReport:
    symmetry_violation: float
    odd_parity_mass: float


@functools.cache
def _sector(n_max: int):
    """The sector of every FockOracle at n_max, built once and read-only.

    Returns the sector pairs (n, m), n <= m, n + m even, (0, 0) first; their
    weights w; the stencil columns (row 0 the pair itself, rows 1-4 the
    coordinate of (n + a, m + b) for (a, b) = (1, 1), (1, -1), (-1, 1),
    (-1, -1), mapped back to n <= m); and the stencil (row 0 n + m + 1, rows
    1-4 X[n, n + a] X[m, m + b] w_i / w_j).
    """
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
    hop = np.pad(math.sqrt(0.5) * np.sqrt(np.arange(1, n_max + 1)), 1)  # hop[k] = X[k - 1, k]
    hops = hop[n + (a + 1) // 2] * hop[m + (b + 1) // 2] * (weight / weight[cols])
    stencil = np.vstack([n + m + 1.0, hops])
    cols = np.vstack([np.arange(n.size), cols])
    for array in (n, m, weight, cols, stencil):
        array.flags.writeable = False
    return (n, m), weight, cols, stencil


class FockOracle:
    """H(y)/(hbar omega) = N1 + N2 + 1 + u(y) X1 X2 for n, n' <= n_max, the
    model's two scales, where its next solve starts, and its force route.

    Build one per (model, n_max) and pass it to ground_state for every y of a
    sweep: each solve starts from the ground state of the one before.  Its
    force_route gives (F, E_vac) for every y of a run.
    """

    def __init__(self, model: ValidatedModel, n_max: int):
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        self.model = model
        self.n_max = n_max
        self.pairs, self.weight, self.cols, self.stencil = _sector(n_max)
        self.hbar_omega = model.hbar * model.omega
        self.length_sq = model.hbar / (model.m * model.omega)  # x = sqrt(length_sq) X
        # recent: (u, v) of the last four ground states at most, oldest
        # first, for the extrapolated start (see _start); empty until the
        # first solve, which is cold.  e0: the last solve's E0, which a solve
        # at the same u reuses.  warm_steps: the step count of the last warm
        # solve (0 before one), below which the next solve skips checks (see
        # ground_state).
        self.recent = ()
        self.e0 = math.nan
        self.warm_steps = 0
        # formulas: the coupling family's one (g, g') formula, bound once and
        # called once per force_route step; cells: the (edges, cells) of
        # _force_table, read on force_route's first sum; sums: the u,
        # theta_0 and theta_0' of its last sum.
        self.formulas = model.coupling._formulas()
        self.cells = None
        self.sums = (math.nan, 0.0, 0.0)

    def apply(self, u: float, c: np.ndarray) -> np.ndarray:
        """H/(hbar omega) at g/k = u applied to amplitude tables c[..., n, n']:
        (n + n' + 1) c + u X c X, X1 on the rows and X2 on the columns.  X is
        tridiagonal, X[k - 1, k] = X[k, k - 1] = sqrt(k/2), so each product is
        two shifted slices of the last two axes and no table of X is built."""
        hop = math.sqrt(0.5) * np.sqrt(np.arange(1.0, self.n_max + 1))
        levels = np.arange(self.n_max + 1.0)
        xc = np.zeros_like(c)
        xc[..., 1:, :] = hop[:, None] * c[..., :-1, :]
        xc[..., :-1, :] += hop[:, None] * c[..., 1:, :]
        xcx = np.zeros_like(c)
        xcx[..., 1:] = xc[..., :-1] * hop
        xcx[..., :-1] += xc[..., 1:] * hop
        return (levels[:, None] + levels + 1.0) * c + u * xcx

    def sector_operator(self, u: float):
        """H/(hbar omega) at u on sector coordinates v, as a function of v."""
        vals = self.stencil * np.array([1.0, u, u, u, u])[:, None]
        cols = self.cols
        return lambda v: (vals * v[cols]).sum(0)

    def correlation(self, v: np.ndarray) -> float:
        """<x1 x2> = hbar/(m omega) v . (W v) of normalized sector
        coordinates v, with W = X (x) X on rows 1-4 of the stencil."""
        return self.length_sq * float(v @ (self.stencil[1:] * v[self.cols[1:]]).sum(0))

    def table(self, v: np.ndarray) -> np.ndarray:
        """The amplitude table c[n, n'] of sector coordinates v."""
        c = np.zeros((self.n_max + 1, self.n_max + 1))
        n, m = self.pairs
        c[n, m] = c[m, n] = v / self.weight
        return c

    def force_route(self, y: float) -> tuple[float, float]:
        """(F, E_vac) = (-g'(y) <x1 x2>, E0) in the ground state at a y that
        the caller has checked against the coupling domain: the oracle's
        one force route, which dynamics.evolve steps with and oracle_force
        reads.  Below |u| = POLYNOMIAL_MAX_U it reads no state: theta_0 and
        theta_0' = <X1 X2> = u s come from one Horner pass over the pairs of
        the _force_table cell of w = u^2, in d = w - c, read on the first
        such y (cells), and the last u's sums (sums) are reused while u is
        unchanged bit for bit, so a constant coupling sums them once; the
        oracle's solves are left as they are.  Else F and E_vac come from
        ground_state and the stencil contraction of its vector."""
        g, g_prime = self.formulas(self.model.coupling, y, math)
        u = g / self.model.k
        if abs(u) < POLYNOMIAL_MAX_U:
            if u != self.sums[0]:
                if self.cells is None:
                    self.cells = _force_table(self.n_max, POLYNOMIAL_MAX_U)
                edges, cells = self.cells
                w = u * u
                c, pairs = cells[bisect_right(edges, w) - 1]
                d = w - c
                theta = s = 0.0
                for a, b in pairs:
                    theta = theta * d + a
                    s = s * d + b
                self.sums = (u, theta, u * s)
            _, theta, slope = self.sums
            return -g_prime * (self.length_sq * slope), self.hbar_omega * theta
        gs = ground_state(self, y)
        return -g_prime * self.correlation(gs.vector), gs.E0


def build_hamiltonian(model: ValidatedModel, y: float, n_max: int) -> OperatorMatrix:
    """Dense view of the oracle's H(y), for auditing its matrix elements:
    column j is hbar omega times the oracle's apply on basis state
    j = n*(n_max+1)+n'."""
    side = n_max + 1
    dim = side * side
    units = np.eye(dim).reshape(dim, side, side)
    oracle = FockOracle(model, n_max)
    columns = oracle.hbar_omega * oracle.apply(model.g(y) / model.k, units)
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
# (Wu & Simon, SIAM J. Matrix Anal. Appl. 22, 602 (2000)).  n_max = 40
# solves from |0,0> at g/k = 0.5, 0.9 and 0.99 took 63, 120 and 184 steps
# against 63, 121 and 151 unrestarted, in 1.8, 3.2 and 4.7 ms against 3.7,
# 7.7 and 11.2 (one BLAS thread, 2-vCPU Xeon); 16/6, 32/10 and 40/12 were no
# faster.
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


# A Lanczos solve starts from the quadratic extrapolation q of the last three
# ground states to the new u = g/k (the predictor of predictor-corrector
# continuation: Allgower & Georg, Numerical Continuation Methods, 1990) when
# the three u differ and ||q - l|| < EXTRAPOLATE_BEND ||l - v_c||, l the linear
# extrapolation from the last two; otherwise from the last ground state.
# With a fourth stored state, q gains the cubic term t of the Newton form when
# EXTRAPOLATE_CUBIC_MIN < ||t|| < EXTRAPOLATE_BEND ||l - v_c||.
# Where Lanczos runs (g/k 0.5 and up), on 200-step runs of dt 0.05 at n_max
# 12 and 20, g/k 0.6-0.9 (exponential family, g0 0.95): from rest or with y
# moving 1.5e-4 lambda per step, q takes 0.53-0.91 of the plain start's steps
# and t 0.63-0.95 of q's, together 0.34-0.82; with y moving 5e-4 per step,
# q 0.82-1.00 and t 0.70-1.00 (no saving at g/k 0.9); from 1.5e-3 per step
# (g moving 0.15% or more) the bend test keeps the plain start and the steps
# are the plain start's, bit for bit.  On force-curve grids the ratio is
# larger still: an 11-point grid from g/k 0.52 to 0.95 (g moving 6% between
# points) keeps the plain start (664 steps at n_max 28).  The two cuts were
# set when Lanczos also solved g/k 0.03-0.4: a bound of 1e-2 took 322 steps
# against 317 on the reference sweep at n_max 28; below the lower cut t is
# rounding noise of the stored states (with no cut the steps rose by 2-4%
# against q, with 1 RITZ_TOL 30-60% of the gain was lost, 2 RITZ_TOL took more
# steps than q from rest at g/k 0.03 and 0.1, and 16 up to 2.9% more than 4).
EXTRAPOLATE_BEND = 1e-3
EXTRAPOLATE_CUBIC_MIN = 4 * RITZ_TOL


def _start(oracle: FockOracle, u: float) -> np.ndarray:
    """Where the Lanczos solve at u = g/k starts: on the oracle's first
    solve, the Ritz vector Q c of the state terms' span (_subspace), c the
    lowest eigenvector of Q^T D Q + u Q^T W Q; after it the quadratic
    extrapolation (Newton form) of the last three of oracle.recent to u, plus
    the cubic term from a fourth, where the rules above allow them, else the
    last ground state."""
    if not oracle.recent:
        q, (d, w), at = _subspace(oracle.n_max, SERIES_MAX_U)
        start = np.zeros(oracle.weight.size)
        start[at] = q @ np.linalg.eigh(d + u * w)[1][:, 0]
        return start
    if len(oracle.recent) < 3:
        return oracle.recent[-1][1]
    *older, (ua, va), (ub, vb), (uc, vc) = oracle.recent
    if ua == ub or ub == uc or ua == uc:
        return vc
    step = (u - uc) / (uc - ub) * (vc - vb)
    slope = (va - vb) / (ua - ub)
    curve = slope - (vb - vc) / (ub - uc)  # (ua - uc) times f[a, b, c]
    bend = (u - uc) * (u - ub) / (ua - uc) * curve
    if not bend @ bend < EXTRAPOLATE_BEND**2 * (step @ step):
        return vc
    start = vc + step + bend
    if older and older[0][0] not in (ua, ub, uc):
        ((uz, vz),) = older
        cubic = (u - uc) * (u - ub) * (u - ua) / (uz - uc) * (
            ((vz - va) / (uz - ua) - slope) / (uz - ub) - curve / (ua - uc)
        )
        if EXTRAPOLATE_CUBIC_MIN**2 < cubic @ cubic < EXTRAPOLATE_BEND**2 * (step @ step):
            start += cubic
    return start


# Below |g/k| = SERIES_MAX_U = 0.5 a solve sums the Rayleigh-Schroedinger
# series about |0,0> (_series) in place of Lanczos, whose stop rule bounds
# <x1 x2> only to RITZ_TOL / (g/k) relative (below RITZ_TOL a solve stopped at
# |0,0> with <x1 x2> = 0) and whose result depends on its start.  The series
# has no start, and its stop is relative to its first-order term, which sets
# <x1 x2>: from g/k 1e-300 to the cut, E0 within 0.52 RITZ_TOL of the
# extended-precision Rayleigh quotient of a dense eigenvector, and <x1 x2>
# within 4.4 RITZ_TOL of the closed form where truncation is nil (Lanczos: 0.51
# and 6.2, n_max 12-40, g/k 3e-3 to 0.49).  A solve along a force-curve sweep
# at g/k 0.3 takes 24-34 us against 190-640 us by warm Lanczos (n_max 12-40).
# At the cut the build takes 51 terms from n_max 9 up (26 at n_max 1, where
# every even order is 0).  The series itself converges further (to dense eigh
# at g/k 0.98 at every n_max tried, 1-40), but its state terms to 0.9 would
# still reach cutoff 304 (57 MB from n_max 304 up; the 2n + 1 rule spares only
# the energies), so the state path's cut stays at 0.5.  Above it the kept
# terms still serve: the first Lanczos solve of an oracle starts from their
# Ritz vector (_start), whose relative residual at n_max 40 is at most 1.2e-14
# up to g/k 0.8 and 5e-10 at 0.9; the reference oracle-check sits at g/k 0.5
# exactly and takes 2 steps, where it took 63 from |0,0>.
SERIES_MAX_U = 0.5

# Below |g/k| = POLYNOMIAL_MAX_U = 0.9 a force or an E_vac reads no state: by
# Hellmann-Feynman (exact for an eigenpair of the truncated H) <X1 X2> =
# theta_0'(u), so FockOracle.force_route sums theta_0 = sum e_n u^n and its
# derivative from the energy coefficients of _series to 0.9, whose build holds
# its terms on cutoff 152 at most (14 MB while it is built) and keeps none.
# The build converges at every n_max from 1 to 64 and at 999: 42 terms at
# n_max 1, 263 at 12, 305 from 34 up.  Against dense eigh of the sector,
# theta_0 and theta_0' agree within 2e-14 relative at n_max 1-40 up to the
# cut.  Summed from _force_table's cells in Python floats they take 0.8-2.0
# us a call (n_max 12-40; 3.3-5.4 us as one numpy sum in u), so an
# oracle-route evolve step takes 2.1-2.3 us where g changes and 0.8-1.0 us at
# constant g, whose sums it reuses, against 2.1 us by the casimir route and
# 200-330 us by warm Lanczos (g/k 0.7-0.8, n_max 12 and 20, one BLAS thread,
# 2-vCPU Xeon).  No state is kept below the cut, so the first Lanczos solve
# above it starts as on a fresh oracle (_start).  Past the cut the series
# needs 1437 terms at g/k 0.98 (n_max 40), and Lanczos serves.
POLYNOMIAL_MAX_U = 0.9

# From w = u^2 = 1/4 up, _force_table's cells have edges at 1 - w <-
# CELL_SHRINK (1 - w), each half-width 1/9 of its center's distance to the
# branch point at w = 1 or less, so the series re-expanded about the center
# falls about 10-fold per order: a cell keeps at most 16 orders (n_max 1-40)
# of the CELL_ORDERS computed, the last below 2e-22 of the first.  (Summed
# about w = 0 alone they took 6.8-7.8 us a call at g/k 0.55-0.85.)
CELL_SHRINK = 0.8
CELL_ORDERS = 24


@functools.cache
def _series(n_max: int, u_max: float, states: bool):
    """The Rayleigh-Schroedinger series of H/(hbar omega) = D + u W about
    |0,0> (London's picture of the van der Waals energy, Z. Phys. 63, 245
    (1930)) in intermediate normalization: the ground state is
    sum_n u^n b_n and theta_0 = sum_n u^n e_n, with b_0 = |0,0>, e_0 = 1,
    e_n = (W b_{n-1})[0] and (D - 1) b_n = sum_{k<n} e_k b_{n-k} - W b_{n-1},
    b_n[0] = 0.  Neither depends on u, so one stencil matvec and one product
    with the terms before it per order build them once, until two consecutive
    terms u_max^n ||b_n|| are at most RITZ_TOL times the first-order one (at
    n_max = 1 every even order is exactly 0).

    W moves each mode by one quantum, so b_n is zero outside the pairs with
    max(n, n') <= n, and on a cutoff c it is that of every larger cutoff, bit
    for bit, on the pairs up to c - j while n <= c + j + 1 (a neighbour past
    c adds an exact 0): the state terms through order c and, e_n reading
    b_{n-1} at (1, 1) alone, the energies through 2c + 1 (Wigner's 2n + 1
    rule).  So the build runs on cutoff min(n_max, 64), then on min(n_max,
    max(kept - 1, k // 2)) until its last order k is at most 2c + 1 and the
    kept state orders at most c: with states, the orders ground_state sums
    below u_max; without, none (a force reads the energies alone, and the
    build to 0.9 runs on cutoff 152 from n_max 152 up, 14 MB).  The table of
    terms doubles by adding a block as long as itself, never copied or
    resized, so its peak is its last table (at 0.9 and n_max 40, 512 rows of
    441 coordinates, 1.8 MB) under a profiler or a tracer too; summing the
    product with the earlier terms block by block moved energies of order
    65 and up by rounding (n_max 3-64) against one product on one table.

    Returns (orders, coefficients, counts, terms, at), arrays read-only:
    coefficients[0] = e_n and coefficients[1] = (n + 1) e_{n+1}, so both rows
    times u^orders give theta_0 and theta_0' = <X1 X2>; counts[j] is how many
    orders to sum at 2^-(j+1) <= |u| < 2^-j (j = 0 at |u| >= 0.5), the last
    also below (see _order_count); terms the kept b_n, C-contiguous, on the
    pairs they reach, at coordinates at of n_max's sector.  A count is the
    least one, at least 3, whose left-out terms |n e_n| u^(n-1) add up to at
    most RITZ_TOL |theta_0'| at the top of its range (u_max at j = 0), where
    they are largest: so g/k 1e-9 sums 3 orders, and no power underflows.
    Raises NoConvergenceError when a term at u_max is above the first-order
    one, u_max being past the series' radius (at small cutoffs the terms
    oscillate, so a test against the term two orders before fires on series
    that converge).
    """
    cutoff, rows = min(n_max, 64), 64
    while True:
        (n, m), _, cols, stencil = _sector(cutoff)
        gap = stencil[0] - 1.0  # n + n': 0 at |0,0> alone, else at least 2
        inverse = np.divide(1.0, gap, out=np.zeros_like(gap), where=gap > 0)
        blocks, starts = [np.zeros((rows, n.size))], [0]  # b_n: row n - start of its block
        term = blocks[0][0]
        term[0] = 1.0  # b_0 = |0,0>
        energies, sizes = [1.0], [1.0]
        while len(sizes) < 3 or not sizes[-2] + sizes[-1] <= RITZ_TOL * sizes[1]:
            if len(sizes) > 2 and not sizes[-1] <= sizes[1]:
                raise NoConvergenceError(
                    f"the weak-coupling series at g/k = {u_max:.3e}, n_max = {n_max} "
                    f"does not converge: term {len(sizes) - 1} is {sizes[-1]:.3e} "
                    f"against {sizes[1]:.3e} at first order"
                )
            k = len(energies)
            if k == rows:
                # a new block as long as the table doubles it: no block is
                # copied (a copy beside the old table would raise the peak)
                # or resized (numpy refuses while a profiler or a tracer
                # holds a reference to the array)
                blocks.append(np.zeros((rows, n.size)))
                starts.append(rows)
                rows *= 2
            w = (stencil[1:] * term[cols[1:]]).sum(0)  # W b_{n-1}
            energies.append(float(w[0]))
            mixed = np.array(energies[k - 1:0:-1])  # e_{k-1} ... e_1 against b_1 ... b_{k-1}
            total = 0.0
            for start, block in zip(starts, blocks):
                if start < k:
                    first, last = max(start, 1), min(start + len(block), k)
                    total = total + mixed[first - 1:last - 1] @ block[first - start:last - start]
            term = blocks[-1][k - starts[-1]]
            term[:] = (total - w) * inverse
            sizes.append(u_max**k * math.sqrt(term @ term))
        orders = np.arange(k + 1)
        coefficients = np.vstack([energies, np.append(orders[1:] * energies[1:], 0.0)])
        counts = []
        while not counts or counts[-1] > 3:
            slope = min(0.5 ** len(counts), u_max) ** orders[:-1] * coefficients[1, :-1]
            left_out = np.cumsum(np.abs(slope[::-1]))[::-1]  # over n >= 1 + index
            fits = np.flatnonzero(left_out <= RITZ_TOL * abs(slope.sum()))
            counts.append(max(3, int(fits[0]) + 1 if fits.size else k + 1))
        kept = _order_count(counts, math.nextafter(u_max, 0.0)) if states else 0
        if cutoff == n_max or (kept <= cutoff + 1 and k <= 2 * cutoff + 1):
            break
        cutoff, rows = min(n_max, max(kept - 1, k // 2)), k + 1
        del blocks, term  # the next build's table is not allocated beside this one
    reached = m < kept
    big_n, big_m = _sector(n_max)[0]
    at = np.searchsorted(big_n * (n_max + 1) + big_m, n[reached] * (n_max + 1) + m[reached])
    terms = np.concatenate([block[:max(kept - start, 0)] for start, block in zip(starts, blocks)])
    series = orders, coefficients, tuple(counts), np.ascontiguousarray(terms[:, reached]), at
    for array in (orders, coefficients, series[3], at):
        array.flags.writeable = False
    return series


@functools.cache
def _force_table(n_max: int, u_max: float):
    """theta_0 and theta_0'/u as short polynomials in w = u^2 over cells of
    0 <= w < u_max^2, from the energies of _series to u_max (every odd one
    is exactly 0): theta_0 = sum_k A_k w^k, A_k = e_2k, and theta_0'/u =
    2 dtheta_0/dw.  Below w = 1/4 a cell per octave of u (counts' entries
    j >= 1) is centered at 0 with its count's even orders: a_k = A_k and
    b_k = 2(k + 1) A_{k+1}.  From 1/4 up (see CELL_SHRINK) the series is
    re-expanded about each cell's center c, all cells at once per order:
    a_j = sum_k C(k, j) A_k c^(k-j), b_j = 2(j + 1) a_{j+1}; through order
    2 n_max + 1 every A_k with k >= 1 is negative, so the sums do not
    cancel.  Such a cell keeps the fewest orders whose left-out terms at its
    far edge add up to at most RITZ_TOL times the first, in both rows.

    Returns (edges, cells): the cell of w is cells[bisect_right(edges, w) -
    1], (c, ((a_j, b_j), ...)) in Python floats, highest order first, so
    theta_0 = sum_j a_j (w - c)^j and theta_0'/u = sum_j b_j (w - c)^j by
    Horner.  Built in 0.4-0.5 ms, once the series is.
    """
    def cell(c, size, a, b):
        return c, tuple(zip(a[size - 1::-1].tolist(), b[size - 1::-1].tolist()))

    coefficients, counts = _series(n_max, u_max, False)[1:3]
    even = np.append(coefficients[0, ::2], 0.0)  # e_0, e_2, ...; 0 past the last order
    a, b = even[:-1], 2.0 * np.arange(1, even.size) * even[1:]
    octaves = range(len(counts) - 1, 0, -1)  # lowest first
    cells = [cell(0.0, (counts[j] + 1) // 2, a, b) for j in octaves]
    edges = [0.25 ** (j + 1) if j < len(counts) - 1 else 0.0 for j in octaves]
    bounds = [0.25]
    while bounds[-1] < u_max * u_max:
        bounds.append(min(1.0 - CELL_SHRINK * (1.0 - bounds[-1]), u_max * u_max))
    low, high = np.array(bounds[:-1]), np.array(bounds[1:])
    center, half = (low + high) / 2, (high - low) / 2
    orders = min(CELL_ORDERS, even.size - 1)
    powers = center[:, None] ** np.arange(even.size - 1)
    weights = even[:-1].copy()  # C(k, j) A_k at order j
    shifted = np.empty((center.size, orders))
    for j in range(orders):
        shifted[:, j] = (powers[:, :weights.size - j] * weights[j:]).sum(1)
        weights[j:] *= np.arange(weights.size - j) / (j + 1)
    a, b = shifted[:, :-1], 2.0 * np.arange(1, orders) * shifted[:, 1:]
    reach = half[:, None] ** np.arange(orders - 1)
    fits = True
    for row in (a, b):
        left_out = np.cumsum(np.abs(row * reach)[:, ::-1], axis=1)[:, ::-1]
        fits = fits & (left_out <= RITZ_TOL * np.abs(row[:, :1]))
    cells += map(cell, center.tolist(), (~fits).sum(1), a, b)
    return tuple(edges + bounds[:-1]), tuple(cells)


def _order_count(counts, u: float):
    """The orders of a _series to sum at u, |u| < 1 (the fewest at u = 0):
    the entry of counts that serves u."""
    return counts[min(-math.frexp(u)[1], len(counts) - 1)] if u else counts[-1]


@functools.cache
def _subspace(n_max: int, u_max: float):
    """The Rayleigh-Ritz pencil of the state terms that ground_state sums
    below u_max (Parlett, The Symmetric Eigenvalue Problem, 1980): an
    orthonormal basis Q of their span, by Householder QR (orthonormal to
    rounding however the terms are graded, zero terms included), on the pairs
    they reach, which are the sector of cutoff min(n_max, len(terms) - 1);
    the projections Q^T D Q and Q^T W Q of H/(hbar omega) = D + u W; and
    those pairs' coordinates in n_max's sector (_series' at).  Read-only.  Q
    is at most 676 x 51 doubles (276 kB), and W Q is summed one stencil row
    at a time: the build's traced peak is 4.3 times Q (1.2 MB at n_max 999).
    """
    terms, at = _series(n_max, u_max, True)[3:]
    _, _, cols, stencil = _sector(min(n_max, len(terms) - 1))
    q = np.linalg.qr(terms.T)[0]
    wq = stencil[1, :, None] * q[cols[1]]
    for row in range(2, 5):
        wq += stencil[row, :, None] * q[cols[row]]
    # einsum, not a BLAS product: q.T @ (D q) rounds differently under two
    # OpenBLAS threads than under one, and moved oracle-check's bits at
    # n_max 40 (g/k 0.5, 0.7 and 0.95).  The QR, the 51 x 51 eigh and Q c in
    # _start read the same bits under both at n_max 13-999; the Lanczos
    # steps after the start do not above about n_max 100 (README).
    pencil = np.einsum("ia,ib->ab", q, stencil[0, :, None] * q), np.einsum("ia,ib->ab", q, wq)
    for array in (q, *pencil):
        array.flags.writeable = False
    return q, pencil, at


def ground_state(oracle: FockOracle, y: float) -> GroundStateResult:
    """Lowest eigenpair of H(y) on the oracle's sector coordinates: below
    |u| = SERIES_MAX_U by the weak-coupling series (_series, summed over the
    orders it counts at u), which takes no start and no matvec
    (steps = 0), else by Lanczos, started from the last ground state or their
    extrapolation (on the first solve from the Ritz vector of the series'
    state terms; see _start).  At the u = g/k of its last solve, bit for bit,
    it returns that solve's E0 and vector with steps = 0 and leaves the oracle
    as it is: that H already met the stop rule.

    The eigenvector is normalized with its |0,0> amplitude positive; steps
    counts the matvecs across restarts.  A warm Lanczos solve spends most of
    its steps on rounding noise and takes about as many as the warm solve
    before it, so it skips the checks below the last schedule point under
    that count; the cold first solve and the first warm one check at every
    point.
    """
    u = oracle.model.g(y) / oracle.model.k
    if oracle.recent and oracle.recent[-1][0] == u:
        v = oracle.recent[-1][1]
        return GroundStateResult(E0=oracle.e0, vector=v, steps=0, oracle=oracle, u=u)
    if abs(u) < SERIES_MAX_U:
        orders, coefficients, counts, terms, at = _series(oracle.n_max, SERIES_MAX_U, True)
        count = _order_count(counts, u)
        powers = u ** orders[:count]
        theta, v, steps = float(powers @ coefficients[0, :count]), np.zeros(oracle.weight.size), 0
        v[at] = powers @ terms[:count]
    else:
        theta, v, steps = _lanczos(oracle.sector_operator(u), _start(oracle, u), oracle.warm_steps)
        if oracle.recent:
            oracle.warm_steps = steps
    v /= math.sqrt(v @ v)
    if v[0] < 0:
        v = -v
    oracle.recent = (*oracle.recent[-3:], (u, v))
    oracle.e0 = oracle.hbar_omega * theta
    return GroundStateResult(E0=oracle.e0, vector=v, steps=steps, oracle=oracle, u=u)


def oracle_observables(gs: GroundStateResult) -> VacuumObservables:
    """E0, <x1 x2> and <N1> in a ground state of its oracle.  Its table is
    exchange-symmetric (c = c^T exactly), so <N2> = <N1>."""
    c = gs.amplitudes
    n = np.arange(len(c))
    return VacuumObservables(
        E_vac=gs.E0,
        x1x2=gs.oracle.correlation(gs.vector),  # the <x1 x2> of oracle_force above the cut
        N1=float(n @ (c * c).sum(axis=1)),
    )


def oracle_force(oracle: FockOracle, y: float) -> float:
    """F = -g'(y) <x1 x2> in the numerical ground state at y, checked
    against the coupling domain (FockOracle.force_route)."""
    oracle.model.coupling.check_domain(y)
    return oracle.force_route(y)[0]


def verify_annihilation(expansion: VacuumExpansion, n_max: int) -> float:
    """Residual norm ||a |0~>|| for a = alpha(a1 + a2) + beta(a1' + a2').

    Rows whose occupation touches the basis edge (n or n' = n_max) are
    excluded: raising maps edge states out of the basis, so including them
    would measure truncation rather than the annihilation identity.
    """
    if expansion.N_max > n_max:
        raise ValueError(f"N_max={expansion.N_max} exceeds basis n_max={n_max}")
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
