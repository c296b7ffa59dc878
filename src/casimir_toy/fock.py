"""Brute-force oracle in a truncated two-mode Fock basis.

H(y) = hbar omega (N1 + N2 + 1) + g(y) x1 x2 over product states |n, n'>
with n, n' <= n_max.  A FockOracle holds, for one basis, the diagonal of
H0 = hbar omega (N1 + N2 + 1) and the sparse V = x (x) x; ground_state finds
the lowest eigenpair of H0 + g(y) V by sparse Lanczos (ARPACK eigsh).  The
first solve of an oracle starts from |0,0>, each later one from the previous
ground state, so a grid sweep or a trajectory is warm-started and reruns stay
deterministic.  Observables are contracted on the amplitude table c[n, n']
(e.g. <x1 x2> = sum c o (x c x)), never on matrices of side (n_max+1)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg

from .errors import NoConvergenceError, TruncationMismatchError
from .model import ValidatedModel
from .quantum import VacuumExpansion, VacuumObservables


@dataclass(frozen=True)
class TruncatedBasis:
    """Product basis |n, n'> with per-mode cutoff n_max; flat index n*(n_max+1)+n'."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")

    @property
    def dim(self) -> int:
        return (self.n_max + 1) ** 2

    def index(self, n: int, n_prime: int) -> int:
        if not (0 <= n <= self.n_max and 0 <= n_prime <= self.n_max):
            raise IndexError(f"({n}, {n_prime}) outside basis with n_max={self.n_max}")
        return n * (self.n_max + 1) + n_prime

    def occupations(self, idx: int) -> tuple[int, int]:
        return divmod(idx, self.n_max + 1)

    def lowering(self) -> np.ndarray:
        """Single-mode lowering matrix a with a|n> = sqrt(n)|n-1>."""
        return np.diag(np.sqrt(np.arange(1, self.n_max + 1)), k=1)


@dataclass(frozen=True)
class OperatorMatrix:
    matrix: np.ndarray
    basis: TruncatedBasis


@dataclass(frozen=True)
class GroundStateResult:
    E0: float
    amplitudes: np.ndarray
    residual_norm: float
    n_max: int

    def amplitude_table(self) -> np.ndarray:
        """Amplitudes reshaped to c[n, n']."""
        side = self.n_max + 1
        return self.amplitudes.reshape(side, side)

    def edge_mass(self) -> float:
        """Sum of c[n, n']^2 over n = n_max or n' = n_max: the weight on the
        basis edge, a truncation estimate that needs no analytic answer."""
        table = self.amplitude_table()
        return float(np.sum(table[-1, :] ** 2) + np.sum(table[:-1, -1] ** 2))


@dataclass(frozen=True)
class StructureReport:
    symmetry_violation: float
    odd_parity_mass: float
    diagonal_ratios: np.ndarray
    predicted_ratios: np.ndarray


def position_matrix(model: ValidatedModel, basis: TruncatedBasis) -> np.ndarray:
    """Single-mode x = sqrt(hbar/(2 m omega)) (a' + a)."""
    a = basis.lowering()
    return math.sqrt(model.hbar / (2.0 * model.m * model.omega)) * (a + a.T)


class FockOracle:
    """H(y) = H0 + g(y) V on one basis, and where its next solve starts.

    Build one per (model, basis) and pass it to ground_state for every y of a
    sweep: each solve starts from the ground state of the one before.
    """

    def __init__(self, model: ValidatedModel, basis: TruncatedBasis):
        self.model = model
        self.basis = basis
        n = np.arange(basis.n_max + 1, dtype=float)
        h0 = model.hbar * model.omega * (n[:, None] + n[None, :] + 1.0).ravel()
        self.x = position_matrix(model, basis)
        x = sparse.csr_matrix(self.x)
        # H0 is diagonal and V = x (x) x has a zero diagonal, so H(y) has the
        # fixed pattern of H0 + V, and each solve only refills its values.
        self._pattern = (sparse.diags(h0) + sparse.kron(x, x)).tocsr()
        rows = np.repeat(np.arange(basis.dim), np.diff(self._pattern.indptr))
        on_diag = self._pattern.indices == rows
        self._h0_values = np.where(on_diag, self._pattern.data, 0.0)
        self._v_values = np.where(on_diag, 0.0, self._pattern.data)
        self.start = np.zeros(basis.dim)
        self.start[0] = 1.0  # |0,0>

    def hamiltonian(self, y: float) -> sparse.csr_matrix:
        h = self._pattern.copy()
        h.data = self._h0_values + self.model.g(y) * self._v_values
        return h


def build_hamiltonian(
    model: ValidatedModel, y: float, basis: TruncatedBasis
) -> OperatorMatrix:
    """Dense view of the oracle's H(y), for auditing its matrix elements."""
    return OperatorMatrix(
        matrix=FockOracle(model, basis).hamiltonian(y).toarray(), basis=basis
    )


def ground_state(oracle: FockOracle, y: float) -> GroundStateResult:
    """Lowest eigenpair of H(y) by Lanczos, started from the oracle's last
    ground state (|0,0> on its first solve).

    The eigenvector sign is fixed so the |0,0> amplitude is positive.
    """
    h = oracle.hamiltonian(y)
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(h, k=1, which="SA", v0=oracle.start)
    except scipy.sparse.linalg.ArpackError as exc:  # pragma: no cover
        raise NoConvergenceError(f"eigensolver failed: {exc}") from exc
    e0 = float(vals[0])
    v = vecs[:, 0]
    if v[0] < 0:
        v = -v
    oracle.start = v
    residual = float(np.linalg.norm(h @ v - e0 * v))
    return GroundStateResult(
        E0=e0, amplitudes=v, residual_norm=residual, n_max=oracle.basis.n_max
    )


def _x1x2(table: np.ndarray, x: np.ndarray) -> float:
    """<x1 x2> of the state with amplitudes table[n, n']: x1 acts on rows."""
    return float(np.sum(table * (x @ table @ x)))


def oracle_observables(oracle: FockOracle, gs: GroundStateResult) -> VacuumObservables:
    """Expectation values in a ground state of the oracle."""
    c = gs.amplitude_table()
    x = oracle.x
    x1x2 = _x1x2(c, x)
    x1_sq = float(np.sum(c * (x @ x @ c)))
    x2_sq = float(np.sum(c * (c @ x @ x)))
    p = c * c
    n = np.arange(gs.n_max + 1)
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
    return -oracle.model.g_prime(y) * _x1x2(gs.amplitude_table(), oracle.x)


def verify_annihilation(expansion: VacuumExpansion, basis: TruncatedBasis) -> float:
    """Residual norm ||a |0~>|| for a = alpha(a1 + a2) + beta(a1' + a2').

    Rows whose occupation touches the basis edge (n or n' = n_max) are
    excluded: raising maps edge states out of the basis, so including them
    would measure truncation rather than the annihilation identity.
    """
    if expansion.N_max > basis.n_max:
        raise TruncationMismatchError(
            f"N_max={expansion.N_max} exceeds basis n_max={basis.n_max}"
        )
    side = basis.n_max + 1
    state = np.zeros((side, side))
    pairs = np.arange(expansion.N_max + 1)
    state[pairs, pairs] = expansion.coefficients
    a = basis.lowering()
    # a1 acts on the row index, a2 on the column index
    residual = expansion.alpha * (a @ state + state @ a.T) + expansion.beta * (
        a.T @ state + state @ a
    )
    interior = residual[: basis.n_max, : basis.n_max]
    return float(np.linalg.norm(interior))


def ground_state_structure_checks(
    result: GroundStateResult, pair_ratio: float | None = None
) -> StructureReport:
    """Audit the numerical ground-state amplitudes.

    Checks exchange symmetry c[n,n'] = c[n',n], the vanishing of odd
    total-occupation amplitudes (the interaction changes n + n' by 0 or +-2),
    and reports how the diagonal amplitudes c[n,n]/c[0,0] compare with the
    single-branch geometric prediction (if pair_ratio = -beta/alpha is given).
    """
    table = result.amplitude_table()
    symmetry = float(np.max(np.abs(table - table.T)))
    n = np.arange(result.n_max + 1)
    odd = (n[:, None] + n[None, :]) % 2 == 1
    odd_mass = float(np.sum(table[odd] ** 2))
    diag = np.diag(table)
    ratios = diag / diag[0]
    if pair_ratio is None:
        predicted = np.full_like(ratios, np.nan)
    else:
        predicted = pair_ratio ** np.arange(result.n_max + 1)
    return StructureReport(
        symmetry_violation=symmetry,
        odd_parity_mass=odd_mass,
        diagonal_ratios=ratios,
        predicted_ratios=predicted,
    )


def free_vacuum_correlation(
    model: ValidatedModel, basis: TruncatedBasis, psi2: np.ndarray
) -> float:
    """<x1 x2> in |0_1> (x) |psi2>; zero for any mode-2 state."""
    psi2 = np.asarray(psi2, dtype=float)
    if psi2.shape != (basis.n_max + 1,):
        raise ValueError(f"psi2 must have length {basis.n_max + 1}")
    norm = np.linalg.norm(psi2)
    if not math.isclose(norm, 1.0, rel_tol=1e-9):
        raise ValueError(f"psi2 must be normalized, got ||psi2|| = {norm}")
    table = np.zeros((basis.n_max + 1, basis.n_max + 1))
    table[0] = psi2
    return _x1x2(table, position_matrix(model, basis))
