"""Brute-force oracle in a truncated two-mode Fock basis.

Builds H = hbar omega (N1 + N2 + 1) + g(y) x1 x2 as a dense symmetric matrix
over product states |n, n'> with n, n' <= n_max, diagonalizes it, and exposes
ground-state observables for checking every closed-form result independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

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

    def number(self) -> np.ndarray:
        return np.diag(np.arange(self.n_max + 1, dtype=float))


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


def build_hamiltonian(
    model: ValidatedModel, y: float, basis: TruncatedBasis
) -> OperatorMatrix:
    """Fixed-y effective Hamiltonian in the free product basis."""
    g = model.g(y)
    eye = np.eye(basis.n_max + 1)
    num = basis.number()
    x = position_matrix(model, basis)
    h = model.hbar * model.omega * (
        np.kron(num, eye) + np.kron(eye, num) + np.eye(basis.dim)
    ) + g * np.kron(x, x)
    return OperatorMatrix(matrix=h, basis=basis)


def ground_state(op: OperatorMatrix) -> GroundStateResult:
    """Lowest eigenpair by dense symmetric diagonalization.

    The eigenvector sign is fixed so the |0,0> amplitude is positive.
    """
    h = op.matrix
    try:
        vals, vecs = scipy.linalg.eigh(h, subset_by_index=[0, 0])
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise NoConvergenceError(f"eigensolver failed: {exc}") from exc
    e0 = float(vals[0])
    v = vecs[:, 0]
    if v[0] < 0:
        v = -v
    residual = float(np.linalg.norm(h @ v - e0 * v))
    return GroundStateResult(
        E0=e0, amplitudes=v, residual_norm=residual, n_max=op.basis.n_max
    )


def oracle_observables(
    model: ValidatedModel,
    y: float,
    basis: TruncatedBasis,
    gs: GroundStateResult | None = None,
) -> VacuumObservables:
    """Ground-state expectation values evaluated numerically."""
    if gs is None:
        gs = ground_state(build_hamiltonian(model, y, basis))
    v = gs.amplitudes
    eye = np.eye(basis.n_max + 1)
    x = position_matrix(model, basis)
    num = basis.number()
    x1x2 = float(v @ np.kron(x, x) @ v)
    x1_sq = float(v @ np.kron(x @ x, eye) @ v)
    x2_sq = float(v @ np.kron(eye, x @ x) @ v)
    # x+-^2 = (x1^2 + x2^2 +- 2 x1 x2)/2
    return VacuumObservables(
        E_vac=gs.E0,
        x_plus_sq=(x1_sq + x2_sq) / 2.0 + x1x2,
        x_minus_sq=(x1_sq + x2_sq) / 2.0 - x1x2,
        x1x2=x1x2,
        N1=float(v @ np.kron(num, eye) @ v),
        N2=float(v @ np.kron(eye, num) @ v),
    )


def oracle_force(model: ValidatedModel, y: float, basis: TruncatedBasis) -> float:
    """F = -g'(y) <x1 x2> in the numerical ground state."""
    return -model.g_prime(y) * oracle_observables(model, y, basis).x1x2


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
    state = np.zeros(basis.dim)
    for n, c in enumerate(expansion.coefficients):
        state[basis.index(n, n)] = c
    a = basis.lowering()
    eye = np.eye(side)
    op = expansion.alpha * (np.kron(a, eye) + np.kron(eye, a)) + expansion.beta * (
        np.kron(a.T, eye) + np.kron(eye, a.T)
    )
    residual = (op @ state).reshape(side, side)
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
    vac = np.zeros(basis.n_max + 1)
    vac[0] = 1.0
    state = np.kron(vac, psi2)
    x = position_matrix(model, basis)
    return float(state @ np.kron(x, x) @ state)
