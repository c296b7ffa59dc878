"""Numerical laboratory for a 3-degree-of-freedom Casimir-like toy model.

Two oscillators x1, x2 coupled through g(y) x1 x2, with y a heavy
semiclassical coordinate.  The package evaluates the vacuum force on y
through two independent closed-form routes, exposes the Bogoliubov and
squeezed-vacuum structure of the interacting ground state, verifies every
analytic claim against a truncated-Fock-space diagonalization, and evolves y
under the quantum force.
"""

from .dynamics import DynamicsConfig, evolve
from .fock import (
    FockOracle,
    ground_state,
    oracle_force,
    verify_annihilation,
)
from .model import CouplingSpec, ModelParams, validate
from .quantum import (
    bogoliubov_coefficients,
    casimir_force,
    lifshitz_force,
    squeezed_vacuum_expansion,
    vacuum_energy,
    vacuum_fluctuations,
)

__version__ = "0.1.0"

__all__ = [
    "CouplingSpec",
    "DynamicsConfig",
    "FockOracle",
    "ModelParams",
    "bogoliubov_coefficients",
    "casimir_force",
    "evolve",
    "ground_state",
    "lifshitz_force",
    "oracle_force",
    "squeezed_vacuum_expansion",
    "vacuum_energy",
    "vacuum_fluctuations",
    "validate",
    "verify_annihilation",
]
