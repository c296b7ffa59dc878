"""Semiclassical evolution of the heavy coordinate under the vacuum force.

Integrates M y'' = F(y) with velocity-Verlet (leapfrog), where F comes from
one of three routes: the closed-form energy route, the closed-form
fluctuation route, or the truncated-Fock oracle.  The conserved audit
quantity is E_total = p_y^2 / 2M + E_vac(y).
"""

from __future__ import annotations

import functools
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import fock, quantum
from .errors import EmptyTrajectoryError
from .model import ValidatedModel

FORCE_ROUTES = ("casimir", "lifshitz", "oracle")


@dataclass(frozen=True)
class DynamicsConfig:
    y0: float
    v0: float
    dt: float
    t_max: float
    force_route: str = "casimir"
    oracle_n_max: int = 20
    oracle_budget_s: float = 300.0

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.t_max <= 0:
            raise ValueError(f"t_max must be > 0, got {self.t_max}")
        if self.force_route not in FORCE_ROUTES:
            raise ValueError(
                f"force_route must be one of {FORCE_ROUTES}, got {self.force_route!r}"
            )
        if self.oracle_n_max < 1:
            raise ValueError(f"oracle_n_max must be >= 1, got {self.oracle_n_max}")


@dataclass(frozen=True)
class Trajectory:
    t: np.ndarray
    y: np.ndarray
    p_y: np.ndarray
    F: np.ndarray
    E_vac: np.ndarray
    E_total: np.ndarray
    domain_exited: bool = False
    oracle_advisory: bool = False

    def __len__(self) -> int:
        return len(self.t)


class OracleTooSlowWarning(UserWarning):
    """Projected oracle-route runtime exceeds the configured budget."""


def _route_functions(model: ValidatedModel, config: DynamicsConfig):
    """Return (force(y), vacuum_energy(y)) for the selected route."""
    if config.force_route == "casimir":
        return (
            lambda y: quantum.casimir_force(model, y),
            lambda y: quantum.vacuum_energy(model, y),
        )
    if config.force_route == "lifshitz":
        return (
            lambda y: quantum.lifshitz_force(model, y),
            lambda y: quantum.vacuum_energy(model, y),
        )
    # Oracle route: one FockOracle for the run, so each step's Lanczos solve
    # starts from the previous step's ground state (the first from |0,0>).
    oracle = fock.FockOracle(model, fock.TruncatedBasis(config.oracle_n_max))

    # Cache the (force, energy) pair so each step costs one diagonalization.
    @functools.lru_cache(maxsize=1)
    def oracle_pair(y):
        obs = fock.oracle_observables(oracle, fock.ground_state(oracle, y))
        return -model.g_prime(y) * obs.x1x2, obs.E_vac

    return (lambda y: oracle_pair(y)[0], lambda y: oracle_pair(y)[1])


def evolve(model: ValidatedModel, config: DynamicsConfig) -> Trajectory:
    """Leapfrog (kick-drift-kick) integration of the heavy coordinate.

    Emits a row per step; stops at t_max or on domain exit (flagged).  When
    force_route='oracle' and the projected runtime exceeds the budget, an
    OracleTooSlowWarning is issued and the trajectory is flagged, but the run
    proceeds.
    """
    c = model.coupling
    c.check_domain(config.y0)
    force_fn, evac_fn = _route_functions(model, config)
    n_steps = int(round(config.t_max / config.dt))
    dt = config.dt
    big_m = model.M

    advisory = False
    tic = time.perf_counter()
    f = force_fn(config.y0)
    first_eval = time.perf_counter() - tic
    if config.force_route == "oracle":
        projected = first_eval * 2.0 * n_steps
        if projected > config.oracle_budget_s:
            advisory = True
            warnings.warn(
                f"projected oracle-route runtime {projected:.1f}s exceeds "
                f"budget {config.oracle_budget_s:.1f}s",
                OracleTooSlowWarning,
            )

    y = config.y0
    p = big_m * config.v0
    t = 0.0
    evac = evac_fn(y)
    rows = [(t, y, p, f, evac, p * p / (2 * big_m) + evac)]
    exited = False
    for _ in range(n_steps):
        p_half = p + 0.5 * dt * f
        y_new = y + dt * p_half / big_m
        if not (c.y_min <= y_new <= c.y_max):
            exited = True
            break
        f = force_fn(y_new)
        p = p_half + 0.5 * dt * f
        y = y_new
        t += dt
        evac = evac_fn(y)
        rows.append((t, y, p, f, evac, p * p / (2 * big_m) + evac))

    arr = np.array(rows)
    return Trajectory(
        t=arr[:, 0],
        y=arr[:, 1],
        p_y=arr[:, 2],
        F=arr[:, 3],
        E_vac=arr[:, 4],
        E_total=arr[:, 5],
        domain_exited=exited,
        oracle_advisory=advisory,
    )


def energy_audit(trajectory: Trajectory) -> tuple[float, np.ndarray]:
    """Max relative drift of E_total and the per-row drift series."""
    if len(trajectory) == 0:
        raise EmptyTrajectoryError("trajectory has no rows")
    e0 = trajectory.E_total[0]
    drift = np.abs(trajectory.E_total - e0) / max(abs(e0), 1e-30)
    return float(np.max(drift)), drift
