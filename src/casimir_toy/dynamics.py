"""Semiclassical evolution of the heavy coordinate under the vacuum force.

Integrates M y'' = F(y) with velocity-Verlet (leapfrog), where F comes from
one of three routes: the closed-form energy route, the closed-form
fluctuation route, or the truncated-Fock oracle.  The conserved audit
quantity is E_total = p_y^2 / 2M + E_vac(y).  The closed-form routes step on
Python floats through quantum's kernels: one g and one g' per step.
"""

from __future__ import annotations

import time
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from . import fock, quantum
from .model import ValidatedModel

FORCE_ROUTES = ("casimir", "lifshitz", "oracle")

# Projected oracle-route runtime (s) above which evolve warns.
ORACLE_BUDGET_S = 300.0
# Most rows a CSV artifact gets (about 80 MB of spectrum.csv): the bound on
# grid.points and on the step count t_max / dt.
MAX_ROWS = 1_000_000


def step_count(t_max: float, dt: float, dt_name: str = "dt") -> int:
    """Integrator steps to reach t_max, round(t_max / dt); the run ends at
    steps * dt.  ValueError unless dt > 0 and t_max > 0 (nan included), or
    naming t_max and dt_name (its field path) when t_max / dt rounds to 0
    steps or is above MAX_ROWS."""
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if not t_max > 0:
        raise ValueError(f"t_max must be > 0, got {t_max}")
    if not t_max / dt <= MAX_ROWS:
        raise ValueError(
            f"t_max / {dt_name} must be <= {MAX_ROWS} steps, got {t_max} / {dt}"
        )
    steps = int(round(t_max / dt))
    if steps == 0:
        raise ValueError(
            f"t_max / {dt_name} rounds to 0 steps (t_max <= dt / 2), got {t_max} / {dt}"
        )
    return steps


@dataclass(frozen=True)
class DynamicsConfig:
    y0: float
    v0: float
    dt: float
    t_max: float
    force_route: str = "casimir"
    oracle_n_max: int = 20

    def __post_init__(self):
        step_count(self.t_max, self.dt, "dynamics.dt")
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
    """Projected oracle-route runtime exceeds ORACLE_BUDGET_S."""


def _route(model: ValidatedModel, config: DynamicsConfig):
    """The selected route as one function y -> (force, E_vac)."""
    if config.force_route == "oracle":
        # One FockOracle for the run, so each step's Lanczos solve starts
        # from the previous step's ground state (the first from |0,0>).
        oracle = fock.FockOracle(model, config.oracle_n_max)

        def oracle_route(y):
            gs = fock.ground_state(oracle, y)
            return -model.g_prime(y) * oracle.correlation(gs.vector), gs.E0

        return oracle_route
    # evolve has checked y, so g and g' are evaluated once each, unchecked.
    c = model.coupling
    casimir = config.force_route == "casimir"
    force = quantum._casimir_force if casimir else quantum._lifshitz_force

    def closed_form_route(y):
        g = c.value_raw(y)
        return force(model, g, c.derivative_raw(y)), quantum._vacuum_energy(model, g)

    return closed_form_route


def evolve(model: ValidatedModel, config: DynamicsConfig) -> Trajectory:
    """Leapfrog (kick-drift-kick) integration of the heavy coordinate.

    Emits a row per step; stops at t_max or on domain exit (flagged).  When
    force_route='oracle' and the runtime projected after the first step (the
    cold first solve plus the first warm one times the step count) exceeds
    ORACLE_BUDGET_S, an OracleTooSlowWarning is issued once and the
    trajectory is flagged, but the run proceeds.
    """
    c = model.coupling
    c.check_domain(config.y0)
    route = _route(model, config)
    n_steps = step_count(config.t_max, config.dt)
    dt = config.dt
    big_m = model.M

    oracle = config.force_route == "oracle"
    advisory = False
    tic = time.perf_counter()
    f, evac = route(config.y0)
    cold = time.perf_counter() - tic

    y = config.y0
    p = big_m * config.v0
    t = 0.0
    # Rows go into one flat buffer of doubles, about a fifth of the memory
    # of a list of row tuples.
    rows = array("d", (t, y, p, f, evac, p * p / (2 * big_m) + evac))
    exited = False
    # The oracle route takes its first step alone, to time one warm solve:
    # the projected runtime is the cold solve plus that one per step.  The
    # closed-form routes take every step in one loop.
    tic = time.perf_counter()
    for first, last in ((0, 1), (1, n_steps)) if oracle else ((0, n_steps),):
        for _ in range(first, last):
            p_half = p + 0.5 * dt * f
            y_new = y + dt * p_half / big_m
            if not (c.y_min <= y_new <= c.y_max):
                exited = True
                break
            f, evac = route(y_new)
            p = p_half + 0.5 * dt * f
            y = y_new
            t += dt
            rows.extend((t, y, p, f, evac, p * p / (2 * big_m) + evac))
        if exited:
            break
        if oracle and first == 0:
            projected = cold + (time.perf_counter() - tic) * n_steps
            if projected > ORACLE_BUDGET_S:
                advisory = True
                warnings.warn(
                    f"projected oracle-route runtime {projected:.1f}s exceeds "
                    f"budget {ORACLE_BUDGET_S:.1f}s",
                    OracleTooSlowWarning,
                )

    arr = np.frombuffer(rows).reshape(-1, 6)
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
    e0 = trajectory.E_total[0]
    drift = np.abs(trajectory.E_total - e0) / max(abs(e0), 1e-30)
    return float(np.max(drift)), drift
