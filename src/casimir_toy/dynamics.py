"""Semiclassical evolution of the heavy coordinate under the vacuum force.

Integrates M y'' = F(y) with velocity-Verlet (leapfrog), where F comes from
one of three routes: the closed-form energy route, the closed-form
fluctuation route, or the truncated-Fock oracle.  The conserved audit
quantity is E_total = p_y^2 / 2M + E_vac(y).  The closed-form routes step on
Python floats through quantum's kernels, one (g, g') call per step; E_vac
and E_total are taken from the g column after the loop.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from . import fock, quantum
from .model import ValidatedModel

FORCE_ROUTES = ("casimir", "lifshitz", "oracle")

# Most rows a CSV artifact gets (about 80 MB of spectrum.csv): the bound on
# grid.points, on t_max / dt and on the entries of an oracle's (n_max + 1)^2 table.
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


def _check_cutoff(n_max: int, name: str) -> None:
    """ValueError naming name unless 1 <= n_max and (n_max + 1)^2 <= MAX_ROWS."""
    if not (1 <= n_max and (n_max + 1) ** 2 <= MAX_ROWS):
        raise ValueError(f"{name} must be in [1, {math.isqrt(MAX_ROWS) - 1}], got {n_max}")


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
        _check_cutoff(self.oracle_n_max, "oracle_n_max")


@dataclass(frozen=True)
class Trajectory:
    t: np.ndarray
    y: np.ndarray
    p_y: np.ndarray
    F: np.ndarray
    E_vac: np.ndarray
    E_total: np.ndarray
    domain_exited: bool = False


def _route(model: ValidatedModel, config: DynamicsConfig):
    """The selected route as (step, energy): step maps a checked y to (F, s)
    and energy the column of s to E_vac.  A closed-form step makes one
    unchecked (g, g') call and returns s = g, whose column energy maps with
    +, -, *, / and sqrt alone: the bits of vacuum_energy at each y."""
    if config.force_route == "oracle":
        # One FockOracle for the run: below g/k 0.9 a step sums a cell of its
        # cached force table (once while g is unchanged), above it each step's
        # Lanczos solve starts from the previous step's ground state (the
        # first from the Ritz vector of the series' state terms).  s is E_vac.
        return fock.FockOracle(model, config.oracle_n_max).force_route, lambda e_vac: e_vac
    c = model.coupling
    pair = c._formulas()
    force = quantum._casimir_force if config.force_route == "casimir" else quantum._lifshitz_force

    def closed_form_step(y):
        g, gp = pair(c, y, math)
        return force(model, g, gp), g

    return closed_form_step, lambda g: quantum._vacuum_energy(model, g)


def evolve(model: ValidatedModel, config: DynamicsConfig) -> Trajectory:
    """Leapfrog (kick-drift-kick) integration of the heavy coordinate.

    Emits a row per step; stops at t_max or on domain exit (flagged).  The
    loop computes only the force; E_vac and E_total come after it.
    """
    c = model.coupling
    c.check_domain(config.y0)
    step, energy = _route(model, config)
    n_steps = step_count(config.t_max, config.dt)
    dt = config.dt
    big_m = model.M
    y_min, y_max = c.y_min, c.y_max

    f, s = step(config.y0)
    y = config.y0
    p = big_m * config.v0
    t = 0.0
    # Rows (t, y, p, F, s) go into one flat buffer of doubles, about a fifth
    # of the memory of a list of row tuples.
    rows = array("d", (t, y, p, f, s))
    exited = False
    for _ in range(n_steps):
        p_half = p + 0.5 * dt * f
        y_new = y + dt * p_half / big_m
        if not (y_min <= y_new <= y_max):
            exited = True
            break
        f, s = step(y_new)
        p = p_half + 0.5 * dt * f
        y = y_new
        t += dt
        rows.extend((t, y, p, f, s))

    t, y, p_y, f, s = np.frombuffer(rows).reshape(-1, 5).T
    e_vac = energy(s)
    return Trajectory(
        t=t, y=y, p_y=p_y, F=f, E_vac=e_vac, E_total=p_y * p_y / (2 * big_m) + e_vac,
        domain_exited=exited,
    )


def energy_audit(trajectory: Trajectory) -> float:
    """Max relative drift of E_total, max |E_total - E_total[0]| / |E_total[0]|."""
    e0 = trajectory.E_total[0]
    return float(np.max(np.abs(trajectory.E_total - e0)) / abs(e0))
