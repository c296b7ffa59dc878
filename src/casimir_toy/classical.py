"""Full coupled classical dynamics.

The classical force on y is F = -g'(y) x1 x2, which vanishes identically in
the classical ground state x1 = x2 = 0.  evolve_classical integrates the full
three-coordinate Hamiltonian with a 4th-order symplectic composition of
leapfrog steps (Yoshida splitting), so total energy is the adiabaticity audit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import step_count
from .model import ValidatedModel

# Yoshida 4th-order composition coefficients.
_W0 = -(2.0 ** (1.0 / 3.0)) / (2.0 - 2.0 ** (1.0 / 3.0))
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_DRIFT = (_W1 / 2.0, (_W0 + _W1) / 2.0, (_W0 + _W1) / 2.0, _W1 / 2.0)
_KICK = (_W1, _W0, _W1)


@dataclass(frozen=True)
class PhaseState:
    x1: float
    x2: float
    y: float
    p1: float
    p2: float
    p_y: float
    t: float = 0.0


@dataclass(frozen=True)
class ClassicalTrajectory:
    """Columns of the sampled flow; domain_exited marks a truncated run."""

    t: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    y: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    p_y: np.ndarray
    energy: np.ndarray
    domain_exited: bool = False


def total_energy(model: ValidatedModel, state: PhaseState) -> float:
    kin = (state.p1**2 + state.p2**2) / (2.0 * model.m) + state.p_y**2 / (2.0 * model.M)
    pot = model.k * (state.x1**2 + state.x2**2) / 2.0 + model.g(state.y) * state.x1 * state.x2
    return kin + pot


def evolve_classical(
    model: ValidatedModel, initial: PhaseState, dt: float, t_max: float
) -> ClassicalTrajectory:
    """Symplectic integration of the full coupled Hamiltonian flow.

    Stops early (domain_exited=True) if y leaves the coupling domain; the
    rows accumulated so far are returned.  ValueError if dt <= 0 or
    t_max / dt is above dynamics.MAX_ROWS steps.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    c = model.coupling
    c.check_domain(initial.y)
    n_steps = step_count(t_max, dt)
    q = np.array([initial.x1, initial.x2, initial.y])
    p = np.array([initial.p1, initial.p2, initial.p_y])
    masses = np.array([model.m, model.m, model.M])

    def forces(q):
        x1, x2, y = q.tolist()  # Python floats: faster scalar arithmetic, same bits
        g = c.value_raw(y)
        return np.array(
            [
                -model.k * x1 - g * x2,
                -model.k * x2 - g * x1,
                -c.derivative_raw(y) * x1 * x2,
            ]
        )

    rows = [(initial.t, *q, *p)]
    exited = False
    t = initial.t
    for _ in range(n_steps):
        q_new, p_new = q + _DRIFT[0] * dt * p / masses, p
        for j in range(3):
            p_new = p_new + _KICK[j] * dt * forces(q_new)
            q_new = q_new + _DRIFT[j + 1] * dt * p_new / masses
        if not (c.y_min <= q_new[2] <= c.y_max):
            exited = True
            break
        q, p = q_new, p_new
        t += dt
        rows.append((t, *q, *p))

    t, x1, x2, y, p1, p2, p_y = np.array(rows).T
    # total_energy over every row at once
    kin = (p1 * p1 + p2 * p2) / (2.0 * model.m) + p_y * p_y / (2.0 * model.M)
    pot = model.k * (x1 * x1 + x2 * x2) / 2.0 + c.value_raw(y) * x1 * x2
    return ClassicalTrajectory(
        t=t,
        x1=x1,
        x2=x2,
        y=y,
        p1=p1,
        p2=p2,
        p_y=p_y,
        energy=kin + pot,
        domain_exited=exited,
    )
