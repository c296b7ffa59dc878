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
    """H of one state, or of every row at once when the fields are arrays."""
    kin = (state.p1**2 + state.p2**2) / (2.0 * model.m) + state.p_y**2 / (2.0 * model.M)
    pot = model.k * (state.x1**2 + state.x2**2) / 2.0 + model.g(state.y) * state.x1 * state.x2
    return kin + pot


def evolve_classical(
    model: ValidatedModel, initial: PhaseState, dt: float, t_max: float
) -> ClassicalTrajectory:
    """Symplectic integration of the full coupled Hamiltonian flow.

    Steps on six Python floats, with one g and one g' per force evaluation.
    Stops early (domain_exited=True) if y leaves the coupling domain; the
    rows accumulated so far are returned.  ValueError unless dt > 0 and
    t_max > 0, or if t_max / dt is above dynamics.MAX_ROWS steps.
    """
    n_steps = step_count(t_max, dt)
    c = model.coupling
    c.check_domain(initial.y)
    k, m, big_m = model.k, model.m, model.M
    drifts = [d * dt for d in _DRIFT]
    kicks = [w * dt for w in _KICK]
    # float() as np.array did, so float32 or int input steps in float64
    x1, x2, y, p1, p2, p_y = map(
        float, (initial.x1, initial.x2, initial.y, initial.p1, initial.p2, initial.p_y)
    )
    rows = [(initial.t, x1, x2, y, p1, p2, p_y)]
    exited = False
    t = initial.t
    for _ in range(n_steps):
        d = drifts[0]
        s1, s2, sy = x1 + d * p1 / m, x2 + d * p2 / m, y + d * p_y / big_m
        r1, r2, ry = p1, p2, p_y
        for w, d in zip(kicks, drifts[1:]):
            g = c.value_raw(sy)
            f_y = -c.derivative_raw(sy) * s1 * s2
            r1, r2 = r1 + w * (-k * s1 - g * s2), r2 + w * (-k * s2 - g * s1)
            ry = ry + w * f_y
            s1, s2, sy = s1 + d * r1 / m, s2 + d * r2 / m, sy + d * ry / big_m
        if not (c.y_min <= sy <= c.y_max):
            exited = True
            break
        x1, x2, y, p1, p2, p_y = s1, s2, sy, r1, r2, ry
        t += dt
        rows.append((t, x1, x2, y, p1, p2, p_y))

    t, x1, x2, y, p1, p2, p_y = np.array(rows).T
    return ClassicalTrajectory(
        t=t,
        x1=x1,
        x2=x2,
        y=y,
        p1=p1,
        p2=p2,
        p_y=p_y,
        energy=total_energy(model, PhaseState(x1, x2, y, p1, p2, p_y, t)),
        domain_exited=exited,
    )
