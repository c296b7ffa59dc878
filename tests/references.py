"""Independent references the tests check the package against.

The program never computes these: each is a direct transcription of a
definition, kept apart from the code under test.
"""

import math
from array import array

import numpy as np


def position_matrix(model, n_max: int) -> np.ndarray:
    """Single-mode x = sqrt(hbar/(2 m omega)) (a' + a) for n <= n_max."""
    a = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=1)
    return math.sqrt(model.hbar / (2.0 * model.m * model.omega)) * (a + a.T)


def cross_correlation(table: np.ndarray, x: np.ndarray) -> float:
    """<x1 x2> of the state with amplitudes table[n, n']: x1 acts on rows."""
    return float((table * (x @ table @ x)).sum())


def free_vacuum_correlation(model, n_max: int, psi2: np.ndarray) -> float:
    """<x1 x2> in |0_1> (x) |psi2> for a normalized mode-2 state psi2 of
    n_max + 1 amplitudes; zero for any such state."""
    table = np.zeros((n_max + 1, n_max + 1))
    table[0] = psi2
    return cross_correlation(table, position_matrix(model, n_max))


def bogoliubov_normalization(coeffs) -> tuple[float, float]:
    """sum_j (alpha_j+-^2 - beta_j+-^2) = 2(alpha_1+-^2 - beta_1+-^2) per
    branch; exactly 1 for valid input."""
    plus = 2.0 * (coeffs.alpha_1p**2 - coeffs.beta_1p**2)
    minus = 2.0 * (coeffs.alpha_1m**2 - coeffs.beta_1m**2)
    return plus, minus


def csv_rows(blocks):
    """Row tuples of Python floats from write_csv's blocks of columns, a
    column an array or one value for every row."""
    for columns in blocks:
        columns = np.broadcast_arrays(*columns)
        yield from zip(*(c.tolist() for c in columns))


def per_row_csv(header, rows, precision: int) -> str:
    """CSV text written one row at a time, by one %.{precision}g template
    applied to each row's tuple."""
    template = ",".join([f"%.{precision}g"] * len(header)) + "\n"
    return ",".join(header) + "\n" + "".join(template % row for row in rows)


def coupling_g(spec, y, xp):
    """g(y) of spec's family, its own formula apart from g', evaluated with
    xp (math for a float y, numpy for an array)."""
    if spec.family == "constant":
        return spec.g0
    if spec.family == "exponential":
        return spec.g0 * xp.exp(-y / spec.lam)
    _, a, b = _inverse_power_terms(spec, y, xp)
    return spec.g0 * a / (a + b)


def coupling_g_prime(spec, y, xp):
    """g'(y) of spec's family, its own formula apart from g."""
    if spec.family == "constant":
        return 0.0
    if spec.family == "exponential":
        return -spec.g0 / spec.lam * xp.exp(-y / spec.lam)
    big, a, b = _inverse_power_terms(spec, y, xp)
    p = spec.exponent
    return -spec.g0 * p * (y / big) ** (p - 1) * a / (big * (a + b) ** 2)


def _inverse_power_terms(spec, y, xp):
    """(big, a, b) = (max(y, lam), (lam/big)^p, (y/big)^p), so that
    g = g0 a / (a + b)."""
    big = np.maximum(y, spec.lam) if xp is np else max(y, spec.lam)
    return big, (spec.lam / big) ** spec.exponent, (y / big) ** spec.exponent


def leapfrog(model, config, route):
    """Columns (t, y, p_y, F, E_vac, E_total) and the domain-exit flag of a
    kick-drift-kick run whose route(y) gives (F, E_vac) at each point, with
    E_total = p_y^2 / 2M + E_vac taken per row inside the loop."""
    c = model.coupling
    dt, big_m = config.dt, model.M
    f, evac = route(config.y0)
    y, p, t = config.y0, big_m * config.v0, 0.0
    rows = array("d", (t, y, p, f, evac, p * p / (2 * big_m) + evac))
    exited = False
    for _ in range(int(round(config.t_max / dt))):
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
    return np.frombuffer(rows).reshape(-1, 6).T, exited
