"""Independent references the tests check the package against.

The program never computes these: each is a direct transcription of a
definition, kept apart from the code under test.
"""

import math

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
