"""Closed-form quantum results at fixed y.

Two independent routes to the force on the heavy coordinate:

  * energy route:      F = -d/dy [hbar(Omega+ + Omega-)/2]
  * fluctuation route: F = -g'(y) <x1 x2>, with <x+-^2> = hbar/(2 m Omega+-)

and the Bogoliubov structure of the interacting vacuum: coefficients
alpha/beta, mean free-quanta numbers, and the geometric pair expansion of the
two-mode squeezed vacuum.  Like model, each function takes y as one float or
as an array of points.  The force and energy formulas are private kernels of
g (and g') already evaluated: the public forces take both from one checked
(g, g') call, the trajectory routes from one unchecked call per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ValidatedModel, _array_module, _spectrum, spectrum


@dataclass(frozen=True)
class BogoliubovCoeffs:
    """Mode 1's coefficients per normal mode; mode exchange fixes mode 2's
    as alpha_2+- = +-alpha_1+- and beta_2+- = +-beta_1+-."""

    alpha_1p: float
    alpha_1m: float
    beta_1p: float
    beta_1m: float


@dataclass(frozen=True)
class VacuumObservables:
    E_vac: float
    x1x2: float
    N1: float  # = <N2> by mode exchange


@dataclass(frozen=True)
class VacuumExpansion:
    """Pair expansion |0~> = c0 sum_n (-beta/alpha)^n |n,n>, truncated at N_max.

    tail is the exact geometric mass beyond N_max, so sum(c_n^2) + tail == 1.
    For arrays of coefficients, alpha, beta, c0 and tail are arrays too and
    coefficients has one row of N_max + 1 per point.
    """

    alpha: float
    beta: float
    c0: float
    coefficients: np.ndarray
    N_max: int
    tail: float


def vacuum_energy(model: ValidatedModel, y: float) -> float:
    """Interacting effective-vacuum energy hbar(Omega+ + Omega-)/2, evaluated
    as hbar omega plus the interaction shift (_interaction_shift)."""
    return _vacuum_energy(model, model.g(y))


def _vacuum_energy(model: ValidatedModel, g):
    return model.hbar * model.omega + _interaction_shift(model, g)


def _interaction_shift(model: ValidatedModel, g):
    """E_vac - hbar omega = -hbar omega u^2 / ((1 + sqrt(1 - u^2))(s + 2)),
    with u = g/k and s = sqrt(1+u) + sqrt(1-u): cancellation-free, so it stays
    negative even where it is below the rounding of E_vac itself."""
    u = g / model.k
    xp = _array_module(u)
    s = xp.sqrt(1.0 + u) + xp.sqrt(1.0 - u)
    root = xp.sqrt(1.0 - u * u)
    return -model.hbar * model.omega * u * u / ((1.0 + root) * (s + 2.0))


def casimir_force(model: ValidatedModel, y: float) -> float:
    """Energy-route force: -hbar g'/(4 m Omega+) + hbar g'/(4 m Omega-).

    Evaluated through the cancellation-free identity
    1/Omega- - 1/Omega+ = 2g / (m Omega+ Omega- (Omega+ + Omega-)),
    which is exact because Omega+^2 - Omega-^2 = 2g/m.  It divides by one
    factor at a time: the product of the four scales as k omega and leaves
    float64 range for validated models (k = 1e300 or 1e-300 at m = 1).
    """
    return _casimir_force(model, *model.coupling.pair(y))


def _casimir_force(model: ValidatedModel, g, gp):
    _, wp, wm = _spectrum(model, g)
    inv_diff = 2.0 * g / (model.m * wp) / wm / (wp + wm)
    return model.hbar * gp / (4.0 * model.m) * inv_diff


def vacuum_fluctuations(model: ValidatedModel, y: float) -> VacuumObservables:
    """The vacuum's energy, <x1 x2> and mean free-quanta number at fixed y."""
    return VacuumObservables(
        E_vac=vacuum_energy(model, y),
        x1x2=_x1x2(model, *spectrum(model, y)),
        N1=mean_free_quanta(bogoliubov_coefficients(model, y)),
    )


def lifshitz_force(model: ValidatedModel, y: float) -> float:
    """Fluctuation-route force -g'(y) <x1 x2>; no vacuum energy involved."""
    return _lifshitz_force(model, *model.coupling.pair(y))


def _lifshitz_force(model: ValidatedModel, g, gp):
    return -gp * _x1x2(model, *_spectrum(model, g))


def _x1x2(model: ValidatedModel, g, wp, wm):
    """<x1 x2> = (<x+^2> - <x-^2>)/2 = -<x+^2> (Omega+ - Omega-) / (2 Omega-)
    via the same cancellation-free difference used for the force:
    Omega+^2 - Omega-^2 = 2g/m exactly.  It is <x+^2> = hbar/(2 m Omega+),
    at most hbar/(2 m omega), times the dimensionless g/(m Omega-)/(Omega+ +
    Omega-), so each intermediate stays near a scale of the result (m or k
    of 1e+-300 included)."""
    return -(model.hbar / (2.0 * model.m * wp)) * (g / (model.m * wm) / (wp + wm))


def bogoliubov_coefficients(model: ValidatedModel, y: float) -> BogoliubovCoeffs:
    """Coefficients mixing free-mode and normal-mode ladder operators.

    alpha_1+- = (Omega+- + omega) / (2 sqrt(2 Omega+- omega))
    beta_1+-  = (Omega+- - omega) / (2 sqrt(2 Omega+- omega))
    Signs are kept as they come out; beta_1- is negative for any g > 0.
    """
    _, wp, wm = spectrum(model, y)
    a1p, b1p = _branch_coeffs(wp, model.omega)
    a1m, b1m = _branch_coeffs(wm, model.omega)
    return BogoliubovCoeffs(alpha_1p=a1p, alpha_1m=a1m, beta_1p=b1p, beta_1m=b1m)


def _branch_coeffs(big_omega: float, omega: float) -> tuple[float, float]:
    denom = 2.0 * _array_module(big_omega).sqrt(2.0 * big_omega * omega)
    return (big_omega + omega) / denom, (big_omega - omega) / denom


def mean_free_quanta(coeffs: BogoliubovCoeffs) -> float:
    """<N1> = beta_1+^2 + beta_1-^2, which is also <N2>."""
    return coeffs.beta_1p**2 + coeffs.beta_1m**2


def squeezed_vacuum_expansion(coeffs: BogoliubovCoeffs, N_max: int = 20) -> VacuumExpansion:
    """Pair expansion of the interacting vacuum on the plus branch.

    Uses (alpha, beta) = (alpha_1+, beta_1+) in the simplified one-mode
    transformation a = alpha(a1 + a2) + beta(a1' + a2'); the recursion
    c_{n+1} = -(beta/alpha) c_n gives c_n = (-beta/alpha)^n c0 with
    c0 = sqrt(1 - (beta/alpha)^2).
    """
    if N_max < 0:
        raise ValueError(f"N_max must be >= 0, got {N_max}")
    alpha, beta = coeffs.alpha_1p, coeffs.beta_1p
    r = beta / alpha
    if not np.all(abs(r) < 1.0):
        raise ValueError(f"|beta/alpha| = {np.max(abs(r))} >= 1")
    c0 = _array_module(r).sqrt(1.0 - r * r)
    n = np.arange(N_max + 1)
    coefficients = np.asarray(c0)[..., None] * np.asarray(-r)[..., None] ** n
    tail = r ** (2 * (N_max + 1))  # = c0^2 * r^(2N+2) / (1 - r^2)
    return VacuumExpansion(
        alpha=alpha, beta=beta, c0=c0, coefficients=coefficients, N_max=N_max, tail=tail
    )
