"""Model parameters, the coupling family g(y), and spectral quantities.

Two identical oscillators (mass m, spring k) are coupled through g(y) x1 x2,
where y is a heavy coordinate of mass M.  Everything else in the package is
derived from the normal-mode frequencies computed here.

The closed-form functions here and in quantum take y as one float or as an
array of points (a whole grid); each picks math or numpy once per call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError

# Below this mass ratio the adiabatic (slow-y) treatment is dubious.
ADIABATIC_MASS_RATIO = 100.0


def _array_module(v):
    """numpy for an array v, math for a float: the library a closed-form
    formula evaluates v with.  math keeps the per-float calls of a trajectory
    fast; numpy evaluates a whole grid in one call."""
    return np if isinstance(v, np.ndarray) else math


@dataclass(frozen=True)
class CouplingSpec:
    """Coupling family g(y), monotone non-increasing on [y_min, y_max].

    constant        g(y) = g0
    exponential     g(y) = g0 * exp(-y / lam)
    inverse-power   g(y) = g0 / (1 + (y / lam) ** exponent)

    pair, value and derivative take y as a float or an array; the constant
    family returns one float either way.  Steppers that have checked y bind
    the family's one (g, g') formula (_formulas) and call it once per force.
    """

    family: str
    g0: float
    lam: float = 1.0
    exponent: int = 2
    y_min: float = 0.0
    y_max: float = 10.0

    def check_domain(self, y):
        """DomainError unless y, or every point of an array y, is in the
        domain.  Returns _array_module(y), so a checked evaluation picks math
        or numpy once."""
        if isinstance(y, np.ndarray):
            lo, hi, xp = y.min(), y.max(), np
        else:
            lo = hi = y
            xp = math
        if not (self.y_min <= lo and hi <= self.y_max):
            raise DomainError(
                f"y={hi if self.y_min <= lo else lo} outside coupling domain "
                f"[{self.y_min}, {self.y_max}]"
            )
        return xp

    def pair(self, y):
        """(g(y), g'(y)), y checked against the domain once."""
        return self._formulas()(self, y, self.check_domain(y))

    def value(self, y):
        return self.pair(y)[0]

    def derivative(self, y):
        return self.pair(y)[1]

    def _formulas(self):
        """The family's (g, g') formula, as a function of (spec, y, math or
        numpy) that skips the domain check: steppers bind it once."""
        try:
            return _FAMILY_FORMULAS[self.family]
        except KeyError:
            raise ValueError(f"unknown coupling family {self.family!r}") from None


def _exponential(c: CouplingSpec, y, xp):
    e = xp.exp(-y / c.lam)
    return c.g0 * e, -c.g0 / c.lam * e


def _inverse_power(c: CouplingSpec, y, xp):
    """g = g0 a / (a + b) and g' = -g0 p (y/big)^(p-1) a / (big (a + b)^2),
    with big = max(y, lam), a = (lam/big)^p and b = (y/big)^p.  Neither can
    overflow; for y <= lam, a = 1 and they are the textbook formulas in
    y/lam, bit for bit."""
    big = np.maximum(y, c.lam) if xp is np else max(y, c.lam)
    r = y / big
    a = (c.lam / big) ** c.exponent
    total = a + r**c.exponent
    return c.g0 * a / total, -c.g0 * c.exponent * r ** (c.exponent - 1) * a / (big * total**2)


# (g, g') per family, as one function of (spec, y, math or numpy).
_FAMILY_FORMULAS = {
    "constant": lambda c, y, xp: (c.g0, 0.0),
    "exponential": _exponential,
    "inverse-power": _inverse_power,
}
FAMILIES = tuple(_FAMILY_FORMULAS)


@dataclass(frozen=True)
class ModelParams:
    m: float
    M: float
    k: float
    coupling: CouplingSpec
    hbar: float = 1.0


@dataclass(frozen=True)
class ValidatedModel:
    """ModelParams that passed validation.  Immutable; construct via validate()."""

    m: float
    M: float
    k: float
    hbar: float
    coupling: CouplingSpec
    omega: float = field(init=False)
    mass_ratio: float = field(init=False)
    adiabatic_warning: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "omega", math.sqrt(self.k / self.m))
        object.__setattr__(self, "mass_ratio", self.M / self.m)
        object.__setattr__(
            self, "adiabatic_warning", self.mass_ratio < ADIABATIC_MASS_RATIO
        )

    def g(self, y):
        return self.coupling.value(y)


def validate(params: ModelParams) -> ValidatedModel:
    """Check all model invariants and return an immutable validated model.

    Raises ConfigError naming every quantity involved by its config path
    (model.m, model.coupling.g0, ...).
    """
    for name in ("m", "M", "k", "hbar"):
        if not getattr(params, name) > 0:
            raise ConfigError(f"model.{name} must be > 0, got {getattr(params, name)}")
    # The closed forms take k +- g, which a subnormal k rounds to a few bits
    # (<N1> was 1e-14 off at k = 1e-310); a subnormal g0 under a normal k is
    # weak coupling and stays.
    if params.k < sys.float_info.min:
        raise ConfigError(
            f"model.k = {params.k!r} must be at least {sys.float_info.min!r}, "
            "the least normal float64"
        )
    # evolve's kinetic energy p^2 / 2M would read 0 for every momentum
    if not 2 * params.M < math.inf:
        raise ConfigError(
            f"model.M = {params.M} must be at most float64 max / 2: 2 model.M, "
            "the denominator of the kinetic energy, overflows"
        )
    c = params.coupling
    if c.family not in FAMILIES:
        raise ConfigError(f"model.coupling.family must be one of {FAMILIES}, got {c.family!r}")
    if c.g0 < 0:
        raise ConfigError(f"model.coupling.g0 must be >= 0, got {c.g0}")
    if c.family != "constant" and not c.lam > 0:
        raise ConfigError(f"model.coupling.lambda must be > 0, got {c.lam}")
    if c.family == "inverse-power":
        if not (isinstance(c.exponent, int) and c.exponent >= 1):
            raise ConfigError(
                "model.coupling.exponent must be a positive integer for the "
                f"inverse-power family, got {c.exponent}"
            )
        if c.y_min < 0:
            raise ConfigError(
                "model.coupling.y_min must be >= 0 when model.coupling.family is "
                f"'inverse-power', got {c.y_min}"
            )
    if not c.y_min < c.y_max:
        raise ConfigError(
            "domain requires model.coupling.y_min < model.coupling.y_max, "
            f"got [{c.y_min}, {c.y_max}]"
        )
    # All families are monotone non-increasing, so sup g = g(y_min).
    at_y_min = (
        "(model.coupling.y_min) of model.coupling.family, model.coupling.g0, "
        "model.coupling.lambda and model.coupling.exponent"
    )
    try:
        g_sup = c.value(c.y_min)
    except OverflowError:
        raise ConfigError(f"g{at_y_min} overflows float64") from None
    if not g_sup < params.k:
        raise ConfigError(
            f"g{at_y_min} = {g_sup} must be < model.k = {params.k}: "
            "positivity constraint violated"
        )
    # The exponential family's largest |g'|: g0 / lambda can overflow.
    slope = c.derivative(c.y_min)
    if not math.isfinite(slope):
        raise ConfigError(f"g'{at_y_min} = {slope} must be finite")
    # A grid's numpy evaluation would warn and write inf rows.
    if not (params.k + g_sup) / params.m < math.inf:
        raise ConfigError(
            "(model.k + g(model.coupling.y_min)) / model.m, the largest "
            "Omega+^2, overflows float64"
        )
    # The vacuum's energy and length^2 scales, by which the oracle multiplies
    # its E0 and <x1 x2>: below the least normal float64 they lose bits or are 0.
    omega = math.sqrt(params.k / params.m)
    m_omega = params.m * omega
    scales = (params.hbar * omega, params.hbar / m_omega if m_omega > 0 else math.inf)
    if not (sys.float_info.min <= min(scales) and max(scales) < math.inf):
        raise ConfigError(
            "model.hbar, model.k and model.m give hbar omega = {!r} and "
            "hbar / (m omega) = {!r}; both must be finite and at least "
            "{!r}, the least normal float64".format(*scales, sys.float_info.min)
        )
    return ValidatedModel(
        m=params.m, M=params.M, k=params.k, hbar=params.hbar, coupling=c
    )


def spectrum(model: ValidatedModel, y) -> tuple:
    """(g(y), Omega+, Omega-): the normal-mode frequencies
    Omega+- = sqrt((k +- g(y))/m) at fixed y and the coupling behind them."""
    return _spectrum(model, model.g(y))


def _spectrum(model: ValidatedModel, g) -> tuple:
    """spectrum from a coupling value g already evaluated."""
    xp = _array_module(g)
    return g, xp.sqrt((model.k + g) / model.m), xp.sqrt((model.k - g) / model.m)
