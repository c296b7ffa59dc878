"""Model parameters, the coupling family g(y), and spectral quantities.

Two identical oscillators (mass m, spring k) are coupled through g(y) x1 x2,
where y is a heavy coordinate of mass M.  Everything else in the package is
derived from the normal-mode frequencies computed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConstraintViolationError, DomainError, NonPositiveParameterError

# Below this mass ratio the adiabatic (slow-y) treatment is dubious.
ADIABATIC_MASS_RATIO = 100.0


@dataclass(frozen=True)
class CouplingSpec:
    """Coupling family g(y), monotone non-increasing on [y_min, y_max].

    constant        g(y) = g0
    exponential     g(y) = g0 * exp(-y / lam)
    inverse-power   g(y) = g0 / (1 + (y / lam) ** exponent)
    """

    family: str
    g0: float
    lam: float = 1.0
    exponent: int = 2
    y_min: float = 0.0
    y_max: float = 10.0

    def check_domain(self, y: float) -> None:
        if not (self.y_min <= y <= self.y_max):
            raise DomainError(
                f"y={y} outside coupling domain [{self.y_min}, {self.y_max}]"
            )

    def value(self, y: float) -> float:
        self.check_domain(y)
        return self.value_raw(y)

    def value_raw(self, y: float) -> float:
        """Family formula without the domain check (integrator substeps only)."""
        return self._formulas()[0](self, y)

    def derivative(self, y: float) -> float:
        self.check_domain(y)
        return self.derivative_raw(y)

    def derivative_raw(self, y: float) -> float:
        return self._formulas()[1](self, y)

    def _formulas(self):
        try:
            return _FAMILY_FORMULAS[self.family]
        except KeyError:
            raise ConstraintViolationError(
                f"unknown coupling family {self.family!r}"
            ) from None


# (g, g') per family, as functions of (spec, y).
_FAMILY_FORMULAS = {
    "constant": (lambda c, y: c.g0, lambda c, y: 0.0),
    "exponential": (
        lambda c, y: c.g0 * math.exp(-y / c.lam),
        lambda c, y: -c.g0 / c.lam * math.exp(-y / c.lam),
    ),
    "inverse-power": (
        lambda c, y: c.g0 / (1.0 + (y / c.lam) ** c.exponent),
        lambda c, y: -c.g0
        * c.exponent
        * (y / c.lam) ** (c.exponent - 1)
        / (c.lam * (1.0 + (y / c.lam) ** c.exponent) ** 2),
    ),
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
    mass_ratio: float = field(init=False)
    adiabatic_warning: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "mass_ratio", self.M / self.m)
        object.__setattr__(
            self, "adiabatic_warning", self.mass_ratio < ADIABATIC_MASS_RATIO
        )

    @property
    def omega(self) -> float:
        return math.sqrt(self.k / self.m)

    def g(self, y: float) -> float:
        return self.coupling.value(y)

    def g_prime(self, y: float) -> float:
        return self.coupling.derivative(y)


@dataclass(frozen=True)
class Spectrum:
    """Frequencies at a fixed y: free omega, normal Omega+-."""

    omega: float
    omega_plus: float
    omega_minus: float


def validate(params: ModelParams) -> ValidatedModel:
    """Check all model invariants and return an immutable validated model.

    Raises NonPositiveParameterError or ConstraintViolationError naming every
    quantity involved by its config path (model.m, model.coupling.g0, ...).
    """
    for name in ("m", "M", "k", "hbar"):
        if not getattr(params, name) > 0:
            raise NonPositiveParameterError(
                f"model.{name} must be > 0, got {getattr(params, name)}"
            )
    c = params.coupling
    if c.family not in FAMILIES:
        raise ConstraintViolationError(
            f"model.coupling.family must be one of {FAMILIES}, got {c.family!r}"
        )
    if c.g0 < 0:
        raise ConstraintViolationError(f"model.coupling.g0 must be >= 0, got {c.g0}")
    if c.family != "constant" and not c.lam > 0:
        raise NonPositiveParameterError(f"model.coupling.lambda must be > 0, got {c.lam}")
    if c.family == "inverse-power":
        if not (isinstance(c.exponent, int) and c.exponent >= 1):
            raise ConstraintViolationError(
                "model.coupling.exponent must be a positive integer for the "
                f"inverse-power family, got {c.exponent}"
            )
        if c.y_min < 0:
            raise ConstraintViolationError(
                "model.coupling.y_min must be >= 0 when model.coupling.family is "
                f"'inverse-power', got {c.y_min}"
            )
    if not c.y_min < c.y_max:
        raise ConstraintViolationError(
            "domain requires model.coupling.y_min < model.coupling.y_max, "
            f"got [{c.y_min}, {c.y_max}]"
        )
    # All families are monotone non-increasing, so sup g = g(y_min).
    g_sup_name = (
        "g(model.coupling.y_min) of model.coupling.family, model.coupling.g0, "
        "model.coupling.lambda and model.coupling.exponent"
    )
    try:
        g_sup = c.value(c.y_min)
    except OverflowError:
        raise ConstraintViolationError(f"{g_sup_name} overflows float64") from None
    if not g_sup < params.k:
        raise ConstraintViolationError(
            f"{g_sup_name} = {g_sup} must be < model.k = {params.k}: "
            "positivity constraint violated"
        )
    return ValidatedModel(
        m=params.m, M=params.M, k=params.k, hbar=params.hbar, coupling=c
    )


def spectrum(model: ValidatedModel, y: float) -> Spectrum:
    """Normal-mode frequencies Omega+- = sqrt((k +- g(y))/m) at fixed y."""
    g = model.g(y)
    return Spectrum(
        omega=model.omega,
        omega_plus=math.sqrt((model.k + g) / model.m),
        omega_minus=math.sqrt((model.k - g) / model.m),
    )
