import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from casimir_toy import (
    bogoliubov_coefficients,
    casimir_force,
    fock,
    lifshitz_force,
    quantum,
    squeezed_vacuum_expansion,
    vacuum_energy,
    vacuum_fluctuations,
)
from casimir_toy.errors import DomainError
from casimir_toy.quantum import BogoliubovCoeffs, mean_free_quanta
from conftest import make_model, valid_model_strategy
from references import bogoliubov_normalization

# closed-form references at k = m = hbar = 1, g = 0.5:
#   Omega+ = sqrt(1.5), Omega- = sqrt(0.5)
E_VAC_REF = (math.sqrt(1.5) + math.sqrt(0.5)) / 2  # 0.96592582628906829
XP2_REF = 1 / (2 * math.sqrt(1.5))  # 0.40824829046386302
XM2_REF = 1 / (2 * math.sqrt(0.5))  # 0.70710678118654752
X1X2_REF = (XP2_REF - XM2_REF) / 2  # -0.14942924536134225
# force at y = 0, exponential g0 = 0.5, lambda = 1: g' = -0.5
F_REF = 0.5 / (4 * math.sqrt(1.5)) - 0.5 / (4 * math.sqrt(0.5))  # -0.074714622680671


class TestVacuumEnergy:
    def test_free_case(self):
        model = make_model(g0=0.0)
        assert vacuum_energy(model, 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_reference_value(self, reference_model):
        assert vacuum_energy(reference_model, 0.0) == pytest.approx(
            E_VAC_REF, rel=1e-14
        )
        assert vacuum_energy(reference_model, 0.0) == pytest.approx(0.9659258, abs=5e-8)

    @given(valid_model_strategy())
    def test_interaction_lowers_vacuum_energy(self, model):
        # sqrt(1+u) + sqrt(1-u) < 2 for u != 0.  The shift is asserted on
        # directly: below u ~ 1e-8 it is under the rounding of E_vac itself.
        e_free = model.hbar * model.omega
        shift = quantum._interaction_shift(model, model.g(model.coupling.y_min))
        if model.g(model.coupling.y_min) > 1e-12:
            assert shift < 0
        else:
            assert shift == pytest.approx(0.0, abs=1e-9 * e_free)
        assert vacuum_energy(model, model.coupling.y_min) == e_free + shift

    def test_interaction_shift_matches_direct_difference(self, reference_model):
        shift = quantum._interaction_shift(reference_model, reference_model.g(0.0))
        assert shift == pytest.approx(E_VAC_REF - 1.0, rel=1e-13)

    def test_interaction_shift_resolved_at_weak_coupling(self):
        # u = 5e-10: E_vac - hbar omega rounds to 0, the shift is -u^2/8
        model = make_model(family="constant", g0=1.5e-9, k=3.0)
        u = 5e-10
        assert vacuum_energy(model, 0.0) == model.omega
        expected = -model.omega * u * u / 8
        assert quantum._interaction_shift(model, model.g(0.0)) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_domain_error(self, reference_model):
        with pytest.raises(DomainError):
            vacuum_energy(reference_model, -1.0)


class TestCasimirForce:
    def test_constant_family_gives_zero(self, constant_model):
        assert casimir_force(constant_model, 3.0) == 0.0

    def test_reference_value(self, reference_model):
        assert casimir_force(reference_model, 0.0) == pytest.approx(F_REF, rel=1e-13)
        assert casimir_force(reference_model, 0.0) == pytest.approx(
            -0.0747146, abs=5e-8
        )

    def test_matches_energy_finite_difference(self, reference_model):
        # h balances O(h^2) truncation (~1e-11) against rounding (~1e-11),
        # keeping both well under the 1e-8 relative target
        h = 1e-5
        for y in np.linspace(0.1, 2.5, 7):
            fd = -(
                vacuum_energy(reference_model, y + h)
                - vacuum_energy(reference_model, y - h)
            ) / (2 * h)
            assert casimir_force(reference_model, y) == pytest.approx(fd, rel=1e-8)

    def test_attractive_for_decreasing_coupling(self, reference_model):
        for y in np.linspace(0.0, 5.0, 6):
            assert casimir_force(reference_model, y) < 0


class TestVacuumFluctuations:
    def test_free_case_uncorrelated(self):
        model = make_model(g0=0.0)
        assert vacuum_fluctuations(model, 0.0).x1x2 == 0.0

    def test_reference_values(self, reference_model):
        obs = vacuum_fluctuations(reference_model, 0.0)
        assert obs.x1x2 == pytest.approx(X1X2_REF, rel=1e-14)

    @given(valid_model_strategy(), st.floats(min_value=0.0, max_value=10.0))
    def test_negative_correlation_whenever_coupled(self, model, y):
        if model.g(y) > 1e-12:
            assert vacuum_fluctuations(model, y).x1x2 < 0


class TestLifshitzForce:
    def test_reference_value(self, reference_model):
        assert lifshitz_force(reference_model, 0.0) == pytest.approx(F_REF, rel=1e-13)

    def test_free_case(self):
        model = make_model(g0=0.0)
        assert lifshitz_force(model, 1.0) == 0.0

    @given(valid_model_strategy(), st.floats(min_value=0.0, max_value=10.0))
    def test_route_equivalence(self, model, y):
        fc = casimir_force(model, y)
        fl = lifshitz_force(model, y)
        assert abs(fc - fl) / max(abs(fc), 1e-30) < 1e-12

    @pytest.mark.parametrize("m", [1e-200, 1e-160, 1e-100, 1.0, 1e100, 1e160, 1e200])
    def test_route_equivalence_at_extreme_masses(self, m):
        # m = k keeps omega = 1, so both routes give the reference force; m^2
        # was 0 below 1e-162, subnormal near 1e-160 and overflowed above 1e154
        model = make_model(m=m, k=m, M=1000.0 * m, g0=0.5 * m)
        for y in (0.0, 0.5, 3.0, 9.5, np.linspace(0.0, 9.5, 5)):
            fc = casimir_force(model, y)
            fl = -model.coupling.derivative(y) * vacuum_fluctuations(model, y).x1x2
            for f in (lifshitz_force(model, y), fl):
                assert np.all(abs(f - fc) <= 2 * np.finfo(float).eps * abs(fc))

    @pytest.mark.parametrize("a", [-500, -350, -200, 200, 350, 500])
    @pytest.mark.parametrize("scaled", ["k", "m"])
    def test_force_and_correlation_scale_with_omega_exactly(self, a, scaled):
        # omega = 2^a from k = 4^a (g proportional to k) or from m = 4^-a: the
        # force scales as omega and <x1 x2> as hbar / (m omega), bit for bit.
        # m Omega+ Omega- (Omega+ + Omega-) scales as k omega: as one product
        # it overflowed to inf (F = -0) or underflowed to 0 (a
        # ZeroDivisionError) at k = 4^+-350 and beyond
        unit = make_model()
        if scaled == "k":
            model = make_model(k=4.0**a, g0=0.5 * 4.0**a)
        else:
            model = make_model(m=4.0**-a)
        length = 1.0 / (model.m * 2.0**a)
        for y in (0.0, 0.5, 3.0, 9.5, np.linspace(0.0, 9.5, 5)):
            for force in (casimir_force, lifshitz_force):
                assert np.array_equal(force(model, y), 2.0**a * force(unit, y))
            x1x2 = vacuum_fluctuations(model, y).x1x2
            assert np.array_equal(x1x2, length * vacuum_fluctuations(unit, y).x1x2)


class TestBogoliubov:
    def test_free_case_trivial(self):
        model = make_model(g0=0.0)
        c = bogoliubov_coefficients(model, 0.0)
        assert c.beta_1p == c.beta_1m == 0.0
        assert c.alpha_1p == pytest.approx(1 / math.sqrt(2), rel=1e-15)
        assert c.alpha_1m == pytest.approx(1 / math.sqrt(2), rel=1e-15)

    def test_reference_values(self, reference_model):
        c = bogoliubov_coefficients(reference_model, 0.0)
        op, om = math.sqrt(1.5), math.sqrt(0.5)
        assert c.beta_1p == pytest.approx((op - 1) / (2 * math.sqrt(2 * op)), rel=1e-14)
        assert c.beta_1m == pytest.approx((om - 1) / (2 * math.sqrt(2 * om)), rel=1e-14)
        assert c.beta_1p == pytest.approx(0.0717996, abs=5e-7)
        assert c.beta_1m == pytest.approx(-0.1231464, abs=5e-7)
        assert c.beta_1m < 0  # sign kept, no absolute values

    @given(valid_model_strategy(), st.floats(min_value=0.0, max_value=10.0))
    def test_normalization(self, model, y):
        plus, minus = bogoliubov_normalization(bogoliubov_coefficients(model, y))
        assert abs(plus - 1.0) < 1e-12
        assert abs(minus - 1.0) < 1e-12


class TestMeanFreeQuanta:
    def test_free_case(self):
        model = make_model(g0=0.0)
        assert mean_free_quanta(bogoliubov_coefficients(model, 0.0)) == 0.0

    def test_reference_value(self, reference_model):
        n1 = mean_free_quanta(bogoliubov_coefficients(reference_model, 0.0))
        assert n1 == pytest.approx(0.02032, abs=5e-6)

    @given(valid_model_strategy())
    def test_positive_whenever_coupled(self, model):
        y = model.coupling.y_min
        n1 = mean_free_quanta(bogoliubov_coefficients(model, y))
        if model.g(y) > 1e-9:
            assert n1 > 0


class TestSqueezedVacuumExpansion:
    def test_free_case_is_bare_vacuum(self):
        model = make_model(g0=0.0)
        exp = squeezed_vacuum_expansion(
            bogoliubov_coefficients(model, 0.0), N_max=5
        )
        assert exp.coefficients[0] == 1.0
        assert np.all(exp.coefficients[1:] == 0.0)
        assert exp.tail == 0.0

    def test_reference_values(self, reference_model):
        exp = squeezed_vacuum_expansion(
            bogoliubov_coefficients(reference_model, 0.0), N_max=10
        )
        assert exp.beta / exp.alpha == pytest.approx(0.1010205, abs=5e-7)
        assert exp.c0 == pytest.approx(0.9948843, abs=5e-7)
        assert exp.coefficients[1] == pytest.approx(-0.1005037, abs=5e-7)

    def test_sign_alternation(self, reference_model):
        exp = squeezed_vacuum_expansion(
            bogoliubov_coefficients(reference_model, 0.0), N_max=8
        )
        prods = exp.coefficients[:-1] * exp.coefficients[1:]
        assert np.all(prods < 0)

    @given(valid_model_strategy(), st.integers(min_value=0, max_value=30))
    def test_normalization_with_tail(self, model, n_max):
        exp = squeezed_vacuum_expansion(
            bogoliubov_coefficients(model, model.coupling.y_min), N_max=n_max
        )
        total = float(np.sum(exp.coefficients**2)) + exp.tail
        assert abs(total - 1.0) < 1e-12

    def test_geometric_coefficients_exact(self, reference_model):
        exp = squeezed_vacuum_expansion(
            bogoliubov_coefficients(reference_model, 0.0), N_max=12
        )
        for n, c in enumerate(exp.coefficients):
            assert c == pytest.approx(exp.c0 * (-exp.beta / exp.alpha) ** n, rel=1e-13, abs=0)

    def test_invalid_ratio_guard(self):
        corrupt = BogoliubovCoeffs(alpha_1p=0.5, alpha_1m=1.0, beta_1p=0.9, beta_1m=0.0)
        with pytest.raises(ValueError, match="beta/alpha"):
            squeezed_vacuum_expansion(corrupt, N_max=3)

    def test_bad_branch_rejected(self, reference_model):
        coeffs = bogoliubov_coefficients(reference_model, 0.0)
        with pytest.raises(ValueError):
            squeezed_vacuum_expansion(coeffs, N_max=-1)


class TestZeroCouplingLimit:
    def test_continuous_reduction_to_free_values(self):
        for g0 in (1e-3, 1e-6, 1e-9):
            model = make_model(g0=g0)
            assert vacuum_energy(model, 0.0) == pytest.approx(1.0, abs=g0)
            assert abs(casimir_force(model, 0.0)) < g0
            c = bogoliubov_coefficients(model, 0.0)
            assert abs(c.beta_1p) < g0 and abs(c.beta_1m) < g0
            assert mean_free_quanta(c) < g0


def london_force(model, y):
    """F_L = hbar omega g g' / (4 k^2), London's leading dispersion force."""
    g, gp = model.coupling.pair(y)
    return model.hbar * model.omega * g * gp / (4.0 * model.k**2)


class TestVanDerWaalsLimit:
    """E_vac = hbar omega (sqrt(1 + u) + sqrt(1 - u)) / 2 with u = g/k, so
    F / F_L = (1/sqrt(1 - u) - 1/sqrt(1 + u)) / u = 1 + 5u^2/8 + 63u^4/128
    + 429u^6/1024 + ..., whose remainder after 5u^2/8 is below u^4 for
    u <= 0.5: London's dispersion force of two coupled oscillators."""

    @given(
        family=st.sampled_from(["exponential", "inverse-power"]),
        exponent=st.integers(min_value=1, max_value=6),
        u=st.floats(min_value=1e-3, max_value=0.5),
        m=st.floats(min_value=0.1, max_value=10.0),
        k=st.floats(min_value=0.1, max_value=10.0),
        hbar=st.floats(min_value=0.1, max_value=10.0),
        lam=st.floats(min_value=0.5, max_value=2.0),
    )
    def test_weak_coupling_expansion(self, family, exponent, u, m, k, hbar, lam):
        # g0 = 0.6 k and y chosen so that g(y) is about u k
        g0 = 0.6 * k
        if family == "exponential":
            y = lam * math.log(g0 / (u * k))
        else:
            y = lam * (g0 / (u * k) - 1.0) ** (1.0 / exponent)
        model = make_model(g0=g0, family=family, k=k, m=m, hbar=hbar, lam=lam,
                           exponent=exponent, y_max=1e6)
        u = model.g(y) / k
        f_l = london_force(model, y)
        for force in (casimir_force, lifshitz_force):
            assert abs(force(model, y) / f_l - 1.0 - 5.0 * u**2 / 8.0) <= u**4

    def test_dipole_dipole_inverse_seventh_power(self):
        # g = g0 / (1 + (y/lam)^3) ~ g0 (lam/y)^3, so F y^7 tends to
        # -3 hbar omega g0^2 lam^6 / (4 k^2), with a relative correction of
        # 3 (lam/y)^3 from g g' and (g/k)^2 terms far below it
        m, k, hbar, g0, lam = 2.0, 3.0, 0.7, 1.5, 1.5
        model = make_model(g0=g0, family="inverse-power", k=k, m=m, hbar=hbar, lam=lam,
                           exponent=3, y_max=1e6)
        limit = -3.0 * hbar * model.omega * g0**2 * lam**6 / (4.0 * k**2)
        for y in (100.0, 1000.0, 1e4):
            for force in (casimir_force, lifshitz_force):
                assert force(model, y) * y**7 / limit - 1.0 == pytest.approx(
                    0.0, abs=4.0 * (lam / y) ** 3
                )

    def test_reference_coefficient(self):
        # the inverse-power, exponent 3 model with g0 = 0.5, lam = 1 and
        # k = m = hbar = 1: F y^7 -> -3/16
        model = make_model(family="inverse-power", exponent=3, y_max=1e6)
        assert casimir_force(model, 1000.0) * 1000.0**7 == pytest.approx(-0.1875, rel=4e-9)

    def test_constant_coupling_has_no_force(self, constant_model):
        for y in (0.0, 1.0, 10.0):
            assert casimir_force(constant_model, y) == 0.0
            assert lifshitz_force(constant_model, y) == 0.0

    def test_oracle_reproduces_the_expansion(self):
        # one oracle point at u = 1e-3, below fock.SERIES_MAX_U: the series
        # holds the relative error of <x1 x2>, and so of F, to a few RITZ_TOL,
        # and at n_max 12 the truncation error is below 1e-30; the tolerance
        # u^4 + 10 RITZ_TOL is 1.0e-12 against a 5u^2/8 term of 6.3e-7.
        # Measured 4.93e-13, the 63u^4/128 term (4.92e-13); a Lanczos solve,
        # whose stop rule bounds the error only to about RITZ_TOL / u, read
        # 5.2e-13.
        model = make_model()
        y = math.log(0.5 / 1e-3)
        u = model.g(y) / model.k
        force = fock.oracle_force(fock.FockOracle(model, 12), y)
        assert abs(force / london_force(model, y) - 1.0 - 5.0 * u**2 / 8.0) <= (
            u**4 + 10.0 * fock.RITZ_TOL
        )
