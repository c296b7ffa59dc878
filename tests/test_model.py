import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from casimir_toy import CouplingSpec, ModelParams, validate
from casimir_toy.errors import ConfigError, DomainError
from casimir_toy.model import FAMILIES, spectrum
from conftest import make_model, valid_model_strategy
from references import coupling_g, coupling_g_prime


class TestValidate:
    def test_valid_reference_model(self):
        model = make_model()
        assert model.k == 1.0
        assert not model.adiabatic_warning

    def test_coupling_exceeding_k_rejected(self):
        with pytest.raises(ConfigError, match="positivity"):
            make_model(g0=1.5)

    def test_coupling_equal_to_k_rejected(self):
        # constraint is strict: g(y_min) < k
        with pytest.raises(ConfigError, match="positivity"):
            make_model(g0=1.0, family="constant")

    def test_negative_mass_rejected(self):
        with pytest.raises(ConfigError, match=r"model\.m must be > 0"):
            make_model(m=-1.0)

    @pytest.mark.parametrize("field,value", [("k", 0.0), ("M", -5.0), ("hbar", 0.0)])
    def test_nonpositive_parameters_rejected(self, field, value):
        with pytest.raises(ConfigError, match=rf"model\.{field} must be > 0"):
            make_model(**{field: value})

    def test_negative_g0_rejected(self):
        with pytest.raises(ConfigError, match=r"model\.coupling\.g0 must be >= 0"):
            make_model(g0=-0.1)

    def test_inverse_power_negative_y_min_rejected(self):
        with pytest.raises(ConfigError, match=r"model\.coupling\.y_min must be >= 0"):
            make_model(family="inverse-power", y_min=-1.0)

    def test_exponential_slope_overflow_rejected(self):
        # g(0) = 1e9 < k, but g'(0) = -(g0 / lambda) exp(0) overflows to -inf
        with pytest.raises(ConfigError) as exc:
            make_model(family="exponential", k=1e10, g0=1e9, lam=1e-300)
        assert "model.coupling.g0" in str(exc.value)
        assert "model.coupling.lambda" in str(exc.value)

    def test_heavy_mass_whose_double_overflows_rejected(self):
        # 2M is the kinetic energy's denominator: at M = 1e308 it was inf, so
        # p^2 / 2M read 0 and evolve reported a drift of 0
        with pytest.raises(ConfigError, match=r"^model\.M = 1e\+308 must be at most"):
            make_model(M=1e308)
        assert make_model(M=sys.float_info.max / 2).M == sys.float_info.max / 2

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError, match=r"model\.coupling\.family must be one of"):
            validate(ModelParams(m=1, M=1, k=1, coupling=CouplingSpec("cubic", 0.5)))

    def test_adiabatic_warning_for_small_mass_ratio(self):
        assert make_model(M=10.0).adiabatic_warning
        assert not make_model(M=100.0).adiabatic_warning

    def test_validated_model_is_immutable(self):
        model = make_model()
        with pytest.raises(AttributeError):
            model.k = 2.0


class TestCoupling:
    def test_exponential_at_zero(self):
        spec = CouplingSpec("exponential", 0.5, 1.0)
        assert spec.value(0.0) == 0.5

    def test_exponential_halves_at_ln2(self):
        spec = CouplingSpec("exponential", 0.5, 1.0)
        assert spec.value(math.log(2)) == pytest.approx(0.25, rel=1e-14)

    def test_inverse_power_at_lambda(self):
        spec = CouplingSpec("inverse-power", 0.5, 1.0, exponent=2)
        assert spec.value(1.0) == pytest.approx(0.25, rel=1e-14)

    def test_constant(self):
        spec = CouplingSpec("constant", 0.3)
        assert spec.value(7.7) == 0.3
        assert spec.derivative(7.7) == 0.0

    def test_outside_domain_raises(self):
        spec = CouplingSpec("exponential", 0.5, 1.0, y_min=0.0, y_max=10.0)
        with pytest.raises(DomainError):
            spec.value(-0.1)
        with pytest.raises(DomainError):
            spec.derivative(10.5)

    def test_exponential_derivative_at_zero(self):
        spec = CouplingSpec("exponential", 0.5, 1.0)
        assert spec.derivative(0.0) == pytest.approx(-0.5, rel=1e-14)

    def test_inverse_power_derivative_matches_finite_difference(self):
        spec = CouplingSpec("inverse-power", 0.5, 1.0, exponent=2)
        h = 1e-5
        fd = (spec.value(1.0 + h) - spec.value(1.0 - h)) / (2 * h)
        assert spec.derivative(1.0) == pytest.approx(fd, rel=1e-6)
        assert spec.derivative(1.0) == pytest.approx(-0.25, rel=1e-10)

    @given(
        family=st.sampled_from(["constant", "exponential", "inverse-power"]),
        g0=st.floats(min_value=0.01, max_value=0.9),
        lam=st.floats(min_value=0.5, max_value=2.0),
        y=st.floats(min_value=0.1, max_value=9.9),
    )
    def test_derivative_matches_finite_difference_everywhere(self, family, g0, lam, y):
        spec = CouplingSpec(family, g0, lam, exponent=3)
        h = 1e-5 * lam
        fd = (spec.value(y + h) - spec.value(y - h)) / (2 * h)
        analytic = spec.derivative(y)
        assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-12)


def textbook_inverse_power(spec, y):
    """g and g' of the inverse-power family in s = y/lam, as first written.
    (1 + s^p)^2 overflows for large y/lam: OverflowError on floats, inf (and
    a wrong g' of 0) on arrays."""
    s = y / spec.lam
    p = spec.exponent
    denominator = (1.0 + s**p) ** 2
    return spec.g0 / (1.0 + s**p), -spec.g0 * p * s ** (p - 1) / (spec.lam * denominator)


class TestInversePowerRange:
    """g and g' stay finite for any y/lambda; a tiny lambda used to overflow."""

    @pytest.mark.parametrize("lam", [1e-100, 1e-200])
    def test_tiny_lambda_finite_without_warnings(self, lam):
        spec = CouplingSpec("inverse-power", 0.5, lam, exponent=4)
        grid = np.concatenate([lam * np.logspace(-3, 3, 61), np.linspace(0.0, 10.0, 101)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for y in [grid, *grid.tolist()]:
                assert np.all(np.isfinite(spec.value(y)))
                assert np.all(np.isfinite(spec.derivative(y)))

    @pytest.mark.parametrize("lam", [1e-100, 1e-200])
    def test_tiny_lambda_vanishes_far_out(self, lam):
        spec = CouplingSpec("inverse-power", 0.5, lam, exponent=4)
        for y in (5.0, 10.0, np.array([5.0, 10.0])):
            assert np.all(spec.value(y) == 0.0)
            assert np.all(spec.derivative(y) == 0.0)

    @pytest.mark.parametrize("lam", [1e-200, 1e-100, 0.7])
    @pytest.mark.parametrize("exponent", range(1, 13))
    def test_matches_textbook_formula_where_it_is_finite(self, lam, exponent):
        spec = CouplingSpec("inverse-power", 0.5, lam, exponent=exponent)
        rng = np.random.default_rng(exponent)
        y = np.concatenate([[0.0, lam], lam * 10 ** rng.uniform(-3, 3, 400),
                            rng.uniform(0.0, 10.0, 200)])
        y = y[y <= 10.0]
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        # compared where the textbook formula neither overflows nor rounds to
        # a subnormal number, whose relative precision is lower
        with np.errstate(over="ignore", invalid="ignore"):
            fits = np.isfinite((1.0 + (y / lam) ** exponent) ** 2)
            expected = textbook_inverse_power(spec, y)
        for got, want in zip((spec.value(y), spec.derivative(y)), expected):
            compared = fits & ((want == 0) | (np.abs(want) >= tiny))
            assert compared.sum() > len(y) // 4
            np.testing.assert_allclose(got[compared], want[compared], rtol=16 * eps, atol=0)
        for v in y[fits].tolist():
            for got, want in zip((spec.value(v), spec.derivative(v)),
                                 textbook_inverse_power(spec, v)):
                if want == 0 or abs(want) >= tiny:
                    assert got == pytest.approx(want, rel=16 * eps, abs=0)


def float_bits(v):
    """The float64 bit patterns of a float or an array, so that -0.0 and 0.0
    differ."""
    return np.asarray(v, dtype=np.float64).view(np.int64)


class TestPairFormula:
    """Each family's one (g, g') formula has the bits of g and g' evaluated
    by separate formulas, for a float (math) and for an array (numpy)."""

    @given(
        family=st.sampled_from(FAMILIES),
        g0=st.floats(min_value=0.0, max_value=0.9),
        lam=st.one_of(st.floats(min_value=1e-3, max_value=9.0), st.sampled_from([1e-200, 1e-100])),
        exponent=st.integers(min_value=1, max_value=12),
        ys=st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=20),
    )
    def test_pair_is_the_separate_formulas_bit_for_bit(self, family, g0, lam, exponent, ys):
        spec = CouplingSpec(family, g0, lam, exponent=exponent)
        # inverse-power switches from the terms in y/lam to those in lam/y at
        # y = lam; the window ends bound every trajectory
        around_lam = [float(np.nextafter(lam, 0.0)), lam, float(np.nextafter(lam, 11.0)),
                      0.5 * lam, 2.0 * lam]
        points = [spec.y_min, spec.y_max, *(y for y in around_lam if y <= spec.y_max), *ys]
        pair = spec._formulas()
        for y, xp in [*((y, math) for y in points), (np.array(points), np)]:
            want = coupling_g(spec, y, xp), coupling_g_prime(spec, y, xp)
            for got in (pair(spec, y, xp), spec.pair(y), (spec.value(y), spec.derivative(y))):
                assert len(got) == 2
                for a, b in zip(got, want):
                    assert np.array_equal(float_bits(a), float_bits(b)), (y, a, b)


class TestSpectrum:
    def test_free_case_degenerate(self):
        model = make_model(g0=0.0)
        _, wp, wm = spectrum(model, 0.0)
        assert wp == wm == model.omega == 1.0

    def test_reference_frequencies(self, reference_model):
        g, wp, wm = spectrum(reference_model, 0.0)
        assert g == reference_model.g(0.0)
        assert wp == pytest.approx(math.sqrt(1.5), rel=1e-14)
        assert wm == pytest.approx(math.sqrt(0.5), rel=1e-14)

    def test_soft_mode_limit(self):
        # g -> k^- drives the minus frequency to zero
        model = make_model(g0=1.0 - 1e-10, family="constant")
        _, wp, wm = spectrum(model, 0.0)
        assert 0 < wm < 1e-4
        assert wp > model.omega > wm

    @given(valid_model_strategy(), st.floats(min_value=0.0, max_value=10.0))
    def test_sum_rules(self, model, y):
        g, wp, wm = spectrum(model, y)
        assert wp**2 + wm**2 == pytest.approx(2 * model.omega**2, rel=1e-12)
        assert wp**2 - wm**2 == pytest.approx(2 * g / model.m, rel=1e-12, abs=1e-12)
        assert wp >= model.omega >= wm > 0
