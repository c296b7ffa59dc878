import math

import numpy as np
import pytest

from casimir_toy.classical import PhaseState, evolve_classical, total_energy
from casimir_toy.model import spectrum
from conftest import make_model


class TestEvolveClassical:
    def test_decoupled_case_exact_oscillation(self):
        model = make_model(g0=0.0)
        initial = PhaseState(x1=1.0, x2=0.0, y=1.0, p1=0.0, p2=0.0, p_y=0.5, t=0.0)
        traj = evolve_classical(model, initial, dt=0.005, t_max=10.0)
        assert not traj.domain_exited
        # x1 is a free cosine, y moves uniformly at p_y / M
        expected_x1 = np.cos(traj.t)
        assert np.max(np.abs(traj.x1 - expected_x1)) < 1e-6
        expected_y = 1.0 + 0.5 / model.M * traj.t
        assert np.max(np.abs(traj.y - expected_y)) < 1e-12

    def test_energy_drift_long_run(self, reference_model):
        _, omega_plus, _ = spectrum(reference_model, 0.0)
        dt = 0.01 * 2 * math.pi / omega_plus
        initial = PhaseState(0.3, -0.7, 2.0, 0.1, 0.2, 0.0)
        traj = evolve_classical(reference_model, initial, dt=dt, t_max=100_000 * dt)
        drift = np.max(np.abs(traj.energy - traj.energy[0])) / abs(traj.energy[0])
        assert drift < 1e-6

    def test_domain_exit_flagged(self, reference_model):
        # strong outward y-velocity leaves [0, 10] quickly
        initial = PhaseState(0.0, 0.0, 9.5, 0, 0, reference_model.M * 1.0)
        traj = evolve_classical(reference_model, initial, dt=0.01, t_max=5.0)
        assert traj.domain_exited
        assert traj.y[-1] <= 10.0

    def test_rejects_nonpositive_dt(self, reference_model):
        initial = PhaseState(0, 0, 1.0, 0, 0, 0)
        with pytest.raises(ValueError):
            evolve_classical(reference_model, initial, dt=0.0, t_max=1.0)

    def test_rejects_step_count_above_max_rows(self, reference_model):
        initial = PhaseState(0, 0, 1.0, 0, 0, 0)
        with pytest.raises(ValueError, match=r"t_max / dt must be <= 1000000 steps"):
            evolve_classical(reference_model, initial, dt=1e-300, t_max=1e300)

    def test_adiabatic_frequency_tracking(self):
        # M/m = 1e4 with slow y drift: windowed frequencies of x+- track
        # the instantaneous spectrum within 1%
        model = make_model(M=10_000.0, g0=0.5)
        v_y = 2.5e-4
        initial = PhaseState(
            x1=0.1, x2=0.0, y=0.5, p1=0.0, p2=0.0, p_y=model.M * v_y
        )
        dt = 0.02
        traj = evolve_classical(model, initial, dt=dt, t_max=400.0)
        assert not traj.domain_exited
        x_plus = (traj.x1 + traj.x2) / math.sqrt(2)
        x_minus = (traj.x1 - traj.x2) / math.sqrt(2)
        n = len(traj.t)
        for lo, hi in [(0, n // 2), (n // 2, n)]:
            y_mid = traj.y[(lo + hi) // 2]
            _, omega_plus, omega_minus = spectrum(model, y_mid)
            for series, expected in [
                (x_plus[lo:hi], omega_plus),
                (x_minus[lo:hi], omega_minus),
            ]:
                measured = dominant_angular_frequency(series, dt)
                assert measured == pytest.approx(expected, rel=0.01)


def dominant_angular_frequency(series: np.ndarray, dt: float) -> float:
    """Peak of the windowed spectrum with parabolic sub-bin interpolation."""
    window = np.hanning(len(series))
    amp = np.abs(np.fft.rfft(series * window))
    k = int(np.argmax(amp[1:])) + 1
    if 1 <= k < len(amp) - 1:
        a, b, c = np.log(amp[k - 1]), np.log(amp[k]), np.log(amp[k + 1])
        delta = 0.5 * (a - c) / (a - 2 * b + c)
    else:
        delta = 0.0
    freq = (k + delta) / (len(series) * dt)
    return 2 * math.pi * freq


class TestTotalEnergy:
    def test_matches_hand_evaluation(self, reference_model):
        state = PhaseState(x1=1.0, x2=-1.0, y=0.0, p1=2.0, p2=0.0, p_y=3.0)
        # kinetic + k(x1^2 + x2^2)/2 + g(0) x1 x2
        expected = 2.0 + 9.0 / 2000.0 + 1.0 + 0.5 * (1.0) * (-1.0)
        assert total_energy(reference_model, state) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("family", ["constant", "exponential", "inverse-power"])
    def test_trajectory_energy_column_matches_scalar(self, family):
        model = make_model(family=family, g0=0.5, M=50.0, exponent=3)
        initial = PhaseState(0.3, -0.7, 2.0, 0.1, 0.2, 1.5)
        traj = evolve_classical(model, initial, dt=0.05, t_max=50.0)
        scalar = [
            total_energy(model, PhaseState(*row[1:], row[0]))
            for row in zip(traj.t, traj.x1, traj.x2, traj.y, traj.p1, traj.p2, traj.p_y)
        ]
        np.testing.assert_allclose(traj.energy, scalar, rtol=1e-12, atol=0)
