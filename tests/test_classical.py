import math

import numpy as np
import pytest

from casimir_toy.classical import _DRIFT, _KICK, PhaseState, evolve_classical, total_energy
from casimir_toy.model import spectrum
from conftest import make_model
from references import coupling_g, coupling_g_prime


def numpy_yoshida(model, initial, dt, t_max):
    """Reference Yoshida flow stepping 3-element numpy arrays: the columns
    (t, x1, x2, y, p1, p2, p_y, energy) and whether y left the domain."""
    c = model.coupling
    q = np.array([initial.x1, initial.x2, initial.y])
    p = np.array([initial.p1, initial.p2, initial.p_y])
    masses = np.array([model.m, model.m, model.M])

    def forces(q):
        x1, x2, y = q.tolist()
        g, gp = coupling_g(c, y, math), coupling_g_prime(c, y, math)
        return np.array([-model.k * x1 - g * x2, -model.k * x2 - g * x1, -gp * x1 * x2])

    rows = [(initial.t, *q, *p)]
    exited = False
    t = initial.t
    for _ in range(int(round(t_max / dt))):
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
    kin = (p1 * p1 + p2 * p2) / (2.0 * model.m) + p_y * p_y / (2.0 * model.M)
    pot = model.k * (x1 * x1 + x2 * x2) / 2.0 + coupling_g(c, y, np) * x1 * x2
    return (t, x1, x2, y, p1, p2, p_y, kin + pot), exited


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

    @pytest.mark.parametrize("t_max", [-5.0, 0.0, math.nan])
    def test_rejects_nonpositive_t_max(self, reference_model, t_max):
        initial = PhaseState(0, 0, 1.0, 0, 0, 0)
        with pytest.raises(ValueError, match=r"^t_max must be > 0"):
            evolve_classical(reference_model, initial, dt=0.01, t_max=t_max)

    def test_rejects_nan_dt(self, reference_model):
        initial = PhaseState(0, 0, 1.0, 0, 0, 0)
        with pytest.raises(ValueError, match=r"^dt must be > 0, got nan"):
            evolve_classical(reference_model, initial, dt=math.nan, t_max=1.0)

    @pytest.mark.parametrize(
        "family, p_y, exits",
        [
            ("constant", 1.5, False),
            ("exponential", 1.5, False),
            ("inverse-power", 1.5, False),
            ("exponential", -60.0, True),
        ],
    )
    def test_float_step_matches_numpy_reference_bit_for_bit(self, family, p_y, exits):
        model = make_model(family=family, g0=0.7, k=1.3, m=0.7, M=50.0, lam=0.8, exponent=3)
        initial = PhaseState(0.3, -0.7, 2.0, 0.1, 0.2, p_y, t=0.25)
        traj = evolve_classical(model, initial, dt=0.03, t_max=60.0)
        columns, exited = numpy_yoshida(model, initial, dt=0.03, t_max=60.0)
        assert traj.domain_exited is exited is exits
        names = ("t", "x1", "x2", "y", "p1", "p2", "p_y", "energy")
        for name, expected in zip(names, columns):
            assert np.array_equal(getattr(traj, name), expected), name

    def test_rejects_step_count_above_max_rows(self, reference_model):
        initial = PhaseState(0, 0, 1.0, 0, 0, 0)
        with pytest.raises(ValueError, match=r"t_max / dt must be <= 1000000 steps"):
            evolve_classical(reference_model, initial, dt=1e-300, t_max=1e300)

    def test_rejects_step_count_rounding_to_zero(self, reference_model):
        initial = PhaseState(0, 0, 1.0, 0, 0, 0)
        with pytest.raises(ValueError, match=r"t_max / dt rounds to 0 steps"):
            evolve_classical(reference_model, initial, dt=1.0, t_max=0.4)

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
