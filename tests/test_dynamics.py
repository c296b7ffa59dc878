import math
import types
import warnings

import numpy as np
import pytest

from casimir_toy import DynamicsConfig, dynamics, evolve, quantum
from casimir_toy.dynamics import OracleTooSlowWarning, Trajectory, energy_audit
from conftest import make_model


class TestDynamicsConfig:
    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            DynamicsConfig(y0=1.0, v0=0.0, dt=0.0, t_max=1.0)

    @pytest.mark.parametrize("t_max", [-5.0, 0.0, math.nan])
    def test_rejects_nonpositive_t_max(self, t_max):
        with pytest.raises(ValueError, match=r"^t_max must be > 0"):
            DynamicsConfig(y0=1.0, v0=0.0, dt=0.1, t_max=t_max)

    def test_rejects_nan_dt(self):
        with pytest.raises(ValueError, match=r"^dt must be > 0, got nan"):
            DynamicsConfig(y0=1.0, v0=0.0, dt=math.nan, t_max=1.0)

    def test_rejects_bad_route(self):
        with pytest.raises(ValueError):
            DynamicsConfig(y0=1.0, v0=0.0, dt=0.1, t_max=1.0, force_route="magic")


class TestEvolve:
    def test_constant_coupling_uniform_motion(self, constant_model):
        config = DynamicsConfig(y0=1.0, v0=0.004, dt=0.1, t_max=100.0)
        traj = evolve(constant_model, config)
        assert not traj.domain_exited
        assert np.all(traj.F == 0.0)
        expected = 1.0 + 0.004 * traj.t
        assert np.max(np.abs(traj.y - expected)) < 1e-12

    def test_attraction_from_rest(self, reference_model):
        config = DynamicsConfig(y0=2.0, v0=0.0, dt=0.1, t_max=50.0)
        traj = evolve(reference_model, config)
        assert traj.y[-1] < traj.y[0]
        assert np.all(traj.F < 0)

    def test_energy_conservation(self, reference_model):
        config = DynamicsConfig(y0=2.0, v0=0.0, dt=0.05, t_max=500.0)
        traj = evolve(reference_model, config)
        drift, series = energy_audit(traj)
        assert drift < 1e-6
        assert len(series) == len(traj)

    def test_route_independence(self, reference_model):
        kwargs = dict(y0=1.0, v0=0.0, dt=0.1, t_max=30.0)
        ta = evolve(reference_model, DynamicsConfig(force_route="casimir", **kwargs))
        tb = evolve(reference_model, DynamicsConfig(force_route="lifshitz", **kwargs))
        assert np.max(np.abs(ta.y - tb.y)) < 1e-14
        assert np.max(np.abs(ta.p_y - tb.p_y)) < 1e-14

    def test_oracle_route_tracks_analytic(self, reference_model):
        kwargs = dict(y0=0.5, v0=0.0, dt=0.2, t_max=10.0)
        analytic = evolve(reference_model, DynamicsConfig(force_route="casimir", **kwargs))
        oracle = evolve(
            reference_model,
            DynamicsConfig(force_route="oracle", oracle_n_max=40, **kwargs),
        )
        lam = reference_model.coupling.lam
        assert np.max(np.abs(analytic.y - oracle.y)) < 1e-4 * lam

    def test_time_reversal(self, reference_model):
        config = DynamicsConfig(y0=1.5, v0=-0.002, dt=0.1, t_max=50.0)
        forward = evolve(reference_model, config)
        back_config = DynamicsConfig(
            y0=float(forward.y[-1]),
            v0=float(-forward.p_y[-1] / reference_model.M),
            dt=0.1,
            t_max=50.0,
        )
        back = evolve(reference_model, back_config)
        lam = reference_model.coupling.lam
        assert abs(back.y[-1] - config.y0) < 1e-8 * lam

    def test_domain_exit_flagged(self, reference_model):
        config = DynamicsConfig(y0=0.05, v0=-0.1, dt=0.1, t_max=100.0)
        traj = evolve(reference_model, config)
        assert traj.domain_exited
        assert traj.t[-1] < 100.0

    def test_oracle_too_slow_advisory(self, reference_model, monkeypatch):
        monkeypatch.setattr(dynamics, "ORACLE_BUDGET_S", 1e-9)
        config = DynamicsConfig(
            y0=0.5, v0=0.0, dt=0.1, t_max=2.0, force_route="oracle", oracle_n_max=30,
        )
        with pytest.warns(OracleTooSlowWarning):
            traj = evolve(reference_model, config)
        assert traj.oracle_advisory

    @pytest.mark.parametrize("cold, warm, warns", [(1.0, 1e-3, False), (0.1, 1.0, True)])
    def test_oracle_budget_is_projected_from_the_first_warm_solve(
        self, reference_model, monkeypatch, cold, warm, warns
    ):
        # a scripted clock: the cold first solve reads `cold` seconds and the
        # first step `warm`.  400 steps against the 300 s budget: 1 s + 400 ms
        # stays silent where cold x steps (400 s) would warn, and 0.1 s +
        # 400 s warns once where cold x steps (40 s) would not
        readings = iter([0.0, cold, 10.0, 10.0 + warm])
        monkeypatch.setattr(dynamics, "time", types.SimpleNamespace(perf_counter=lambda: next(readings)))
        config = DynamicsConfig(
            y0=1.0, v0=0.0, dt=0.01, t_max=4.0, force_route="oracle", oracle_n_max=4,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            traj = evolve(reference_model, config)
        assert next(readings, None) is None
        assert len(traj) == 401
        assert traj.oracle_advisory == warns
        assert [w.category for w in caught] == [OracleTooSlowWarning] * warns

    def test_rejects_initial_y_outside_domain(self, reference_model):
        from casimir_toy.errors import DomainError

        config = DynamicsConfig(y0=-1.0, v0=0.0, dt=0.1, t_max=1.0)
        with pytest.raises(DomainError):
            evolve(reference_model, config)


class TestClosedFormRoutes:
    @pytest.mark.parametrize("route", ["casimir", "lifshitz"])
    @pytest.mark.parametrize(
        "family, y0, v0, exits",
        [
            ("constant", 2.0, 0.01, False),
            ("exponential", 2.0, 0.0, False),
            ("inverse-power", 2.0, 0.0, False),
            ("exponential", 0.3, -0.05, True),
        ],
    )
    def test_matches_public_functions_per_point_bit_for_bit(
        self, monkeypatch, route, family, y0, v0, exits
    ):
        model = make_model(
            family=family, g0=0.7, k=1.3, m=0.7, M=50.0, lam=0.8, exponent=3, hbar=0.9
        )
        config = DynamicsConfig(y0=y0, v0=v0, dt=0.05, t_max=100.0, force_route=route)
        traj = evolve(model, config)
        force = quantum.casimir_force if route == "casimir" else quantum.lifshitz_force
        monkeypatch.setattr(
            dynamics,
            "_route",
            lambda model, config: lambda y: (force(model, y), quantum.vacuum_energy(model, y)),
        )
        expected = evolve(model, config)
        assert traj.domain_exited is expected.domain_exited is exits
        assert len(traj) > 10
        for name in ("t", "y", "p_y", "F", "E_vac", "E_total"):
            assert np.array_equal(getattr(traj, name), getattr(expected, name)), name


class TestEnergyAudit:
    def test_single_row(self):
        traj = Trajectory(
            t=np.array([0.0]), y=np.array([1.0]), p_y=np.array([0.0]),
            F=np.array([0.0]), E_vac=np.array([1.0]), E_total=np.array([1.0]),
        )
        drift, series = energy_audit(traj)
        assert drift == 0.0
        assert series.shape == (1,)

    def test_constant_family_zero_drift(self, constant_model):
        config = DynamicsConfig(y0=1.0, v0=0.01, dt=0.1, t_max=20.0)
        traj = evolve(constant_model, config)
        drift, _ = energy_audit(traj)
        assert drift < 1e-14
