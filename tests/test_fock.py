import copy
import math
import statistics

import numpy as np
import pytest
import scipy.linalg

from casimir_toy import (
    DynamicsConfig,
    bogoliubov_coefficients,
    casimir_force,
    dynamics,
    evolve,
    fock,
    ground_state,
    squeezed_vacuum_expansion,
    vacuum_fluctuations,
    verify_annihilation,
)
from casimir_toy.errors import NoConvergenceError, TruncationMismatchError
from casimir_toy.fock import (
    FockOracle,
    build_hamiltonian,
    free_vacuum_correlation,
    ground_state_structure_checks,
    oracle_force,
    oracle_observables,
    position_matrix,
)
from conftest import make_model


@pytest.fixture(scope="module")
def reference_ground_state():
    model = make_model()
    return model, ground_state(FockOracle(model, 40), 0.0)


class TestBuildHamiltonian:
    def test_dimension(self, reference_model):
        assert build_hamiltonian(reference_model, 0.0, 5).matrix.shape == (6**2, 6**2)

    def test_free_case_is_diagonal(self):
        model = make_model(g0=0.0)
        h = build_hamiltonian(model, 0.0, 5).matrix
        off_diag = h - np.diag(np.diag(h))
        assert np.max(np.abs(off_diag)) == 0.0
        h4 = h.reshape((6,) * 4)  # h4[n, n', m, m'] = <n,n'|H|m,m'>
        for n in range(6):
            for n_prime in range(6):
                assert h4[n, n_prime, n, n_prime] == (
                    pytest.approx(n + n_prime + 1, rel=1e-14)
                )

    def test_pair_creation_element(self, reference_model):
        h = build_hamiltonian(reference_model, 0.0, 5).matrix.reshape((6,) * 4)
        # <0,0|H|1,1> = g hbar / (2 m omega)
        assert h[0, 0, 1, 1] == pytest.approx(0.5 / 2.0, rel=1e-14)

    def test_band_structure(self, reference_model):
        h = build_hamiltonian(reference_model, 0.0, 6).matrix
        for i in range(7**2):
            n, np_ = divmod(i, 7)  # flat index n * (n_max + 1) + n'
            for j in range(7**2):
                m_, mp_ = divmod(j, 7)
                if h[i, j] != 0.0 and i != j:
                    assert abs(n - m_) == 1 and abs(np_ - mp_) == 1

    def test_symmetry(self, reference_model):
        h = build_hamiltonian(reference_model, 0.3, 10).matrix
        assert np.max(np.abs(h - h.T)) < 1e-14

    def test_position_matrix_scale(self, reference_model):
        x = position_matrix(reference_model, 4)
        assert x[0, 1] == pytest.approx(math.sqrt(0.5), rel=1e-14)
        assert x[1, 2] == pytest.approx(1.0, rel=1e-14)


class TestGroundState:
    def test_rejects_small_cutoff(self, reference_model):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            FockOracle(reference_model, 0)

    def test_free_ground_state(self):
        model = make_model(g0=0.0)
        gs = ground_state(FockOracle(model, 8), 0.0)
        assert gs.E0 == pytest.approx(1.0, rel=1e-12)
        assert gs.amplitudes[0, 0] == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.norm(gs.amplitudes.ravel()[1:]) < 1e-12

    def test_reference_energy_converged(self, reference_ground_state):
        model, gs = reference_ground_state
        analytic = (math.sqrt(1.5) + math.sqrt(0.5)) / 2
        assert gs.E0 == pytest.approx(analytic, rel=1e-6)

    def test_normalization_and_residual(self, reference_ground_state):
        model, gs = reference_ground_state
        assert abs(np.linalg.norm(gs.amplitudes) - 1.0) < 1e-12
        h_max = 2 * 40 + 1 + 0.5  # bound on ||H||_max entries at n_max=40
        assert gs.residual_norm < 1e-10 * h_max

    def test_variational_monotonicity(self, reference_model):
        energies = []
        for n_max in (4, 8, 12, 16, 20):
            gs = ground_state(FockOracle(reference_model, n_max), 0.0)
            energies.append(gs.E0)
        diffs = np.diff(energies)
        assert np.all(diffs <= 1e-14)

    def test_sign_convention(self, reference_ground_state):
        _, gs = reference_ground_state
        assert gs.amplitudes[0, 0] > 0


class TestOracleObservables:
    def test_free_case(self):
        model = make_model(g0=0.0)
        oracle = FockOracle(model, 8)
        obs = oracle_observables(oracle, ground_state(oracle, 0.0))
        assert abs(obs.x1x2) < 1e-14
        assert abs(obs.N1) < 1e-14 and abs(obs.N2) < 1e-14

    def test_reference_values_match_analytic(self, reference_model):
        oracle = FockOracle(reference_model, 40)
        obs = oracle_observables(oracle, ground_state(oracle, 0.0))
        analytic = vacuum_fluctuations(reference_model, 0.0)
        assert obs.E_vac == pytest.approx(analytic.E_vac, rel=1e-6)
        assert obs.x1x2 == pytest.approx(analytic.x1x2, rel=1e-6)
        assert obs.x_plus_sq == pytest.approx(analytic.x_plus_sq, rel=1e-6)
        assert obs.x_minus_sq == pytest.approx(analytic.x_minus_sq, rel=1e-6)
        assert obs.N1 == pytest.approx(analytic.N1, rel=1e-6)

    def test_exchange_symmetry_of_quanta(self, reference_model):
        oracle = FockOracle(reference_model, 20)
        obs = oracle_observables(oracle, ground_state(oracle, 0.0))
        assert abs(obs.N1 - obs.N2) < 1e-10

    def test_oracle_force_matches_analytic(self, reference_model):
        from casimir_toy import lifshitz_force

        f = oracle_force(FockOracle(reference_model, 30), 0.0)
        assert f == pytest.approx(lifshitz_force(reference_model, 0.0), rel=1e-6)


class TestVerifyAnnihilation:
    def test_free_case_exact_zero(self):
        model = make_model(g0=0.0)
        exp = squeezed_vacuum_expansion(
            bogoliubov_coefficients(model, 0.0), "plus", N_max=5
        )
        assert verify_annihilation(exp, 10) == 0.0

    def test_geometric_decay(self, reference_model):
        # residuals decay like r**N with an sqrt(N+1) occupation prefactor;
        # below ~1e-17 they bottom out at the float64 rounding floor, so the
        # probe stays at orders where the true tail term still dominates
        coeffs = bogoliubov_coefficients(reference_model, 0.0)
        r = abs(coeffs.beta_1p / coeffs.alpha_1p)
        orders = [10, 12, 14]
        residuals = []
        for n in orders:
            exp = squeezed_vacuum_expansion(coeffs, "plus", N_max=n)
            residuals.append(verify_annihilation(exp, 35))
        for i in range(len(orders) - 1):
            step = orders[i + 1] - orders[i]
            measured = (residuals[i + 1] / residuals[i]) ** (1 / step)
            assert measured == pytest.approx(r, rel=0.05)
        # with the occupation prefactor divided out, r is recovered sharply
        norm = [res / math.sqrt(n + 1) for res, n in zip(residuals, orders)]
        exact = (norm[-1] / norm[0]) ** (1 / (orders[-1] - orders[0]))
        assert exact == pytest.approx(r, rel=1e-6)

    def test_doubling_order_reduces_by_ratio_power(self):
        # strong coupling keeps the order-20 residual far above the
        # rounding floor so the doubling factor is cleanly measurable
        model = make_model(g0=0.9, family="constant")
        coeffs = bogoliubov_coefficients(model, 0.0)
        r = abs(coeffs.beta_1m / coeffs.alpha_1m)
        res10 = verify_annihilation(
            squeezed_vacuum_expansion(coeffs, "minus", N_max=10), 30
        )
        res20 = verify_annihilation(
            squeezed_vacuum_expansion(coeffs, "minus", N_max=20), 30
        )
        factor = res20 / res10
        # sqrt(21/11) occupation prefactor allowed for
        assert factor == pytest.approx(r**10 * math.sqrt(21 / 11), rel=1e-6)

    def test_truncation_mismatch(self, reference_model):
        exp = squeezed_vacuum_expansion(
            bogoliubov_coefficients(reference_model, 0.0), "plus", N_max=12
        )
        with pytest.raises(TruncationMismatchError):
            verify_annihilation(exp, 10)


class TestGroundStateStructure:
    def test_free_case_single_amplitude(self):
        model = make_model(g0=0.0)
        gs = ground_state(FockOracle(model, 6), 0.0)
        report = ground_state_structure_checks(gs)
        assert report.symmetry_violation < 1e-12
        assert report.odd_parity_mass < 1e-24
        assert abs(gs.amplitudes[0, 0]) == pytest.approx(1.0, rel=1e-12)

    def test_exchange_symmetry(self, reference_ground_state):
        _, gs = reference_ground_state
        report = ground_state_structure_checks(gs)
        assert report.symmetry_violation < 1e-10

    def test_odd_parity_mass(self, reference_ground_state):
        _, gs = reference_ground_state
        report = ground_state_structure_checks(gs)
        assert report.odd_parity_mass < 1e-20


class TestFreeVacuumCorrelation:
    def test_double_vacuum(self, reference_model):
        psi2 = np.zeros(11)
        psi2[0] = 1.0
        assert free_vacuum_correlation(reference_model, 10, psi2) == 0.0

    def test_superposition_state(self, reference_model):
        psi2 = np.zeros(11)
        psi2[0] = psi2[1] = 1 / math.sqrt(2)
        assert abs(free_vacuum_correlation(reference_model, 10, psi2)) < 1e-12

    def test_random_states_sweep(self, reference_model):
        rng = np.random.default_rng(7)
        for _ in range(100):
            psi2 = rng.normal(size=13)
            psi2 /= np.linalg.norm(psi2)
            assert abs(free_vacuum_correlation(reference_model, 12, psi2)) < 1e-12

    def test_unnormalized_rejected(self, reference_model):
        with pytest.raises(ValueError):
            free_vacuum_correlation(reference_model, 5, np.ones(6))


def dense_parts(model, n_max):
    """H0, V = x (x) x, x and N of H(y) = H0 + g(y) V, built densely from
    Kronecker products."""
    side = n_max + 1
    a = np.diag(np.sqrt(np.arange(1.0, side)), k=1)
    x = math.sqrt(model.hbar / (2 * model.m * model.omega)) * (a + a.T)
    num = np.diag(np.arange(side, dtype=float))
    eye = np.eye(side)
    h0 = model.hbar * model.omega * (
        np.kron(num, eye) + np.kron(eye, num) + np.eye(side**2)
    )
    return h0, np.kron(x, x), x, num


def dense_reference(model, y, n_max):
    """E0 and observables from a dense kron-built H and scipy.linalg.eigh."""
    h0, v_op, x, num = dense_parts(model, n_max)
    eye = np.eye(n_max + 1)
    vals, vecs = scipy.linalg.eigh(h0 + model.g(y) * v_op, subset_by_index=[0, 0])
    v = vecs[:, 0]

    def expect(op):
        return float(v @ op @ v)

    x1_sq, x2_sq = expect(np.kron(x @ x, eye)), expect(np.kron(eye, x @ x))
    x1x2 = expect(v_op)
    return float(vals[0]), {
        "x1x2": x1x2,
        "x_plus_sq": (x1_sq + x2_sq) / 2 + x1x2,
        "x_minus_sq": (x1_sq + x2_sq) / 2 - x1x2,
        "N1": expect(np.kron(num, eye)),
        "N2": expect(np.kron(eye, num)),
    }


def assert_matches(gs, obs, e0, expected):
    assert gs.E0 == pytest.approx(e0, rel=1e-13)
    for name, value in expected.items():
        assert getattr(obs, name) == pytest.approx(value, rel=1e-12, abs=1e-15), name


def sector_matrix(oracle, g):
    """H on the oracle's sector coordinates, densely, from the full-table
    apply of each coordinate's table."""
    n, m = oracle.pairs
    tables = np.stack([oracle.table(e) for e in np.eye(n.size)])
    return oracle.apply(g, tables)[:, n, m] * oracle.weight


def total_steps(monkeypatch, run):
    """Lanczos steps of every ground_state solve that run() makes."""
    steps = 0
    solve = fock.ground_state

    def counting(oracle, y):
        nonlocal steps
        gs = solve(oracle, y)
        steps += gs.steps
        return gs

    with monkeypatch.context() as patch:
        patch.setattr(fock, "ground_state", counting)
        run()
    return steps


FAMILIES = ("constant", "exponential", "inverse-power")


class TestSparseOracle:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n_max", [1, 4, 12, 24])
    def test_matches_dense_eigh(self, family, n_max):
        model = make_model(g0=0.6, family=family)
        oracle = FockOracle(model, n_max)
        gs = ground_state(oracle, 0.4)
        e0, expected = dense_reference(model, 0.4, n_max)
        assert_matches(gs, oracle_observables(oracle, gs), e0, expected)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_warm_started_grid_matches_cold_solves(self, family):
        model = make_model(g0=0.6, family=family)
        warm = FockOracle(model, 16)
        for y in np.linspace(0.0, 3.0, 7):
            gs = ground_state(warm, y)
            cold = FockOracle(model, 16)
            gs_cold = ground_state(cold, y)
            obs_cold = oracle_observables(cold, gs_cold)
            expected = {name: getattr(obs_cold, name)
                        for name in ("x1x2", "x_plus_sq", "x_minus_sq", "N1", "N2")}
            assert_matches(gs, oracle_observables(warm, gs), gs_cold.E0, expected)

    def test_dense_view_is_the_sparse_hamiltonian(self, reference_model):
        # the audit view, the oracle's table matvec and a Kronecker-built H agree
        h0, v_op, _, _ = dense_parts(reference_model, 6)
        h = h0 + reference_model.g(0.7) * v_op
        assert np.array_equal(build_hamiltonian(reference_model, 0.7, 6).matrix, h)
        c = np.random.default_rng(3).normal(size=(7, 7))
        applied = FockOracle(reference_model, 6).apply(reference_model.g(0.7), c)
        np.testing.assert_allclose(applied.ravel(), h @ c.ravel(), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_sector_stencil_is_the_table_hamiltonian(self, family):
        # the stencil matvec of random sector coordinates u equals the
        # full-table apply on the unpacked table, repacked, to rounding
        model = make_model(g0=0.6, family=family)
        rng = np.random.default_rng(11)
        for n_max in range(1, 13):
            oracle = FockOracle(model, n_max)
            g = model.g(0.4)
            n, m = oracle.pairs
            assert n.size == (n_max + 2) ** 2 // 4
            u = rng.normal(size=n.size)
            table = oracle.apply(g, oracle.table(u))
            h_norm = np.linalg.norm(build_hamiltonian(model, 0.4, n_max).matrix, 2)
            np.testing.assert_allclose(
                oracle.sector_operator(g)(u),
                table[n, m] * oracle.weight,
                rtol=0,
                atol=4 * np.finfo(float).eps * h_norm * np.linalg.norm(u),
            )

    def test_residual_is_the_full_table_residual(self, reference_model):
        oracle = FockOracle(reference_model, 12)
        for y in (0.0, 0.5, 1.0):
            gs = ground_state(oracle, y)
            c = gs.amplitudes
            r = oracle.apply(reference_model.g(y), c) - gs.E0 * c
            assert gs.residual_norm == pytest.approx(np.linalg.norm(r), rel=1e-12, abs=0)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_correlation_is_the_table_contraction(self, family):
        # u . (V u) from the stencil against sum c o (x c x) on the unpacked
        # table, for random normalized u: the two sum the same products in
        # a different order, so they agree to a few epsilon ||V|| = ||x||^2
        model = make_model(g0=0.6, family=family, m=2.0, k=3.0, hbar=0.7)
        rng = np.random.default_rng(5)
        for n_max in range(1, 41):
            oracle = FockOracle(model, n_max)
            for _ in range(3):
                u = rng.normal(size=oracle.pairs[0].size)
                u /= np.linalg.norm(u)
                expected = fock.cross_correlation(oracle.table(u), oracle.x)
                scale = np.linalg.norm(oracle.x, 2) ** 2
                assert abs(oracle.correlation(u) - expected) <= 4 * np.finfo(float).eps * scale

    def test_table_and_residual_are_computed_when_first_read(self, reference_model):
        # a solve leaves both unbuilt, so a force evaluation never pays for them
        gs = ground_state(FockOracle(reference_model, 12), 0.5)
        assert "amplitudes" not in vars(gs) and "residual_norm" not in vars(gs)
        assert gs.amplitudes is gs.amplitudes
        assert np.array_equal(gs.amplitudes, gs.oracle.table(gs.vector))
        assert gs.residual_norm < 1e-12
        assert "residual_norm" in vars(gs)

    def test_edge_mass_tracks_truncation(self, reference_model):
        def edge(n_max):
            return ground_state(FockOracle(reference_model, n_max), 0.0).edge_mass()

        assert edge(2) > 1e-6
        assert edge(30) < 1e-20


class TestLanczos:
    def test_warm_start_takes_few_steps(self, reference_model):
        # 300-point slow sweep, each solve started from the last ground state:
        # the cold first solve takes 40 steps at both cutoffs, the warm ones
        # a median of 12 (n_max=20) and 18 (n_max=40); the bounds allow one
        # more convergence check
        for n_max, bound in ((20, 15), (40, 22)):
            oracle = FockOracle(reference_model, n_max)
            steps = [ground_state(oracle, y).steps for y in np.linspace(1.0, 1.03, 300)]
            assert steps[0] > bound
            assert statistics.median(steps) <= bound

    def test_warm_solves_skip_the_checks_they_cannot_stop_at(self, reference_model, monkeypatch):
        # the sweep above: a warm solve checks at k = 1 and then from the
        # schedule point below the last warm solve's step count, so it needs a
        # median of 2 dense eigh calls where checking at every point took 10
        # (n_max=20) and 12 (n_max=40)
        calls = 0
        eigh = np.linalg.eigh

        def counting_eigh(a):
            nonlocal calls
            calls += 1
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        for n_max in (20, 40):
            oracle = FockOracle(reference_model, n_max)
            per_solve = []
            for y in np.linspace(1.0, 1.03, 300):
                before = calls
                ground_state(oracle, y)
                per_solve.append(calls - before)
            assert statistics.median(per_solve[1:]) <= 3

    @pytest.mark.parametrize("n_max", [12, 24, 40])
    def test_warm_sweep_to_tiny_coupling_keeps_the_correlation(self, n_max):
        # g/k from 0.5 down to 1e-9, each solve warm-started: the stop rule
        # relative to |theta_0| keeps <x1 x2> within 3e-13 here; a floor of
        # epsilon ||T_k|| let the error grow to about 1e-9
        model = make_model(y_max=25.0)
        oracle = FockOracle(model, n_max)
        for y in np.linspace(0.0, math.log(5e8), 200):
            x1x2 = fock.cross_correlation(ground_state(oracle, y).amplitudes, oracle.x)
            exact = vacuum_fluctuations(model, y).x1x2
            assert abs(x1x2 - exact) <= 1e-12 * abs(exact), y

    def test_extrapolated_start_is_the_quadratic_through_the_last_three(self, reference_model):
        # on a quadratic path u(g) = a + b g + c g^2 the Newton-form start is
        # exact; it falls back to the last ground state when two g coincide,
        # below the g/k cut, or when the quadratic term is not small against
        # the linear step
        oracle = FockOracle(reference_model, 6)
        rng = np.random.default_rng(2)
        a, b, c = rng.normal(size=(3, oracle.start.size)) * [[1.0], [1.0], [0.1]]

        def path(g):
            return a + b * g + c * g * g

        def recent(*gs):
            return tuple((g, path(g)) for g in gs)

        oracle.recent = recent(0.300, 0.301, 0.302)
        np.testing.assert_allclose(fock._start(oracle, 0.303), path(0.303), rtol=0, atol=1e-12)
        oracle.start = path(0.302)
        for gs, g in (((0.300, 0.301, 0.301), 0.302), ((0.300, 0.301, 0.302), 0.302),
                      ((1e-3, 1.1e-3, 1.2e-3), 1.3e-3), ((0.1, 0.2, 0.3), 0.4)):
            oracle.recent = recent(*gs)
            assert fock._start(oracle, g) is oracle.start, (gs, g)

    def test_extrapolated_start_saves_steps_on_a_slow_trajectory(self, reference_model, monkeypatch):
        # 200 steps of dt 0.05 from rest at g/k = 0.4, n_max 12: the start
        # extrapolated from the last three ground states takes 0.44 of the
        # Lanczos steps of the plain warm start (1099 against 2488)
        config = DynamicsConfig(
            y0=math.log(0.5 / 0.4), v0=0.0, dt=0.05, t_max=10.0,
            force_route="oracle", oracle_n_max=12,
        )
        steps = total_steps(monkeypatch, lambda: evolve(reference_model, config))
        monkeypatch.setattr(fock, "EXTRAPOLATE_MIN_U", math.inf)
        plain = total_steps(monkeypatch, lambda: evolve(reference_model, config))
        assert steps <= 0.7 * plain

    def test_extrapolated_start_costs_no_steps_on_a_force_curve_sweep(
        self, reference_model, monkeypatch
    ):
        # the reference grid at 11 points, solved from the weak-coupling end
        # at n_max 28 as force-curve does: g moves 65% between points, the
        # quadratic term is 5e-3 to 0.2 of the linear step, and the sweep
        # keeps the plain warm start (317 steps either way)
        ys = np.linspace(0.0, 5.0, 11)[::-1]

        def sweep():
            oracle = FockOracle(reference_model, 28)
            for y in ys:
                oracle_force(oracle, y)

        steps = total_steps(monkeypatch, sweep)
        monkeypatch.setattr(fock, "EXTRAPOLATE_MIN_U", math.inf)
        assert steps <= total_steps(monkeypatch, sweep)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n_max", [12, 16, 20])
    @pytest.mark.parametrize("u", [2e-3, 3e-3, 1e-2, 0.1, 0.5])
    def test_oracle_route_force_matches_casimir_force(self, family, n_max, u):
        # 100 oracle-route steps from g/k = u towards weaker coupling (g/k
        # falls by up to e^-0.5, so the u = 3e-3 runs cross the g/k cut of
        # the extrapolated start) against the closed-form force at the same
        # y.  Measured at most 1.4e-13 relative; 6.4e-14 with plain warm
        # starts.  For a constant g both are exactly 0.
        if family == "constant":
            model, y0 = make_model(g0=u, family=family), 1.0
        elif family == "exponential":
            model, y0 = make_model(family=family), math.log(0.5 / u)
        else:
            model, y0 = make_model(family=family, y_max=50.0), math.sqrt(0.5 / u - 1.0)
        config = DynamicsConfig(
            y0=y0, v0=0.1, dt=0.05, t_max=5.0, force_route="oracle", oracle_n_max=n_max
        )
        traj = evolve(model, config)
        assert len(traj) == 101
        expected = np.array([casimir_force(model, y) for y in traj.y])
        assert np.all(np.abs(traj.F - expected) <= 1e-12 * np.abs(expected))

    def test_converged_start_stops_after_one_step(self, constant_model):
        oracle = FockOracle(constant_model, 20)
        ground_state(oracle, 0.0)
        assert ground_state(oracle, 1.0).steps == 1

    def test_no_convergence_when_the_basis_fills_the_space(self, reference_model, monkeypatch):
        # with a zero tolerance only an exact breakdown stops a solve; from a
        # random sector start the Krylov basis fills all 6 dimensions of the
        # exchange-symmetric, even-parity sector at n_max=3 first
        monkeypatch.setattr(fock, "RITZ_TOL", 0.0)
        oracle = FockOracle(reference_model, 3)
        oracle.start = np.random.default_rng(1).normal(size=6)
        with pytest.raises(NoConvergenceError, match="dimension 6"):
            ground_state(oracle, 0.5)

    def test_no_convergence_after_the_step_limit_in_a_larger_space(self):
        # a diagonal operator on 100 > BASIS_MAX coordinates, eigenvalues 1
        # and 2 below a spread of 3 to 1e4: the lowest gap is 1e-4 of the
        # spectrum's width, too small for a restarted basis to resolve in a
        # few hundred steps, so the Ritz residual stays near 1e-4, far above
        # RITZ_TOL, and the solve gives up after STEP_LIMIT * 100 = 800
        # matvecs.  (A zero RITZ_TOL does not force this on the oracle's
        # operator: once a kept Ritz vector's residual falls below rounding,
        # eigh of the restarted T returns an exact 0 as its last component.)
        diagonal = np.concatenate([[1.0, 2.0], np.geomspace(3.0, 1e4, 98)])
        calls = 0

        def counting(u):
            nonlocal calls
            calls += 1
            return diagonal * u

        start = np.random.default_rng(1).normal(size=100)
        with pytest.raises(NoConvergenceError, match="800 steps in dimension 100 "):
            fock._lanczos(counting, start, 0)
        assert calls == fock.STEP_LIMIT * 100 == 800

    @pytest.mark.parametrize("n_max", [24, 40])
    @pytest.mark.parametrize("u", [0.5, 0.9, 0.99, 0.999])
    def test_restarted_solve_matches_dense_eigh(self, n_max, u):
        # cold solves of 40 to 200 steps, so the basis restarts, against a
        # dense eigh of the sector matrix.  E0 is a Ritz value with a
        # residual estimate of at most epsilon |E0|, so its error is second
        # order and both solvers round at about epsilon ||H|| (4e-14 of E0 at
        # n_max = 40): 1e-13.  <x1 x2> is first order in the eigenvector,
        # off by about the residual over the gap to E1 (1.1e-14 / 0.082 =
        # 1.3e-13 at n_max = 40, g/k = 0.999): 1e-12.  Measured at most
        # 8.8e-16 and 8.3e-14.
        model = make_model(family="constant", g0=u)
        oracle = FockOracle(model, n_max)
        gs = ground_state(oracle, 0.0)
        assert gs.steps > fock.BASIS_MAX
        vals, vecs = scipy.linalg.eigh(sector_matrix(oracle, u), subset_by_index=[0, 0])
        assert gs.E0 == pytest.approx(vals[0], rel=1e-13, abs=0)
        x1x2 = fock.cross_correlation(oracle.table(vecs[:, 0]), oracle.x)
        assert fock.cross_correlation(gs.amplitudes, oracle.x) == pytest.approx(
            x1x2, rel=1e-12, abs=0
        )

    def test_short_warm_solves_are_those_of_an_unrestarted_basis(self, reference_model, monkeypatch):
        # the 300-point sweep above after its cold solve: every warm solve
        # stops within 22 steps, so the basis never fills, and a basis that
        # holds the whole space gives the same bits
        ys = np.linspace(1.0, 1.03, 300)
        for n_max in (20, 40):
            oracle = FockOracle(reference_model, n_max)
            ground_state(oracle, 1.0)
            twin = copy.copy(oracle)
            restarted = [ground_state(oracle, y) for y in ys]
            monkeypatch.setattr(fock, "BASIS_MAX", 10**6)
            whole = [ground_state(twin, y) for y in ys]
            monkeypatch.undo()
            assert max(gs.steps for gs in restarted) <= fock.BASIS_MAX
            for a, b in zip(restarted, whole):
                assert a.steps == b.steps and a.E0 == b.E0
                assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_oracle_route_trajectory_matches_dense_eigh(self, reference_model, monkeypatch):
        # 1000 oracle-route steps at n_max=20 against a route that diagonalizes
        # H(y) densely at every step, in its exchange-symmetric even-parity
        # block (where the ground state lies; the full 441 x 441 eigh would
        # take 10 s).  Both this solver and ARPACK eigsh stay within 6e-15.
        n_max = 20
        side = n_max + 1
        pairs = [(n, m) for n in range(side) for m in range(n, side) if (n + m) % 2 == 0]
        block = np.zeros((side * side, len(pairs)))
        for j, (n, m) in enumerate(pairs):
            block[n * side + m, j] = block[m * side + n, j] = 1.0
        block /= np.linalg.norm(block, axis=0)
        h0, v_op, _, _ = dense_parts(reference_model, n_max)
        h0, v_op = block.T @ h0 @ block, block.T @ v_op @ block

        def dense_route(y):
            vals, vecs = scipy.linalg.eigh(
                h0 + reference_model.g(y) * v_op, subset_by_index=[0, 0]
            )
            u = vecs[:, 0]
            return -reference_model.g_prime(y) * float(u @ v_op @ u), float(vals[0])

        config = DynamicsConfig(
            y0=1.0, v0=0.0, dt=0.1, t_max=100.0, force_route="oracle", oracle_n_max=n_max
        )
        oracle = evolve(reference_model, config)
        monkeypatch.setattr(dynamics, "_route", lambda model, config: dense_route)
        dense = evolve(reference_model, config)
        assert len(oracle) == len(dense) == 1001
        for name in ("y", "p_y", "F", "E_vac", "E_total"):
            a, b = getattr(oracle, name), getattr(dense, name)
            assert np.all(np.abs(a - b) <= 1e-13 * np.abs(b)), name
