import copy
import math
import statistics
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

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
from casimir_toy.errors import NoConvergenceError
from casimir_toy.fock import (
    FockOracle,
    build_hamiltonian,
    ground_state_structure_checks,
    oracle_force,
    oracle_observables,
)
from conftest import make_model
from references import cross_correlation, free_vacuum_correlation, position_matrix


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

    def test_position_matrix_scale(self):
        # the oracle's X = (a + a')/sqrt 2 is dimensionless; its length^2
        # scale makes it x = sqrt(hbar/(2 m omega)) (a + a')
        model = make_model(m=2.0, k=3.0, hbar=0.7)
        oracle = FockOracle(model, 4)
        x = fock._dense(oracle.n_max)[0]  # the X of oracle.apply
        assert x[0, 1] == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert x[1, 2] == pytest.approx(1.0, rel=1e-15)
        np.testing.assert_allclose(
            math.sqrt(oracle.length_sq) * x, position_matrix(model, 4), rtol=1e-15
        )


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
        obs = oracle_observables(ground_state(oracle, 0.0))
        assert abs(obs.x1x2) < 1e-14
        assert abs(obs.N1) < 1e-14

    def test_reference_values_match_analytic(self, reference_model):
        oracle = FockOracle(reference_model, 40)
        obs = oracle_observables(ground_state(oracle, 0.0))
        analytic = vacuum_fluctuations(reference_model, 0.0)
        assert obs.E_vac == pytest.approx(analytic.E_vac, rel=1e-6)
        assert obs.x1x2 == pytest.approx(analytic.x1x2, rel=1e-6)
        assert obs.N1 == pytest.approx(analytic.N1, rel=1e-6)

    def test_oracle_force_matches_analytic(self, reference_model):
        from casimir_toy import lifshitz_force

        f = oracle_force(FockOracle(reference_model, 30), 0.0)
        assert f == pytest.approx(lifshitz_force(reference_model, 0.0), rel=1e-6)


class TestVerifyAnnihilation:
    def test_free_case_exact_zero(self):
        model = make_model(g0=0.0)
        exp = squeezed_vacuum_expansion(
            bogoliubov_coefficients(model, 0.0), N_max=5
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
            exp = squeezed_vacuum_expansion(coeffs, N_max=n)
            residuals.append(verify_annihilation(exp, 35))
        for i in range(len(orders) - 1):
            step = orders[i + 1] - orders[i]
            measured = (residuals[i + 1] / residuals[i]) ** (1 / step)
            assert measured == pytest.approx(r, rel=0.05)
        # with the occupation prefactor divided out, r is recovered sharply
        norm = [res / math.sqrt(n + 1) for res, n in zip(residuals, orders)]
        exact = (norm[-1] / norm[0]) ** (1 / (orders[-1] - orders[0]))
        assert exact == pytest.approx(r, rel=1e-6)

    def test_truncation_mismatch(self, reference_model):
        exp = squeezed_vacuum_expansion(
            bogoliubov_coefficients(reference_model, 0.0), N_max=12
        )
        with pytest.raises(ValueError, match="exceeds basis"):
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


def dense_parts(model, n_max):
    """H0, V = x (x) x, x and N of H(y) = H0 + g(y) V, built densely from
    Kronecker products."""
    side = n_max + 1
    x = position_matrix(model, n_max)
    num = np.diag(np.arange(side, dtype=float))
    eye = np.eye(side)
    h0 = model.hbar * model.omega * (
        np.kron(num, eye) + np.kron(eye, num) + np.eye(side**2)
    )
    return h0, np.kron(x, x), x, num


def dense_reference(model, y, n_max):
    """E0 and observables from a dense kron-built H and scipy.linalg.eigh."""
    h0, v_op, _, num = dense_parts(model, n_max)
    eye = np.eye(n_max + 1)
    vals, vecs = scipy.linalg.eigh(h0 + model.g(y) * v_op, subset_by_index=[0, 0])
    v = vecs[:, 0]

    def expect(op):
        return float(v @ op @ v)

    return float(vals[0]), {
        "x1x2": expect(v_op),
        "N1": expect(np.kron(num, eye)),
        "N2": expect(np.kron(eye, num)),
    }


def assert_matches(gs, obs, e0, expected):
    """The oracle's N1 stands for both modes, so it is also checked against
    an expected N2."""
    assert gs.E0 == pytest.approx(e0, rel=1e-13)
    for name, value in expected.items():
        got = obs.N1 if name == "N2" else getattr(obs, name)
        assert got == pytest.approx(value, rel=1e-12, abs=1e-15), name


def sector_matrix(oracle, u):
    """H/(hbar omega) at g/k = u on the oracle's sector coordinates, densely,
    from the full-table apply of each coordinate's table."""
    n, m = oracle.pairs
    tables = np.stack([oracle.table(e) for e in np.eye(n.size)])
    return oracle.apply(u, tables)[:, n, m] * oracle.weight


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
        assert_matches(gs, oracle_observables(gs), e0, expected)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_warm_started_grid_matches_cold_solves(self, family):
        model = make_model(g0=0.6, family=family)
        warm = FockOracle(model, 16)
        for y in np.linspace(0.0, 3.0, 7):
            gs = ground_state(warm, y)
            cold = FockOracle(model, 16)
            gs_cold = ground_state(cold, y)
            obs_cold = oracle_observables(gs_cold)
            expected = {name: getattr(obs_cold, name)
                        for name in ("x1x2", "N1")}
            assert_matches(gs, oracle_observables(gs), gs_cold.E0, expected)

    def test_dense_view_is_the_sparse_hamiltonian(self, reference_model):
        # the audit view, the oracle's table matvec and a Kronecker-built H agree
        h0, v_op, _, _ = dense_parts(reference_model, 6)
        h = h0 + reference_model.g(0.7) * v_op
        assert np.array_equal(build_hamiltonian(reference_model, 0.7, 6).matrix, h)
        c = np.random.default_rng(3).normal(size=(7, 7))
        oracle = FockOracle(reference_model, 6)
        applied = oracle.hbar_omega * oracle.apply(reference_model.g(0.7) / reference_model.k, c)
        np.testing.assert_allclose(applied.ravel(), h @ c.ravel(), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_sector_stencil_is_the_table_hamiltonian(self, family):
        # the stencil matvec of random sector coordinates u equals the
        # full-table apply on the unpacked table, repacked, to rounding
        model = make_model(g0=0.6, family=family)
        rng = np.random.default_rng(11)
        for n_max in range(1, 13):
            oracle = FockOracle(model, n_max)
            u = model.g(0.4) / model.k
            n, m = oracle.pairs
            assert n.size == (n_max + 2) ** 2 // 4
            v = rng.normal(size=n.size)
            table = oracle.apply(u, oracle.table(v))
            h_norm = np.linalg.norm(build_hamiltonian(model, 0.4, n_max).matrix, 2)
            np.testing.assert_allclose(
                oracle.sector_operator(u)(v),
                table[n, m] * oracle.weight,
                rtol=0,
                atol=4 * np.finfo(float).eps * h_norm / oracle.hbar_omega * np.linalg.norm(v),
            )

    @given(
        family=st.sampled_from(FAMILIES),
        n_max=st.integers(min_value=1, max_value=12),
        g0=st.floats(min_value=0.0, max_value=0.99),
        y=st.floats(min_value=0.0, max_value=5.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_apply_commutes_with_exchange_and_keeps_parity(self, family, n_max, g0, y, seed):
        # the sector solve rests on both: H c^T = (H c)^T to rounding, and an
        # even-parity table (c = 0 where n + n' is odd) maps to one whose odd
        # entries are exact zeros, since x moves n by +-1 and zeros multiply
        # to zeros whatever the order
        model = make_model(g0=g0, family=family)
        oracle = FockOracle(model, n_max)
        u = model.g(y) / model.k
        c = np.random.default_rng(seed).normal(size=(n_max + 1, n_max + 1))
        x, quanta = fock._dense(n_max)
        x = np.abs(x)
        bound = 8 * np.finfo(float).eps * (quanta * np.abs(c) + u * (x @ np.abs(c) @ x))
        assert np.all(np.abs(oracle.apply(u, c.T) - oracle.apply(u, c).T) <= bound.T)
        n = np.arange(n_max + 1)
        odd = (n[:, None] + n[None, :]) % 2 == 1
        c[odd] = 0.0
        assert np.all(oracle.apply(u, c)[odd] == 0.0)

    def test_residual_is_the_full_table_residual(self):
        model = make_model(m=2.0, k=3.0, hbar=0.7, g0=1.5)
        oracle = FockOracle(model, 12)
        scale = oracle.hbar_omega
        for y in (0.0, 0.5, 1.0):
            gs = ground_state(oracle, y)
            c = gs.amplitudes
            r = oracle.apply(model.g(y) / model.k, c) - gs.E0 / scale * c
            assert gs.residual_norm == pytest.approx(scale * np.linalg.norm(r), rel=1e-12, abs=0)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_correlation_is_the_table_contraction(self, family):
        # u . (V u) from the stencil against sum c o (x c x) on the unpacked
        # table, for random normalized u: the two sum the same products in
        # a different order, so they agree to a few epsilon ||V|| = ||x||^2
        model = make_model(g0=0.6, family=family, m=2.0, k=3.0, hbar=0.7)
        rng = np.random.default_rng(5)
        for n_max in range(1, 41):
            oracle = FockOracle(model, n_max)
            x = position_matrix(model, n_max)
            for _ in range(3):
                v = rng.normal(size=oracle.pairs[0].size)
                v /= np.linalg.norm(v)
                expected = cross_correlation(oracle.table(v), x)
                scale = np.linalg.norm(x, 2) ** 2
                assert abs(oracle.correlation(v) - expected) <= 4 * np.finfo(float).eps * scale

    @pytest.mark.parametrize("family", FAMILIES)
    def test_observables_report_the_correlation_of_the_force(self, family):
        # oracle-check audits the <x1 x2> that oracle_force multiplies by
        # -g', bit for bit, where ground_state serves the force (g/k 0.9 and
        # above): a contraction of the table sums the same products in
        # another order and lands a few ulp away
        model = make_model(family=family, g0=0.99)
        for n_max in (1, 4, 12, 20, 40):
            oracle = FockOracle(model, n_max)
            for y in (0.0, 0.03, 0.06, 0.09):
                assert model.g(y) / model.k >= fock.POLYNOMIAL_MAX_U
                gs = ground_state(oracle, y)
                x1x2 = oracle_observables(gs).x1x2
                assert x1x2 == oracle.correlation(gs.vector)
                assert oracle_force(oracle, y) == -model.g_prime(y) * x1x2

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
    def test_warm_start_takes_few_steps(self, reference_model, monkeypatch):
        # 300-point slow sweep at g/k near 0.18, solved by Lanczos (the
        # series cut at 0), each solve started from the last ground state:
        # the cold first solve takes 40 steps at both cutoffs, the warm ones
        # a median of 12 (n_max=20) and 18 (n_max=40); the bounds allow one
        # more convergence check
        monkeypatch.setattr(fock, "SERIES_MAX_U", 0.0)
        for n_max, bound in ((20, 15), (40, 22)):
            oracle = FockOracle(reference_model, n_max)
            steps = [ground_state(oracle, y).steps for y in np.linspace(1.0, 1.03, 300)]
            assert steps[0] > bound
            assert statistics.median(steps) <= bound

    def test_warm_solves_skip_the_checks_they_cannot_stop_at(self, reference_model, monkeypatch):
        # the sweep above, by Lanczos: a warm solve checks at k = 1 and then
        # from the schedule point below the last warm solve's step count, so it
        # needs a median of 2 dense eigh calls where checking at every point
        # took 10 (n_max=20) and 12 (n_max=40)
        monkeypatch.setattr(fock, "SERIES_MAX_U", 0.0)
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
        # g/k from 0.5 down to 1e-9: a Lanczos solve at 0.5, whose stop rule
        # relative to |theta_0| keeps <x1 x2> within 1e-13 (a floor of epsilon
        # ||T_k|| let the error grow to about 1e-9 on a Lanczos sweep), and the
        # series below SERIES_MAX_U.  Measured 1.1e-15 at n_max 24 and 40; at
        # 12, 6.3e-14, the truncation at g/k 0.5.  Lanczos down to g/k 2.2e-3
        # read 3.3e-14, and 1.8e-13 on the whole sweep.
        model = make_model(y_max=25.0)
        oracle = FockOracle(model, n_max)
        x = position_matrix(model, n_max)
        for y in np.linspace(0.0, math.log(5e8), 200):
            x1x2 = cross_correlation(ground_state(oracle, y).amplitudes, x)
            exact = vacuum_fluctuations(model, y).x1x2
            assert abs(x1x2 - exact) <= 1e-12 * abs(exact), y

    def test_extrapolated_start_is_the_quadratic_through_the_last_three(self, reference_model):
        # on a quadratic path u(g) = a + b g + c g^2 the Newton-form start is
        # exact; it falls back to the last ground state when two g coincide
        # or when the quadratic term is not small against the linear step
        oracle = FockOracle(reference_model, 6)
        rng = np.random.default_rng(2)
        a, b, c = rng.normal(size=(3, oracle.pairs[0].size)) * [[1.0], [1.0], [0.1]]

        def path(g):
            return a + b * g + c * g * g

        def recent(*gs):
            return tuple((g, path(g)) for g in gs)

        oracle.recent = recent(0.300, 0.301, 0.302)
        np.testing.assert_allclose(fock._start(oracle, 0.303), path(0.303), rtol=0, atol=1e-12)
        for gs, g in (((0.300, 0.301, 0.301), 0.302), ((0.300, 0.301, 0.302), 0.302),
                      ((0.1, 0.2, 0.3), 0.4)):
            oracle.recent = recent(*gs)
            assert fock._start(oracle, g) is oracle.recent[-1][1], (gs, g)
        oracle.recent = recent(0.300, 0.301)
        assert fock._start(oracle, 0.302) is oracle.recent[-1][1]
        oracle.recent = ()
        assert np.array_equal(fock._start(oracle, 0.3), np.eye(1, a.size)[0])

    def test_extrapolated_start_adds_the_cubic_term_between_its_cuts(self, reference_model):
        # four states on u(g) = a + b g + d (g - ga)(g - gb)(g - gc): the last
        # three lie on a line, so the quadratic start is the line and the
        # fourth state adds the cubic term, which makes the start exact.  The
        # term is kept only above EXTRAPOLATE_CUBIC_MIN and below
        # EXTRAPOLATE_BEND of the linear step; otherwise the start is the
        # quadratic of the last three, bit for bit.
        oracle = FockOracle(reference_model, 6)
        rng = np.random.default_rng(3)
        a, b, d = rng.normal(size=(3, oracle.pairs[0].size))
        gz, ga, gb, gc, g = 0.300, 0.301, 0.302, 0.303, 0.304

        def starts(scale):
            def path(x):
                return a + b * x + scale * d * (x - ga) * (x - gb) * (x - gc)

            oracle.recent = tuple((x, path(x)) for x in (gz, ga, gb, gc))
            cubic = fock._start(oracle, g)
            oracle.recent = oracle.recent[1:]
            return cubic, fock._start(oracle, g), path(g)

        cubic, quadratic, exact = starts(0.1)
        np.testing.assert_allclose(cubic, exact, rtol=0, atol=1e-12)
        term = np.linalg.norm(exact - quadratic)
        assert term > 100 * fock.EXTRAPOLATE_CUBIC_MIN
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fock, "EXTRAPOLATE_CUBIC_MIN", 2 * term)
            cubic, quadratic, _ = starts(0.1)
            assert np.array_equal(cubic, quadratic)
        # 1e4 d: the cubic term is 6e-2 of the linear step
        cubic, quadratic, exact = starts(1e4)
        assert np.array_equal(cubic, quadratic)
        assert not np.allclose(cubic, exact, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("u, v0, share", [(0.4, 0.003, 0.5), (0.03, 0.0, 1.0),
                                              (0.7, 0.003, 0.8), (0.9, 0.0, 1.0)])
    def test_cubic_term_saves_steps_on_a_slow_trajectory(self, monkeypatch, u, v0, share):
        # 200 steps of dt 0.05 at n_max 12, every solve by Lanczos (the series
        # cut at 0), take at most share of the steps that the quadratic start
        # alone takes.  At g/k 0.4, y moving 1.5e-4 per step: 1153 against
        # 2650; at 0.7, 2250 against 3289.  From rest at g/k 0.03, where the
        # cubic term is mostly below its noise cut: 692 against 703 (a cut of
        # 2 RITZ_TOL took 714); at 0.9, 6466 against 6888.  The runs below
        # g/k 0.5 are on the reference model.
        g0 = 0.5 if u < 0.5 else 0.95
        model = make_model(g0=g0)
        config = DynamicsConfig(
            y0=math.log(g0 / u), v0=v0, dt=0.05, t_max=10.0,
            force_route="oracle", oracle_n_max=12,
        )
        monkeypatch.setattr(fock, "SERIES_MAX_U", 0.0)
        steps = total_steps(monkeypatch, lambda: evolve(model, config))
        monkeypatch.setattr(fock, "EXTRAPOLATE_CUBIC_MIN", math.inf)
        assert steps <= share * total_steps(monkeypatch, lambda: evolve(model, config))

    @pytest.mark.parametrize("u", [0.003, 0.03, 0.1, 0.4, 0.6, 0.9])
    @pytest.mark.parametrize("v0", [0.003, 0.1])
    def test_cubic_term_moves_the_trajectory_only_at_rounding_level(self, u, v0, monkeypatch):
        # the same oracle-route run with and without the cubic term, every
        # solve by Lanczos (the series cut at 0): E_vac agrees to 8 RITZ_TOL
        # and F to 10 RITZ_TOL / (g/k), the stop rule's bound on <x1 x2>.
        # Measured at most 3.5 RITZ_TOL and 6.8 RITZ_TOL / (g/k), at n_max 16
        # and g/k 0.9 (2.6 and 3.2 below 0.5); the runs below g/k 0.5 are on
        # the reference model.
        g0 = 0.5 if u < 0.5 else 0.95
        model = make_model(g0=g0)
        config = DynamicsConfig(
            y0=math.log(g0 / u), v0=v0, dt=0.05, t_max=10.0,
            force_route="oracle", oracle_n_max=16,
        )
        monkeypatch.setattr(fock, "SERIES_MAX_U", 0.0)
        cubic = evolve(model, config)
        monkeypatch.setattr(fock, "EXTRAPOLATE_CUBIC_MIN", math.inf)
        quadratic = evolve(model, config)
        tol = fock.RITZ_TOL
        assert np.all(np.abs(cubic.E_vac - quadratic.E_vac) <= 8 * tol * quadratic.E_vac)
        assert np.all(np.abs(cubic.F - quadratic.F) <= 10 * tol / u * np.abs(quadratic.F))

    def test_extrapolated_start_saves_steps_on_a_slow_trajectory(self, monkeypatch):
        # 200 steps of dt 0.05 from rest at g/k = 0.7, n_max 12: the start
        # extrapolated from the last ground states takes 0.37 of the Lanczos
        # steps of the plain warm start (1779 against 4801)
        model = make_model(g0=0.95)
        config = DynamicsConfig(
            y0=math.log(0.95 / 0.7), v0=0.0, dt=0.05, t_max=10.0,
            force_route="oracle", oracle_n_max=12,
        )
        steps = total_steps(monkeypatch, lambda: evolve(model, config))
        monkeypatch.setattr(fock, "EXTRAPOLATE_BEND", 0.0)
        plain = total_steps(monkeypatch, lambda: evolve(model, config))
        assert steps <= 0.7 * plain

    def test_extrapolated_start_costs_no_steps_on_a_force_curve_sweep(self, monkeypatch):
        # an 11-point grid from g/k 0.52 to 0.95, solved by Lanczos from the
        # weak-coupling end at n_max 28 as force-curve does: g moves 6%
        # between points, and the sweep keeps the plain warm start (664 steps
        # either way; on the reference grid, by Lanczos throughout, 317)
        model = make_model(g0=0.95)
        ys = np.linspace(0.0, 0.6, 11)[::-1]

        def sweep():
            oracle = FockOracle(model, 28)
            for y in ys:
                oracle_force(oracle, y)

        steps = total_steps(monkeypatch, sweep)
        monkeypatch.setattr(fock, "EXTRAPOLATE_BEND", 0.0)
        assert steps <= total_steps(monkeypatch, sweep)

    def test_extrapolated_start_depends_on_the_scales_only_through_g_over_k(
        self, monkeypatch
    ):
        # H/(hbar omega) depends on the model only through u = g/k.  With
        # hbar, m, k and omega powers of two, the steps, E0/(hbar omega),
        # residual/(hbar omega) and F/(g' hbar/(m omega)) of a Lanczos sweep
        # at g/k near 0.68 are the unit model's, bit for bit.  m = k keeps
        # omega = 1; the other two take both scales far from 1 (hbar omega =
        # 2^-805 with hbar/(m omega) = 2^195, and 2^700 with 2^300).  The
        # extrapolated start takes 196 steps against 267.  Solving H itself,
        # the divided differences of the start overflowed at m = k = 2^-996,
        # and at hbar omega = 2^-805 the residual's squares underflowed to 0.
        def sweep(hbar, m, k):
            model = make_model(m=m, k=k, hbar=hbar, M=1000.0 * m, g0=0.75 * k)
            oracle = FockOracle(model, 12)
            energy, length = oracle.hbar_omega, oracle.length_sq
            run = []
            for y in np.linspace(0.1, 0.101, 10).tolist():
                gs = ground_state(oracle, y)
                force = oracle_force(oracle, y) / (model.g_prime(y) * length)
                run.append((gs.steps, gs.E0 / energy, gs.residual_norm / energy, force))
            return run

        unit = sweep(1.0, 1.0, 1.0)
        assert all(r[2] > 0 for r in unit)
        for hbar, m, k in ((1.0, 2.0**-996, 2.0**-996), (1.0, 2.0**996, 2.0**996),
                           (2.0**-300, 2.0**10, 2.0**-1000), (2.0**200, 2.0**-600, 2.0**400)):
            assert sweep(hbar, m, k) == unit, (hbar, m, k)
        monkeypatch.setattr(fock, "EXTRAPOLATE_BEND", 0.0)
        plain = sweep(1.0, 1.0, 1.0)
        assert sum(r[0] for r in unit) < sum(r[0] for r in plain)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n_max", [12, 16, 20])
    @pytest.mark.parametrize("u", [2e-3, 3e-3, 1e-2, 0.1, 0.5])
    def test_oracle_route_force_matches_casimir_force(self, family, n_max, u):
        # 100 oracle-route steps from g/k = u towards weaker coupling (g/k
        # falls by up to e^-0.5, so the u = 0.5 runs start on Lanczos and cross
        # SERIES_MAX_U into the series, which solves the other runs
        # throughout) against the closed-form force at the same y.  Measured at
        # most 1.6e-15 relative on the series; 6.4e-14 at u = 0.5, the
        # truncation at n_max 12.  Lanczos solves read up to 1.4e-13, at u =
        # 3e-3.  For a constant g both are exactly 0.
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
        assert len(traj.t) == 101
        expected = np.array([casimir_force(model, y) for y in traj.y])
        assert np.all(np.abs(traj.F - expected) <= 1e-12 * np.abs(expected))

    def test_converged_start_stops_after_one_step(self):
        # a fresh oracle started from a converged ground state meets the stop
        # test at k = 1, on T_1 = alpha_1 itself (g/k 0.55, above the series)
        model = make_model(family="constant", g0=0.55)
        converged = ground_state(FockOracle(model, 20), 0.0)
        oracle = FockOracle(model, 20)
        oracle.recent = ((0.0, converged.vector),)
        gs = ground_state(oracle, 1.0)
        assert gs.steps == 1
        assert gs.E0 == pytest.approx(converged.E0, rel=1e-15)

    def test_no_convergence_when_the_basis_fills_the_space(self, reference_model, monkeypatch):
        # with a zero tolerance only an exact breakdown stops a Lanczos solve
        # (the series cut at 0); from a random sector start the Krylov basis
        # fills all 6 dimensions of the exchange-symmetric, even-parity sector
        # at n_max=3 first
        monkeypatch.setattr(fock, "RITZ_TOL", 0.0)
        monkeypatch.setattr(fock, "SERIES_MAX_U", 0.0)
        oracle = FockOracle(reference_model, 3)
        oracle.recent = ((0.0, np.random.default_rng(1).normal(size=6)),)
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
        x = position_matrix(model, n_max)
        x1x2 = cross_correlation(oracle.table(vecs[:, 0]), x)
        assert cross_correlation(gs.amplitudes, x) == pytest.approx(
            x1x2, rel=1e-12, abs=0
        )

    def test_short_warm_solves_are_those_of_an_unrestarted_basis(self, reference_model, monkeypatch):
        # the 300-point Lanczos sweep above after its cold solve: every warm
        # solve stops within 22 steps, so the basis never fills, and a basis
        # that holds the whole space gives the same bits
        monkeypatch.setattr(fock, "SERIES_MAX_U", 0.0)
        ys = np.linspace(1.0, 1.03, 300)
        for n_max in (20, 40):
            oracle = FockOracle(reference_model, n_max)
            ground_state(oracle, 1.0)
            twin = copy.copy(oracle)
            restarted = [ground_state(oracle, y) for y in ys]
            with monkeypatch.context() as patch:
                patch.setattr(fock, "BASIS_MAX", 10**6)
                whole = [ground_state(twin, y) for y in ys]
            assert max(gs.steps for gs in restarted) <= fock.BASIS_MAX
            for a, b in zip(restarted, whole):
                assert a.steps == b.steps and a.E0 == b.E0
                assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_oracle_route_trajectory_matches_dense_eigh(self, reference_model, monkeypatch):
        # 1000 oracle-route steps at n_max=20 against a route that diagonalizes
        # H(y) densely at every step, in its exchange-symmetric even-parity
        # block (where the ground state lies; the full 441 x 441 eigh would
        # take 10 s).  At g/k near 0.18 the series solves every step; it,
        # warm-started Lanczos and ARPACK eigsh all stay within 6e-15.
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
        assert len(oracle.t) == len(dense.t) == 1001
        for name in ("y", "p_y", "F", "E_vac", "E_total"):
            a, b = getattr(oracle, name), getattr(dense, name)
            assert np.all(np.abs(a - b) <= 1e-13 * np.abs(b)), name


# g/k below the cut, from 0 to just under it; 2.2e-3 is just under RITZ_TOL /
# 1e-13, where the Lanczos stop rule bounds <x1 x2> to 1e-13 relative
WEAK_U = [0.0, 1e-300, 1e-12, 1e-6, 1e-4, float(np.nextafter(fock.RITZ_TOL / 1e-13, 0.0)),
          1e-2, 0.1, 0.3, float(np.nextafter(fock.SERIES_MAX_U, 0.0))]


class TestSeries:
    @pytest.mark.parametrize("n_max", [1, 2, 3, 4, 5, 6, 12, 20, 40])
    @pytest.mark.parametrize("u", WEAK_U)
    def test_series_matches_dense_eigh(self, n_max, u):
        # below the cut the series against scipy's eigh of the sector matrix.
        # eigh's eigenvalue rounds at about epsilon ||H|| (35 epsilon at
        # n_max 40), so E0 is compared with the Rayleigh quotient of its
        # eigenvector, whose error is second order, summed in extended
        # precision: measured at most 0.52 epsilon (2 epsilon against a
        # float64 quotient).  <x1 x2> is within 3.4 RITZ_TOL of eigh's where
        # eigh resolves it (its off-diagonal of u/2 is deflated at 1e-300, as
        # Lanczos stopped at |0,0> for g/k below RITZ_TOL: both read 0), and
        # within 4.4 RITZ_TOL of the closed form where truncation is nil: an
        # edge mass below 1e-20, or g/k at most 1e-12.  (At n_max 12 and g/k
        # 0.5 an edge mass of 1.7e-16 puts <x1 x2> 285 epsilon from the
        # closed form; at n_max 6 and g/k 0.1, 1.7e-17 and 3 epsilon.)
        model = make_model(family="constant", g0=u)
        oracle = FockOracle(model, n_max)
        gs = ground_state(oracle, 0.0)
        assert gs.steps == 0
        h = sector_matrix(oracle, u)
        vec = scipy.linalg.eigh(h, subset_by_index=[0, 0])[1][:, 0]
        wide = vec.astype(np.longdouble)
        quotient = float(wide @ h.astype(np.longdouble) @ wide / (wide @ wide))
        assert abs(gs.E0 - quotient) <= 4 * np.finfo(float).eps * quotient
        x1x2 = oracle.correlation(gs.vector)
        references = []
        if u == 0.0 or u >= 1e-12:
            references.append(oracle.correlation(vec))
        if gs.edge_mass() < 1e-20 or u <= 1e-12:
            references.append(vacuum_fluctuations(model, 0.0).x1x2)
        for reference in references:
            assert abs(x1x2 - reference) <= 8 * fock.RITZ_TOL * abs(reference)
        assert (x1x2 == 0.0) == (u == 0.0)

    @pytest.mark.parametrize("n_max", [12, 40])
    def test_weak_coupling_state_does_not_depend_on_the_solve_history(self, n_max):
        # the series has no start vector: a cold solve at g/k 0.3 or 1e-4 and
        # one after a sweep down from g/k 0.9, by Lanczos down to the cut,
        # give the same bits
        model = make_model(g0=0.9, y_max=25.0)
        for u in (0.3, 1e-4):
            y = math.log(0.9 / u)
            cold = ground_state(FockOracle(model, n_max), y)
            oracle = FockOracle(model, n_max)
            for sweep_y in np.linspace(0.0, y, 50)[:-1]:
                ground_state(oracle, sweep_y)
            warm = ground_state(oracle, y)
            assert warm.steps == cold.steps == 0
            assert warm.E0 == cold.E0 and np.array_equal(warm.vector, cold.vector)

    def test_series_trajectory_takes_no_matvecs(self, reference_model, monkeypatch):
        # 200 oracle-route steps at g/k near 1e-4, n_max 12, with every force
        # from ground_state (the polynomial cut at 0): every solve is a series
        # sum, with no matvec, where the Lanczos path (both cuts at 0) took
        # 619, and F stays within 1e-13 of the closed-form force (measured
        # 1.2e-15; on the Lanczos path 3.2e-12, its stop rule bounding it only
        # to about RITZ_TOL / (g/k))
        config = DynamicsConfig(
            y0=math.log(0.5 / 1e-4), v0=0.003, dt=0.05, t_max=10.0,
            force_route="oracle", oracle_n_max=12,
        )
        monkeypatch.setattr(fock, "POLYNOMIAL_MAX_U", 0.0)
        runs = []
        steps = total_steps(monkeypatch, lambda: runs.append(evolve(reference_model, config)))
        monkeypatch.setattr(fock, "SERIES_MAX_U", 0.0)
        plain = total_steps(monkeypatch, lambda: evolve(reference_model, config))
        assert steps <= 0.6 * plain and plain > 0
        (traj,) = runs
        assert len(traj.t) == 201
        expected = np.array([casimir_force(reference_model, y) for y in traj.y])
        assert np.all(np.abs(traj.F - expected) <= 1e-13 * np.abs(expected))

    def test_series_builds_at_every_cutoff(self):
        # at the cut the build converges at every cutoff: 26 terms at n_max
        # 1 (every even order 0), 51 from n_max 9 up, the largest at 999
        counts = {n_max: fock._series(n_max, fock.SERIES_MAX_U, True)[0].size
                  for n_max in [*range(1, 61), 999]}
        assert counts[1] == 26 and max(counts.values()) == 51
        assert all(counts[n_max] == 51 for n_max in [*range(9, 61), 999])

    @pytest.mark.parametrize("n_max", [1, 12, 40, 80, 999])
    def test_order_n_lives_on_the_pairs_up_to_n(self, n_max):
        # W moves each mode by one quantum, so the term of order n is zero
        # outside the pairs (n', n'') with max(n', n'') <= n, and nonzero at
        # (n, n) inside the basis
        orders, _, _, terms, at = fock._series(n_max, fock.SERIES_MAX_U, True)
        n, m = FockOracle(make_model(), n_max).pairs
        top = m[at]  # max(n, n') of each coordinate, n <= n' in the sector
        for order, term in zip(orders, terms):
            assert np.all(term[top > order] == 0.0), order
            if order <= n_max and (n_max > 1 or order < 2):
                assert term[(top == order) & (n[at] == order)].item() != 0.0, order

    def test_series_above_its_last_order_is_the_smaller_cutoffs(self):
        # at u_max = SERIES_MAX_U the last order is 50, so the basis edge of
        # any n_max >= 50 is never reached and the series is that of cutoff
        # 50 with its pairs' coordinates in the n_max sector, bit for bit
        orders, coefficients, counts, terms, at = fock._series(50, fock.SERIES_MAX_U, True)
        assert orders[-1] == 50
        n, m = FockOracle(make_model(), 50).pairs
        for n_max in (51, 63, 64, 80, 200, 999):
            big_orders, big_coefficients, big_counts, big_terms, big_at = fock._series(
                n_max, fock.SERIES_MAX_U, True)
            assert np.array_equal(big_orders, orders) and big_counts == counts
            assert np.array_equal(big_coefficients, coefficients)
            big_n, big_m = FockOracle(make_model(), n_max).pairs
            coordinate = {pair: i for i, pair in enumerate(zip(big_n.tolist(), big_m.tolist()))}
            expected = np.zeros((orders.size, big_n.size))
            expected[:, [coordinate[pair] for pair in zip(n[at].tolist(), m[at].tolist())]] = terms
            got = np.zeros_like(expected)
            got[:, big_at] = big_terms
            assert np.array_equal(got, expected), n_max

    def test_largest_cutoff_holds_a_small_table(self):
        # 51 terms on 676 of the 250,500 coordinates at n_max 999 (cutoff
        # 50, the last order), not 51 of full length (102 MB); the build to
        # g/k 0.9, which a force reads, keeps its 305 coefficients and no
        # state term
        for u_max, states, shape in ((fock.SERIES_MAX_U, True, (51, 676)),
                                     (fock.POLYNOMIAL_MAX_U, False, (0, 0))):
            series = fock._series(999, u_max, states)
            assert series[3].shape == shape and series[3].flags.c_contiguous
            assert sum(np.asarray(part).nbytes for part in series) < 1e6, u_max

    def test_each_cut_is_built_once_per_cutoff(self):
        # a weak-coupling state and a force below g/k 0.9 at one cutoff build
        # the series once at each cut, and repeating both builds nothing
        fock._series.cache_clear()
        model = make_model(g0=0.95)
        for repeat in range(2):
            oracle = FockOracle(model, 24)
            assert ground_state(oracle, math.log(0.95 / 0.3)).steps == 0
            oracle_force(oracle, math.log(0.95 / 0.7))
            assert fock._series.cache_info().misses == 2, repeat

    def test_series_past_its_radius_raises(self, monkeypatch):
        # with the cut raised to g/k 1.5, past the radius of the series at
        # n_max 12 (its terms at 1.5 grow from the third on), the table for
        # the cut cannot be built, whatever the g/k of the solve
        monkeypatch.setattr(fock, "SERIES_MAX_U", 1.5)
        oracle = FockOracle(make_model(family="constant", g0=0.5), 12)
        with pytest.raises(NoConvergenceError, match="does not converge: term 4 "):
            ground_state(oracle, 0.0)


# g/k below the polynomial cut, from 0 to just under it
STRONG_U = [0.0, 1e-300, 1e-9, 1e-4, 0.01, 0.1, 0.3, 0.49, 0.5, 0.6, 0.7, 0.8, 0.85,
            float(np.nextafter(fock.POLYNOMIAL_MAX_U, 0.0))]


def binomial_half(n):
    """The coefficient of u^n in sqrt(1 + u), exactly."""
    c = Fraction(1)
    for j in range(n):
        c *= (Fraction(1, 2) - j) / (j + 1)
    return c


def polynomial_values(n_max, u, count=None):
    """(theta_0, theta_0') at u from the polynomial of n_max, summed over count
    orders (all of them by default)."""
    orders, coefficients = fock._series(n_max, fock.POLYNOMIAL_MAX_U, False)[:2]
    count = orders.size if count is None else count
    return coefficients[:, :count] @ u ** orders[:count]


def whole_sector_series(n_max, count):
    """(e_0 ... e_{count-1}, b_0 ... b_{count-1}) by the recursion of _series
    on the whole sector of n_max, with no smaller cutoff and no stop test."""
    oracle = FockOracle(make_model(), n_max)
    stencil, cols = oracle.stencil, oracle.cols
    gap = stencil[0] - 1.0
    inverse = np.divide(1.0, gap, out=np.zeros_like(gap), where=gap > 0)
    terms = np.zeros((count, gap.size))
    terms[0] = oracle.cold_start
    energies = [1.0]
    for n in range(1, count):
        w = (stencil[1:] * terms[n - 1][cols[1:]]).sum(0)
        energies.append(float(w[0]))
        terms[n] = (np.array(energies[n - 1:0:-1]) @ terms[1:n] - w) * inverse
    return np.array(energies), terms


def traced(run):
    """(result, bytes held after, peak bytes) of run() under tracemalloc."""
    tracemalloc.start()
    try:
        result = run()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


class TestPolynomial:
    def test_polynomial_builds_at_every_cutoff(self):
        # the series to g/k 0.9 converges at every cutoff from 1 to 64 (a
        # guard against the term two orders before would fire at n_max 2, 3
        # and 4, where the terms oscillate):
        # 42 terms at n_max 1, 263 at 12 and 305 from 34 up
        counts = {n_max: fock._series(n_max, fock.POLYNOMIAL_MAX_U, False)[0].size
                  for n_max in range(1, 65)}
        assert counts[1] == 42 and counts[12] == 263 and max(counts.values()) == 305
        assert all(counts[n_max] == 305 for n_max in range(34, 65))

    @pytest.mark.parametrize("n_max", [*range(1, 13), 16, 20, 28, 40])
    def test_polynomial_matches_dense_eigh(self, n_max):
        # theta_0 and theta_0' = <X1 X2> (Hellmann-Feynman) of the polynomial
        # against scipy's eigh of the sector matrix: within 2e-14 relative up
        # to the cut, both of them rounding at about epsilon ||H|| (measured
        # 1.3e-14 and 1.4e-14)
        oracle = FockOracle(make_model(), n_max)
        for u in (1e-4, 0.3, 0.6, 0.8, STRONG_U[-1]):
            h = sector_matrix(oracle, u)
            vals, vecs = scipy.linalg.eigh(h, subset_by_index=[0, 0])
            theta, slope = polynomial_values(n_max, u, fock._order_count(
                fock._series(n_max, fock.POLYNOMIAL_MAX_U, False)[2], u))
            assert abs(theta - vals[0]) <= 2e-14 * vals[0], u
            x1x2 = oracle.correlation(vecs[:, 0])
            assert abs(slope - x1x2) <= 2e-14 * abs(x1x2), u

    def test_energy_coefficients_are_londons_series(self):
        # the e_n equal the coefficients of (sqrt(1 + u) + sqrt(1 - u)) / 2,
        # the ground energy of the two normal modes in units of hbar omega
        # (Omega+- = omega sqrt(1 +- u)), through order 2 n_max + 1 (Wigner's
        # 2n + 1 rule): e_2 = -1/8 is London's van der Waals term and e_4 =
        # -5/128 its 5u^2/8 correction.  Measured within 29 epsilon relative
        # (6.4e-15), e_2 and e_4 within 2 and 4.8 (X[0, 1]^2 = 0.5 rounds up an
        # ulp); every odd order is exactly 0.
        eps = np.finfo(float).eps
        for n_max in (4, 12, 20):
            energies = fock._series(n_max, fock.POLYNOMIAL_MAX_U, False)[1][0]
            for n in range(2 * n_max + 2):
                if n % 2:
                    assert energies[n] == 0.0, (n_max, n)
                else:
                    expected = float(binomial_half(n))
                    assert abs(energies[n] - expected) <= 1e-14 * abs(expected), (n_max, n)
            assert energies[2] == pytest.approx(-1 / 8, rel=8 * eps, abs=0)
            assert energies[4] == pytest.approx(-5 / 128, rel=8 * eps, abs=0)

    @pytest.mark.parametrize("n_max", [1, 2, 3, 4, 6, 12, 20, 40])
    def test_limited_sums_match_the_full_sums(self, n_max):
        # summing only the orders counted at u moves theta_0 and theta_0' by
        # at most 4 epsilon from the sum of every order, and the series
        # vector path's E0, <x1 x2> and <N1> likewise (measured at most 1
        # epsilon); at g/k 1e-9 at most 4 orders are summed.  The build keeps
        # only the state terms it sums, so the vector's every order comes
        # from the recursion on the whole sector
        eps = np.finfo(float).eps
        counts = fock._series(n_max, fock.POLYNOMIAL_MAX_U, False)[2]
        assert fock._order_count(counts, 1e-9) <= 4
        for u in STRONG_U:
            limited = polynomial_values(n_max, u, fock._order_count(counts, u))
            full = polynomial_values(n_max, u)
            assert np.all(np.abs(limited - full) <= 4 * eps * np.abs(full)), u
        orders, coefficients = fock._series(n_max, fock.SERIES_MAX_U, True)[:2]
        terms = whole_sector_series(n_max, orders.size)[1]
        for u in STRONG_U[:8]:
            oracle = FockOracle(make_model(family="constant", g0=u), n_max)
            gs = ground_state(oracle, 0.0)
            powers = u**orders
            v = powers @ terms
            v /= np.linalg.norm(v)
            c = oracle.table(v)
            full = (float(powers @ coefficients[0]), oracle.correlation(v),
                    float(np.arange(n_max + 1) @ (c * c).sum(axis=1)))
            obs = oracle_observables(gs)
            for got, expected in zip((gs.E0, obs.x1x2, obs.N1), full):
                assert abs(got - expected) <= 4 * eps * abs(expected), u

    def test_build_on_a_smaller_cutoff_keeps_the_whole_sectors_energies(self, monkeypatch):
        # e_n reads b_{n-1} at (1, 1) alone, so on a cutoff c it is that of
        # any larger cutoff through order 2c + 1 (Wigner's 2n + 1 rule), and
        # the 305 orders to g/k 0.9 are built on cutoff 64 and then on 152,
        # the least cutoff whose 2c + 1 reaches order 304, from n_max 152 up.
        # At n_max 160 they are those of the recursion on the whole sector
        # within 4 epsilon (measured: equal, bit for bit), and at n_max 999
        # the build's traced peak is below 18 MB, its 14.5 MB table of 305
        # orders on 5,929 coordinates and little else (measured 16.7-17.4 MB;
        # 61.3 MB on cutoff 304's sector)
        eps = np.finfo(float).eps
        energies = fock._series(160, fock.POLYNOMIAL_MAX_U, False)[1][0]
        reference = whole_sector_series(160, energies.size)[0]
        assert np.all(np.abs(energies - reference) <= 4 * eps * np.abs(reference))
        fock._series.cache_clear()
        fock._sector(999)
        built, sector = [], fock._sector

        def recording(n_max):
            built.append(n_max)
            return sector(n_max)

        monkeypatch.setattr(fock, "_sector", recording)
        series, _, peak = traced(lambda: fock._series(999, fock.POLYNOMIAL_MAX_U, False))
        assert built == [64, 152, 999] and 2 * 151 + 1 < series[0][-1] <= 2 * 152 + 1
        assert peak < 18e6

    def test_force_curve_at_the_largest_cutoff_holds_little(self):
        # 11 forces below g/k 0.9 at n_max 999 from cold caches build the
        # sector (its stencil on 250,500 coordinates, no table of side 1000)
        # and the series to 0.9 on cutoff 152: measured 28.9 MB held and a
        # traced peak of 52.6 MB (48.3 and 109.6 MB with the dense tables
        # and the build on cutoff 304)
        fock._sector.cache_clear()
        fock._series.cache_clear()
        model = make_model(g0=0.85)

        def curve():
            oracle = FockOracle(model, 999)
            return oracle, [oracle_force(oracle, y) for y in np.linspace(0.0, 1.0, 11)]

        (oracle, forces), held, peak = traced(curve)
        assert len(forces) == 11 and oracle.recent == ()
        assert held < 32e6 and peak < 60e6

    @pytest.mark.parametrize("n_max", [1, 12, 40])
    def test_zero_coupling_sums_three_orders(self, n_max):
        # at g = 0 every power past u^0 is 0: both cuts sum the fewest orders
        # counted, 3 (not those of g/k 0.5 and up, 51 and 305 at n_max 40),
        # and give F = 0, E_vac = hbar omega and the state |0,0>, bit for bit
        model = make_model(g0=0.0, m=2.0, k=3.0, hbar=0.7)
        oracle = FockOracle(model, n_max)
        for u_max, states in ((fock.SERIES_MAX_U, True), (fock.POLYNOMIAL_MAX_U, False)):
            assert fock._order_count(fock._series(n_max, u_max, states)[2], 0.0) == 3
        force, energy = fock._force_and_energy(oracle, 1.0)
        assert force == 0.0 and energy == oracle.hbar_omega
        gs = ground_state(oracle, 1.0)
        assert gs.E0 == oracle.hbar_omega and np.array_equal(gs.vector, oracle.cold_start)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_force_and_energy_below_the_cut_match_the_contraction(self, family):
        # below g/k 0.9 the force and E_vac come from theta_0' and theta_0,
        # with no state vector; against -g' times the stencil contraction of
        # ground_state's vector (the series below g/k 0.5, Lanczos above) and
        # its E0, within 32 and 4 epsilon relative (measured 14 and 2.9, at
        # n_max 40, g/k 0.89), on an oracle that solves nothing
        eps = np.finfo(float).eps
        for n_max in (1, 4, 12, 20, 40):
            for u in STRONG_U[2:]:
                if family == "constant":
                    model, y = make_model(g0=u, family=family), 1.0
                elif family == "exponential":
                    model, y = make_model(g0=0.95, family=family, y_max=50.0), math.log(0.95 / u)
                else:
                    model = make_model(g0=0.95, family=family, y_max=1e5)
                    y = math.sqrt(0.95 / u - 1.0)
                oracle = FockOracle(model, n_max)
                force, energy = fock._force_and_energy(oracle, y)
                assert oracle.recent == () and math.isnan(oracle.e0)
                gs = ground_state(oracle, y)
                contraction = -model.g_prime(y) * oracle.correlation(gs.vector)
                assert abs(force - contraction) <= 32 * eps * abs(contraction), (n_max, u)
                assert abs(energy - gs.E0) <= 4 * eps * gs.E0, (n_max, u)

    def test_polynomial_trajectory_solves_nothing(self, monkeypatch):
        # 100 oracle-route steps at g/k near 0.7 and 0.85, n_max 12 and 20:
        # no step calls ground_state, and F and E_vac follow the route with
        # every force from ground_state (the polynomial cut at 0, so Lanczos)
        # within 32 and 8 epsilon relative (measured 9.0 and 4.6: a Lanczos E0
        # rounds at about epsilon ||H||)
        eps = np.finfo(float).eps
        model = make_model(g0=0.95)
        for u, n_max in ((0.7, 12), (0.85, 20)):
            config = DynamicsConfig(y0=math.log(0.95 / u), v0=0.003, dt=0.05, t_max=5.0,
                                    force_route="oracle", oracle_n_max=n_max)
            calls = []
            with monkeypatch.context() as patch:
                patch.setattr(fock, "ground_state", lambda *args: calls.append(args))
                polynomial = evolve(model, config)
            assert calls == [] and len(polynomial.t) == 101
            with monkeypatch.context() as patch:
                patch.setattr(fock, "POLYNOMIAL_MAX_U", 0.0)
                solved = evolve(model, config)
            assert np.all(np.abs(polynomial.F - solved.F) <= 32 * eps * np.abs(solved.F))
            assert np.all(np.abs(polynomial.E_vac - solved.E_vac) <= 8 * eps * solved.E_vac)

    def test_sweep_across_the_cut_keeps_the_solves_of_ground_state(self):
        # a force sweep from g/k 0.8 up to 0.99 and back down, at n_max 16:
        # E_vac matches dense eigh of the sector on every point (Lanczos above
        # the cut, the polynomial below), and a point below the cut leaves the
        # oracle as it is, so GroundStateResult.E0 is never a polynomial value:
        # a ground_state at the last solve's g/k reuses that solve's E0
        model = make_model(g0=0.99)
        oracle = FockOracle(model, 16)
        ys = np.linspace(math.log(0.99 / 0.8), 0.0, 21).tolist()
        for y in ys + ys[-2::-1]:
            u = model.g(y) / model.k
            recent, e0 = oracle.recent, oracle.e0
            _, energy = fock._force_and_energy(oracle, y)
            e_dense = scipy.linalg.eigh(sector_matrix(oracle, u), eigvals_only=True,
                                        subset_by_index=[0, 0])[0]
            assert energy == pytest.approx(e_dense, rel=1e-13, abs=0), u
            if u < fock.POLYNOMIAL_MAX_U:
                assert oracle.recent is recent and oracle.e0 is e0
            else:
                assert oracle.recent[-1][0] == u and oracle.e0 == energy
                last_y = y
        assert model.g(ys[0]) / model.k < fock.POLYNOMIAL_MAX_U
        last = oracle.recent[-1]
        gs = ground_state(oracle, last_y)
        assert gs.steps == 0 and gs.vector is last[1] and gs.E0 == oracle.e0

    def test_lanczos_after_a_polynomial_sweep_starts_cold(self):
        # a force sweep from g/k 0.3 up to 0.89 solves nothing, so the first
        # point above the cut is solved from |0,0>, as on a fresh oracle:
        # the same steps and bits, and E0 within 1e-13 of dense eigh
        model = make_model(g0=0.99)
        oracle = FockOracle(model, 20)
        for y in np.linspace(math.log(0.99 / 0.3), math.log(0.99 / 0.89), 30).tolist():
            oracle_force(oracle, y)
        assert oracle.recent == ()
        y = math.log(0.99 / 0.95)
        warm, cold = ground_state(oracle, y), ground_state(FockOracle(model, 20), y)
        assert warm.steps == cold.steps > 0
        assert warm.E0 == cold.E0 and np.array_equal(warm.vector, cold.vector)
        e_dense = scipy.linalg.eigh(sector_matrix(oracle, warm.u), eigvals_only=True,
                                    subset_by_index=[0, 0])[0]
        assert warm.E0 == pytest.approx(e_dense, rel=1e-13, abs=0)


class TestReuse:
    def test_constant_coupling_trajectory_solves_once(self, monkeypatch):
        # every step of an oracle-route run at constant g (g/k 0.95, above
        # both cuts) reuses the first, cold solve, so E_vac is that solve's E0
        # on every row
        constant_model = make_model(family="constant", g0=0.95)
        calls = 0
        lanczos = fock._lanczos

        def counting(*args):
            nonlocal calls
            calls += 1
            return lanczos(*args)

        monkeypatch.setattr(fock, "_lanczos", counting)
        config = DynamicsConfig(
            y0=1.0, v0=0.1, dt=0.05, t_max=10.0, force_route="oracle", oracle_n_max=12
        )
        traj = evolve(constant_model, config)
        assert len(traj.t) == 201 and calls == 1
        cold = ground_state(FockOracle(constant_model, 12), 5.0)
        assert np.all(traj.E_vac == cold.E0)

    def test_reuse_reports_no_steps_and_leaves_the_oracle(self):
        # Lanczos solves at g/k near 0.74
        oracle = FockOracle(make_model(g0=0.9), 12)
        for y in (0.2, 0.201, 0.202, 0.203):
            last = ground_state(oracle, y)
        recent, warm_steps = oracle.recent, oracle.warm_steps
        again = ground_state(oracle, 0.203)
        assert again.steps == 0 < last.steps
        assert again.E0 == last.E0 and again.vector is last.vector
        assert oracle.recent is recent and oracle.recent[-1][1] is last.vector
        assert oracle.warm_steps == warm_steps and oracle.e0 == last.E0
        # only the last g is reused: the g before it is solved again
        assert ground_state(oracle, 0.202).steps > 0

    @pytest.mark.parametrize("family", ["exponential", "inverse-power"])
    def test_non_constant_sweep_never_reuses(self, family):
        # g/k from 0.52 to 0.9, where every solve is a Lanczos solve
        model = make_model(g0=0.9, family=family)
        oracle = FockOracle(model, 16)
        steps = [ground_state(oracle, y).steps for y in np.linspace(0.1, 0.13, 300)]
        steps += [ground_state(oracle, y).steps for y in np.linspace(0.5, 0.0, 11)]
        assert min(steps) > 0
