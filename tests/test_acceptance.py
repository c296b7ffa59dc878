"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  All tolerances are fixed here, not configurable.
"""

import json
import math
import time

import numpy as np
import pytest

from casimir_toy import (
    CouplingSpec,
    DynamicsConfig,
    ModelParams,
    bogoliubov_coefficients,
    casimir_force,
    evolve,
    ground_state,
    lifshitz_force,
    squeezed_vacuum_expansion,
    vacuum_energy,
    validate,
    verify_annihilation,
)
from casimir_toy import cli
from casimir_toy.dynamics import energy_audit
from casimir_toy.fock import FockOracle, ground_state_structure_checks, oracle_observables
from casimir_toy.quantum import mean_free_quanta
from conftest import make_model
from references import bogoliubov_normalization, free_vacuum_correlation


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def random_models(rng, count):
    models = []
    families = ["constant", "exponential", "inverse-power"]
    while len(models) < count:
        k = rng.uniform(0.1, 10.0)
        model = make_model(
            g0=rng.uniform(0.0, 0.95) * k,
            family=families[rng.integers(0, 3)],
            k=k,
            m=rng.uniform(0.1, 10.0),
            hbar=rng.uniform(0.1, 10.0),
            lam=rng.uniform(0.5, 2.0),
        )
        models.append((model, rng.uniform(0.0, 10.0)))
    return models


def test_criterion_1_route_equivalence():
    rng = np.random.default_rng(20240901)
    worst = 0.0
    for model, y in random_models(rng, 100):
        fc = casimir_force(model, y)
        fl = lifshitz_force(model, y)
        worst = max(worst, abs(fc - fl) / max(abs(fc), 1e-30))
    report(
        "criterion 1: route equivalence on 100 random models, rel < 1e-12",
        worst < 1e-12,
        f"worst rel diff {worst:.2e}",
    )


def test_criterion_2_vacuum_energy_gradient():
    model = make_model()
    h = 1e-4 * model.coupling.lam
    worst = 0.0
    for y in np.linspace(0.0, 5.0, 11):
        fd = -cli.energy_gradient_fd(model, y, h)
        fc = casimir_force(model, y)
        worst = max(worst, abs(fc - fd) / abs(fc))
    report(
        "criterion 2: force matches -dE_vac/dy (h = 1e-4 lambda), rel < 1e-6",
        worst < 1e-6,
        f"worst rel err {worst:.2e}",
    )


def test_criterion_3_oracle_convergence():
    model = make_model()
    tic = time.perf_counter()
    oracle = FockOracle(model, 40)
    gs = ground_state(oracle, 0.0)
    obs = oracle_observables(gs)
    elapsed = time.perf_counter() - tic
    # analytic closed forms are the predictions under test
    e_pred = vacuum_energy(model, 0.0)
    x1x2_pred = (1 / (2 * math.sqrt(1.5)) - 1 / (2 * math.sqrt(0.5))) / 2
    n_pred = mean_free_quanta(bogoliubov_coefficients(model, 0.0))
    errs = {
        "E0": abs(gs.E0 - e_pred) / abs(e_pred),
        "x1x2": abs(obs.x1x2 - x1x2_pred) / abs(x1x2_pred),
        "N1": abs(obs.N1 - n_pred) / abs(n_pred),
    }
    # the published reference digits, to one unit in their last place
    ok_digits = (
        abs(gs.E0 - 0.9659258) < 1e-7
        and abs(obs.x1x2 - (-0.1494293)) < 1e-7
        and abs(obs.N1 - 0.02032) < 1e-5
    )
    ok = max(errs.values()) < 1e-6 and ok_digits and elapsed < 60.0
    report(
        "criterion 3: oracle reproduces E_vac, <x1x2>, <N1> at n_max=40, rel < 1e-6, < 60 s",
        ok,
        f"rel errs {errs}, runtime {elapsed:.1f}s",
    )


def test_criterion_4_bogoliubov_normalization_and_free_limit():
    rng = np.random.default_rng(20240902)
    worst = 0.0
    for model, y in random_models(rng, 100):
        plus, minus = bogoliubov_normalization(bogoliubov_coefficients(model, y))
        worst = max(worst, abs(plus - 1.0), abs(minus - 1.0))
    free = make_model(g0=0.0)
    coeffs = bogoliubov_coefficients(free, 0.0)
    n1 = mean_free_quanta(coeffs)
    expansion = squeezed_vacuum_expansion(coeffs, N_max=6)
    free_ok = (
        coeffs.beta_1p == 0.0
        and coeffs.beta_1m == 0.0
        and n1 == 0.0
        and expansion.coefficients[0] == 1.0
        and np.all(expansion.coefficients[1:] == 0.0)
    )
    report(
        "criterion 4: Bogoliubov normalization abs < 1e-12; g=0 gives bare vacuum exactly",
        worst < 1e-12 and free_ok,
        f"worst |norm - 1| {worst:.2e}",
    )


def test_criterion_5_squeezed_vacuum_expansion():
    model = make_model()
    coeffs = bogoliubov_coefficients(model, 0.0)
    r = abs(coeffs.beta_1p / coeffs.alpha_1p)
    # residuals decay like r**N times an sqrt(N+1) occupation prefactor and
    # bottom out at the float64 rounding floor (~1e-17), so the probe uses
    # orders where the true tail term still dominates
    orders = [10, 12, 14]
    residuals = [
        verify_annihilation(squeezed_vacuum_expansion(coeffs, N_max=n), 35)
        for n in orders
    ]
    ratios = [
        (residuals[i + 1] / residuals[i]) ** (1 / (orders[i + 1] - orders[i]))
        for i in range(len(orders) - 1)
    ]
    ratio_ok = all(abs(m - r) / r < 0.05 for m in ratios)
    # with the occupation prefactor divided out, r is recovered sharply
    norm_res = [res / math.sqrt(n + 1) for res, n in zip(residuals, orders)]
    exact_ratio = (norm_res[-1] / norm_res[0]) ** (1 / (orders[-1] - orders[0]))
    ratio_ok = ratio_ok and abs(exact_ratio - r) / r < 0.005
    norm_worst = 0.0
    for n in orders:
        exp = squeezed_vacuum_expansion(coeffs, N_max=n)
        norm_worst = max(
            norm_worst, abs(float(np.sum(exp.coefficients**2)) + exp.tail - 1.0)
        )
    report(
        "criterion 5: annihilation residual geometric at beta/alpha (5%); sum c_n^2 + tail = 1 (1e-12)",
        ratio_ok and norm_worst < 1e-12,
        f"measured ratios {[f'{m:.4f}' for m in ratios]} vs {r:.4f}; norm err {norm_worst:.1e}",
    )


def test_criterion_6_ground_state_structure():
    model = make_model()
    gs = ground_state(FockOracle(model, 40), 0.0)
    rep = ground_state_structure_checks(gs)
    report(
        "criterion 6: exchange symmetry < 1e-10 and odd-parity mass < 1e-20",
        rep.symmetry_violation < 1e-10 and rep.odd_parity_mass < 1e-20,
        f"symmetry {rep.symmetry_violation:.1e}, odd mass {rep.odd_parity_mass:.1e}",
    )


def test_criterion_7_free_vacuum_correlation():
    model = make_model()
    n_max = 12
    rng = np.random.default_rng(20240903)
    worst = 0.0
    for _ in range(100):
        psi2 = rng.normal(size=n_max + 1)
        psi2 /= np.linalg.norm(psi2)
        worst = max(worst, abs(free_vacuum_correlation(model, n_max, psi2)))
    report(
        "criterion 7: <x1 x2> = 0 (abs 1e-12) for 100 random mode-2 states",
        worst < 1e-12,
        f"worst |<x1x2>| {worst:.1e}",
    )


def test_criterion_8_dynamics():
    model = make_model()
    dt = 0.01 * math.sqrt(model.M / model.k)
    n_steps = 100_000
    config = DynamicsConfig(y0=8.0, v0=0.0, dt=dt, t_max=n_steps * dt)
    traj = evolve(model, config)
    drift = energy_audit(traj)
    steps_ok = len(traj.t) == n_steps + 1 and not traj.domain_exited
    attract_ok = traj.y[-1] < traj.y[0]

    const = make_model(family="constant", g0=0.3)
    cfg = DynamicsConfig(y0=1.0, v0=0.003, dt=0.1, t_max=100.0)
    ct = evolve(const, cfg)
    uniform_ok = np.max(np.abs(ct.y - (1.0 + 0.003 * ct.t))) < 1e-12

    report(
        "criterion 8: 1e5-step run drift < 1e-6; constant g uniform; decreasing g attracts",
        drift < 1e-6 and steps_ok and attract_ok and uniform_ok,
        f"drift {drift:.1e}, dy {traj.y[-1] - traj.y[0]:.1e}",
    )


def test_criterion_9_reference_formula():
    rep = cli.reference_casimir_report(1.0)
    coeff_ok = abs(rep["coefficient"] - math.pi**2 / 240) < 1e-12 * (math.pi**2 / 240)
    p1 = cli.reference_casimir_report(1.5)["pressure"]
    p2 = cli.reference_casimir_report(3.0)["pressure"]
    scaling_ok = abs(p1 / p2 - 16.0) < 1e-12
    report(
        "criterion 9: coefficient pi^2/240 to 12 digits; y^-4 scaling",
        coeff_ok and scaling_ok,
        f"coefficient {rep['coefficient']:.15f}",
    )


def test_criterion_10_determinism(tmp_path):
    doc = {
        "model": {
            "m": 1.0, "M": 1000.0, "k": 1.0, "hbar": 1.0,
            "coupling": {"family": "exponential", "g0": 0.5, "lambda": 1.0,
                         "y_min": 0.0, "y_max": 10.0},
        },
        "grid": {"y_min": 0.0, "y_max": 5.0, "points": 11},
        "oracle": {"n_max": 30, "convergence_tol": 1e-6},
        "dynamics": {"y0": 2.0, "v0": 0.0, "dt": 0.1, "t_max": 10.0},
        "output": {"directory": "unused", "precision": 12},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    outputs = []
    for run in ("a", "b"):
        outdir = tmp_path / run
        for cmd in ("spectrum", "force-curve", "vacuum-content", "oracle-check", "evolve"):
            code = cli.main([cmd, "--config", str(cfg), "--output-dir", str(outdir)])
            assert code == 0, f"{cmd} exited {code}"
        outputs.append(
            {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
        )
    identical = outputs[0] == outputs[1]
    report(
        "criterion 10: identical config twice gives byte-identical outputs",
        identical,
        f"{len(outputs[0])} files compared",
    )
