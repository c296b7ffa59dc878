"""The table commands evaluate each column on the whole grid at once.

numpy's exp and pow may differ from libm's in the last bit, so the array
columns are held to stated bounds of the point-by-point (float) evaluation,
and write_csv's row template to the text of the per-value format it replaced.
"""

import json
import math

import numpy as np
import pytest

from casimir_toy import cli, quantum
from casimir_toy.errors import DomainError
from casimir_toy.model import spectrum
from conftest import make_model

EPS = np.finfo(float).eps
# |array - float| <= ULPS * EPS * scale, per column
ULPS = 16.0
FAMILIES = ("constant", "exponential", "inverse-power")


def table(tmp_path, model_doc, command):
    """Columns (by header) of command's CSV over 401 points of [0, 10], at
    17 digits, which read back to the exact doubles."""
    doc = {
        "model": model_doc,
        "grid": {"y_min": 0.0, "y_max": 10.0, "points": 401},
        "output": {"directory": str(tmp_path), "precision": 17},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert cli.main([command, "--config", str(path)]) == 0
    name = {"force-curve": "force_curve", "vacuum-content": "vacuum_content"}
    lines = (tmp_path / f"{name.get(command, command)}.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return dict(zip(header, rows.T))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("g0", [0.99, 1e-10])
def test_array_columns_match_point_by_point(tmp_path, family, g0):
    # exponential g/k falls to 1e-15 of g0 over the grid, inverse-power
    # (cubed, so numpy's pow is used) to 1e-5
    params = dict(m=0.5, k=2.0, hbar=1.3, lam=0.6, exponent=3)
    model = make_model(family=family, g0=g0 * params["k"], **params)
    model_doc = {
        "m": 0.5, "M": 1000.0, "k": 2.0, "hbar": 1.3,
        "coupling": {"family": family, "g0": g0 * 2.0, "lambda": 0.6, "exponent": 3,
                     "y_min": 0.0, "y_max": 10.0},
    }
    spec = table(tmp_path, model_doc, "spectrum")
    force = table(tmp_path, model_doc, "force-curve")
    vac = table(tmp_path, model_doc, "vacuum-content")
    h = cli._fd_step(model)

    relative, absolute, fd = [], [], []
    for i, y in enumerate(spec["y"].tolist()):
        g, omega_plus, omega_minus = spectrum(model, y)
        e = quantum.vacuum_energy(model, y)
        coeffs = quantum.bogoliubov_coefficients(model, y)
        relative += [
            (spec["g"][i], g),
            (spec["omega"][i], model.omega),
            (spec["omega_plus"][i], omega_plus),
            (spec["omega_minus"][i], omega_minus),
            (force["E_vac"][i], e),
            (force["F_casimir"][i], quantum.casimir_force(model, y)),
            (force["F_lifshitz"][i], quantum.lifshitz_force(model, y)),
        ]
        absolute += [
            (vac["beta_1p"][i], coeffs.beta_1p),
            (vac["beta_1m"][i], coeffs.beta_1m),
            (vac["N_mean"][i], quantum.mean_free_quanta(coeffs)),
            (vac["c0"][i], quantum.squeezed_vacuum_expansion(coeffs, 0).c0),
        ]
        fd.append((force["F_finite_diff"][i], -cli.energy_gradient_fd(model, np.array([y]), h)[0], e))
    for a, v in relative:
        assert abs(a - v) <= ULPS * EPS * abs(v), (a, v)
    for a, v in absolute:
        assert abs(a - v) <= ULPS * EPS, (a, v)
    for a, v, e in fd:
        assert abs(a - v) <= ULPS * EPS * abs(e) / h, (a, v)


def test_array_outside_domain_names_the_point(reference_model):
    with pytest.raises(DomainError, match="y=10.5 outside"):
        reference_model.g(np.array([0.0, 10.5, 3.0]))
    with pytest.raises(DomainError, match="y=-1.0 outside"):
        reference_model.g_prime(np.array([-1.0, 2.0]))


def test_write_csv_text_is_per_value_format(tmp_path):
    rng = np.random.default_rng(20)
    edge = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
            2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
            0.1, 1e16, 123456789012345678.0, 1e-5, 9.999999999999999e-05]
    # every bit pattern: subnormals, nan payloads and infinities included
    bits = rng.integers(0, 2**64, size=50_000, dtype=np.uint64).view(np.float64)
    spread = rng.standard_normal(50_000) * 10.0 ** rng.uniform(-310, 300, 50_000)
    values = np.concatenate([edge, bits, spread, [0.0, 0.0, 0.0, 0.0]])
    n = len(values) // 5 * 5
    floats = values[:n].reshape(-1, 5)
    rows = [tuple(r) for r in floats.tolist()]
    # numpy scalars too, as zip over arrays yields them
    rows += list(zip(*floats[:1000].T))
    for precision in (6, 12, 17):
        path = tmp_path / f"p{precision}.csv"
        cli.write_csv(path, ["a", "b", "c", "d", "e"], rows, precision)
        spec = f".{precision}g"
        expected = "a,b,c,d,e\n" + "".join(
            ",".join(format(v, spec) for v in row) + "\n" for row in rows
        )
        assert path.read_bytes() == expected.encode("utf-8")
