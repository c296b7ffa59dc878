"""The table commands evaluate each column on the whole grid at once, and
write_csv formats it a block of rows at a time.

numpy's exp and pow may differ from libm's in the last bit, so the array
columns are held to stated bounds of the point-by-point (float) evaluation.
write_csv's text is held to format(v, f".{p}g") of each value, however the
rows fall into blocks and whichever columns hold one value over a block,
and every CSV artifact to the per-row writer of references.py run on the
same columns.
"""

import json
import math

import numpy as np
import pytest

import references
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
        reference_model.coupling.derivative(np.array([-1.0, 2.0]))


def per_value_text(header, rows, precision):
    spec = f".{precision}g"
    return ",".join(header) + "\n" + "".join(
        ",".join(format(v, spec) for v in row) + "\n" for row in rows
    )


def written(tmp_path, header, blocks, precision=12):
    path = tmp_path / "table.csv"
    cli.write_csv(path, header, blocks, precision)
    return path.read_text(encoding="utf-8")


def floats(*patterns):
    return np.array(patterns, dtype=np.uint64).view(np.float64)


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
    table = values[:n].reshape(-1, 5)
    # blocks of uneven sizes, the last of one row
    cuts = [0, 1, 7, 3 * cli.CSV_BLOCK + 5, len(table) - 1, len(table)]
    blocks = [tuple(table[a:b].T) for a, b in zip(cuts, cuts[1:])]
    for precision in (6, 12, 17):
        text = written(tmp_path, ["a", "b", "c", "d", "e"], blocks, precision)
        assert text == per_value_text("abcde", table.tolist(), precision)


def test_column_constant_over_some_blocks_only(tmp_path):
    b = cli.CSV_BLOCK
    rng = np.random.default_rng(21)
    # one value over the first block, then varying, then another value
    # that starts inside the second block and fills the third
    x = np.concatenate([np.full(b, 0.1), rng.standard_normal(b // 2),
                        np.full(b + b // 2, 2.0 / 3.0)])
    y = np.full(len(x), 7.5)
    y[-1] = 7.25
    text = written(tmp_path, ["x", "y"], [(x, y)], 17)
    assert text == per_value_text("xy", zip(x.tolist(), y.tolist()), 17)


@pytest.mark.parametrize("column", [
    pytest.param(np.array([0.0] * 5 + [-0.0] + [0.0] * 3), id="signed-zeros"),
    pytest.param(floats(0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                        0x7FF8000000000123, 0x7FF8000000000000), id="nans"),
    pytest.param(floats(*[0xFFF8000000000000] * 4), id="one-nan"),
])
def test_values_of_different_bits_are_formatted_apart(tmp_path, column):
    rows = [(float(i), v) for i, v in enumerate(column.tolist())]
    text = written(tmp_path, ["i", "v"], [(np.arange(len(column), dtype=float), column)])
    assert text == per_value_text("iv", rows, 12)


def test_scalar_column_is_every_row(tmp_path):
    x = np.linspace(0.0, 1.0, 2 * cli.CSV_BLOCK + 3)
    text = written(tmp_path, ["x", "w", "z"], [(x, 1.0 / 3.0, -x)])
    assert text == per_value_text("xwz", [(v, 1.0 / 3.0, -v) for v in x.tolist()], 12)


def test_one_row_and_zero_rows(tmp_path):
    one = [(np.array([0.1]), np.array([-2.5e-300]), math.pi)]
    assert written(tmp_path, ["a", "b", "c"], one) == "a,b,c\n0.1,-2.5e-300,3.14159265359\n"
    assert written(tmp_path, ["a", "b"], []) == "a,b\n"
    assert written(tmp_path, ["a", "b"], [(np.empty(0), 1.0)]) == "a,b\n"


def test_row_count_not_a_multiple_of_the_block(tmp_path):
    rng = np.random.default_rng(22)
    n = 3 * cli.CSV_BLOCK + 11
    x, y = rng.standard_normal(n), np.full(n, 0.25)
    text = written(tmp_path, ["x", "y"], [(x, y)])
    assert text.count("\n") == n + 1
    assert text == per_value_text("xy", zip(x.tolist(), y.tolist()), 12)


def family_config(tmp_path, family, points):
    return {
        "model": {"m": 1.0, "M": 1000.0, "k": 1.0, "hbar": 1.0,
                  "coupling": {"family": family, "g0": 0.3 if family == "constant" else 0.5,
                               "lambda": 1.0, "exponent": 2, "y_min": 0.0, "y_max": 10.0}},
        "grid": {"y_min": 0.0, "y_max": 5.0, "points": points},
        "oracle": {"n_max": 12, "convergence_tol": 1e-6},
        "output": {"directory": str(tmp_path / "out"), "precision": 12},
    }


# command argv, grid points (None: two blocks and a part), dynamics fields, artifacts
COMMANDS = {
    "spectrum": (["spectrum"], None, None, ["spectrum.csv"]),
    "force-curve": (["force-curve"], None, None, ["force_curve.csv"]),
    "force-curve-oracle": (["force-curve", "--with-oracle"], 23, None, ["force_curve.csv"]),
    "vacuum-content": (["vacuum-content"], None, None,
                       ["vacuum_content.csv", "pair_distribution.csv"]),
    "evolve-casimir": (["evolve"], None, {"force_route": "casimir", "t_max": 60.0},
                       ["trajectory.csv"]),
    "evolve-lifshitz": (["evolve"], None, {"force_route": "lifshitz", "t_max": 60.0},
                        ["trajectory.csv"]),
    "evolve-oracle": (["evolve"], None,
                      {"force_route": "oracle", "oracle_n_max": 12, "t_max": 10.0},
                      ["trajectory.csv"]),
}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("command", list(COMMANDS))
def test_artifacts_are_the_per_row_writer_text(tmp_path, monkeypatch, family, command):
    argv, points, dynamics, artifacts = COMMANDS[command]
    doc = family_config(tmp_path, family, points or 2 * cli.CSV_BLOCK + 37)
    if dynamics:
        doc["dynamics"] = {"y0": 2.0, "v0": 0.001, "dt": 0.1, **dynamics}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    calls = []
    write = cli.write_csv

    def capturing(path, header, blocks, precision):
        blocks = [tuple(np.array(c) for c in columns) for columns in blocks]
        calls.append((path, header, blocks, precision))
        write(path, header, blocks, precision)

    monkeypatch.setattr(cli, "write_csv", capturing)
    assert cli.main([*argv, "--config", str(config)]) == 0
    assert [path.name for path, *_ in calls] == artifacts
    for path, header, blocks, precision in calls:
        rows = list(references.csv_rows(blocks))
        assert len(rows) > 1
        expected = references.per_row_csv(header, rows, precision)
        assert path.read_bytes() == expected.encode("utf-8")
