import contextlib
import copy
import dataclasses
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casimir_toy import DynamicsConfig, ModelParams, cli, fock
from casimir_toy.dynamics import MAX_ROWS
from casimir_toy.errors import ConfigError, DomainError

ROOT = Path(__file__).resolve().parent.parent
SECTIONS = {
    "model": ModelParams,
    "grid": cli.GridConfig,
    "oracle": cli.OracleConfig,
    "dynamics": DynamicsConfig,
    "output": cli.OutputConfig,
}


# Configs whose force-curve finite-difference step underflows: by lambda
# (an inverse-power family, whose slope stays finite) or by the window.
FD_STEP_UNDERFLOW = [
    pytest.param(
        "model.coupling.lambda",
        lambda d: d["model"]["coupling"].update(
            {"family": "inverse-power", "lambda": 1e-321, "exponent": 2}
        ),
        id="lambda",
    ),
    pytest.param(
        "model.coupling.y_max",
        lambda d: (
            d["model"]["coupling"].update(y_max=1e-320),
            d["grid"].update(y_max=1e-320),
            d["dynamics"].update(y0=0.0),
        ),
        id="window",
    ),
]


def reference_config(tmp_path, **overrides):
    doc = {
        "model": {
            "m": 1.0, "M": 1000.0, "k": 1.0, "hbar": 1.0,
            "coupling": {
                "family": "exponential", "g0": 0.5, "lambda": 1.0,
                "y_min": 0.0, "y_max": 10.0,
            },
        },
        "grid": {"y_min": 0.0, "y_max": 5.0, "points": 11},
        "oracle": {"n_max": 40, "convergence_tol": 1e-6},
        "dynamics": {"y0": 2.0, "v0": 0.0, "dt": 0.1, "t_max": 20.0},
        "output": {"directory": str(tmp_path / "out"), "precision": 12},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path, doc


def field_paths(sections=SECTIONS, prefix=""):
    """Dotted path of every section and field the config accepts, by the
    dataclasses' own fields (the field lam is the JSON key lambda)."""
    for name, cls in sections.items():
        path = prefix + name
        yield path
        types = typing.get_type_hints(cls)
        fields = {"lambda" if f.name == "lam" else f.name: types[f.name]
                  for f in dataclasses.fields(cls)}
        for key, tp in fields.items():
            if dataclasses.is_dataclass(tp):
                yield from field_paths({key: tp}, path + ".")
            else:
                yield f"{path}.{key}"


def doc_paths(doc, prefix=""):
    for key, value in doc.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from doc_paths(value, f"{prefix}{key}.")


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


class TestConfigParsing:
    def test_missing_model_field_named(self, tmp_path):
        path, doc = reference_config(tmp_path)
        del doc["model"]["k"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="model.k"):
            cli.load_config(str(path))

    def test_bad_grid_points(self, tmp_path):
        path, doc = reference_config(tmp_path)
        doc["grid"]["points"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="points"):
            cli.load_config(str(path))

    def test_grid_outside_domain(self, tmp_path):
        path, doc = reference_config(tmp_path)
        doc["grid"]["y_max"] = 99.0
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="domain"):
            cli.load_config(str(path))

    def test_bad_precision(self, tmp_path):
        path, doc = reference_config(tmp_path)
        doc["output"]["precision"] = 3
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="precision"):
            cli.load_config(str(path))

    def test_invalid_model_rejected(self, tmp_path):
        path, doc = reference_config(tmp_path)
        doc["model"]["coupling"]["g0"] = 2.0  # exceeds k
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            cli.load_config(str(path))

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("oracle.n_max", lambda d: d["oracle"].update(n_max=0)),
            ("dynamics.oracle_n_max", lambda d: d["dynamics"].update(oracle_n_max=0)),
            # a (n_max + 1)^2 table above MAX_ROWS entries, refused before
            # any oracle is built
            pytest.param(
                "oracle.n_max", lambda d: d["oracle"].update(n_max=1000), id="oracle.n_max-1000"
            ),
            pytest.param(
                "dynamics.oracle_n_max",
                lambda d: d["dynamics"].update(oracle_n_max=1000),
                id="dynamics.oracle_n_max-1000",
            ),
            ("model", lambda d: d.update(model=None)),
            ("grid", lambda d: d.update(grid=None)),
            ("oracle", lambda d: d.update(oracle=[1])),
            ("grid.y_min", lambda d: d["grid"].update(y_min="abc")),
            ("grid.points", lambda d: d["grid"].update(points=1e400)),
            ("oracle.n_max", lambda d: d["oracle"].update(n_max="x")),
            ("output.precision", lambda d: d["output"].update(precision="x")),
            ("dynamics.dt", lambda d: d["dynamics"].update(dt=math.nan)),
            ("grid.y_min", lambda d: d["grid"].update(y_min=5.0, y_max=0.0)),
            ("model.coupling.y_max", lambda d: d["model"]["coupling"].update(y_max=math.inf)),
            ("oracle.convergence_tol", lambda d: d["oracle"].update(convergence_tol=-1)),
            ("output.format", lambda d: d["output"].update(format="json")),
            ("model.coupling.lamda", lambda d: d["model"]["coupling"].update(lamda=2.0)),
            ("config.outputs", lambda d: d.update(outputs={})),
            ("oracle.n_max", lambda d: d["oracle"].update(n_max=40.7)),
            ("model.coupling.exponent", lambda d: d["model"]["coupling"].update(exponent=2.5)),
            pytest.param("model.m", lambda d: d["model"].update(m="1.0"), id="model.m-str"),
            pytest.param("model.M", lambda d: d["model"].update(M=True), id="model.M-bool"),
            pytest.param(
                "oracle.n_max", lambda d: d["oracle"].update(n_max="40"), id="oracle.n_max-str"
            ),
            pytest.param(
                "grid.points", lambda d: d["grid"].update(points="101"), id="grid.points-str"
            ),
            pytest.param(
                "output.directory",
                lambda d: d["output"].update(directory=5),
                id="output.directory-int",
            ),
            pytest.param(
                "model.coupling.family",
                lambda d: d["model"]["coupling"].update(family=5),
                id="model.coupling.family-int",
            ),
            pytest.param(
                "model.coupling.g0",
                lambda d: d["model"]["coupling"].update(g0=2.0),
                id="model.coupling.g0-above-k",
            ),
            pytest.param(
                "model.coupling.y_min",
                lambda d: d["model"]["coupling"].update(y_min=-1e300),
                id="model.coupling.y_min-overflow",
            ),
            pytest.param(
                "grid.points", lambda d: d["grid"].update(points=1e20), id="grid.points-1e20"
            ),
            pytest.param(
                "model.m", lambda d: d["model"].update(m=5e-324), id="model.m-omega-overflow"
            ),
            pytest.param(
                "output.directory",
                lambda d: d["output"].update(directory="a\u0000b"),
                id="output.directory-nul",
            ),
            pytest.param(
                "dynamics.t_max / dynamics.dt",
                lambda d: d["dynamics"].update(dt=1e-300, t_max=1e300),
                id="dynamics.steps-overflow",
            ),
            pytest.param(
                "dynamics.t_max / dynamics.dt",
                lambda d: d["dynamics"].update(dt=1e-3, t_max=1e12),
                id="dynamics.steps-1e15",
            ),
            pytest.param(
                "dynamics.t_max / dynamics.dt",
                lambda d: d["dynamics"].update(dt=1.0, t_max=0.4),
                id="dynamics.steps-zero",
            ),
            pytest.param(
                "model.coupling.lambda",
                lambda d: (
                    d["model"].update(k=1e10),
                    d["model"]["coupling"].update({"g0": 1e9, "lambda": 1e-300}),
                ),
                id="model.coupling.lambda-slope-overflow",
            ),
            # hbar omega, or hbar / (m omega), is inf: the oracle's H0 or x
            # would be, and oracle-check ended in a LinAlgError traceback
            pytest.param(
                "model.hbar, model.k and model.m",
                lambda d: d["model"].update(hbar=1e300, k=1e20),
                id="model.hbar-omega-overflow",
            ),
            pytest.param(
                "model.hbar, model.k and model.m",
                lambda d: (
                    d["model"].update(hbar=1e300, m=1e-300, k=1e-300),
                    d["model"]["coupling"].update(g0=0.5e-300),
                ),
                id="model.hbar-length-overflow",
            ),
            # hbar omega, or hbar / (m omega), is below the smallest normal
            # float64: at hbar = k = 1e-300 hbar omega read 0, oracle-check
            # exited 4 with rel_err_N 1.0 and evolve wrote E_vac = 0 with a
            # drift of 0
            pytest.param(
                "model.hbar, model.k and model.m",
                lambda d: (
                    d["model"].update(hbar=1e-300, k=1e-300),
                    d["model"]["coupling"].update(g0=0.5e-300),
                ),
                id="model.hbar-omega-underflow",
            ),
            pytest.param(
                "model.hbar, model.k and model.m",
                lambda d: d["model"].update(hbar=1e-300, m=1e10, k=1e10),
                id="model.hbar-length-underflow",
            ),
            # evolve wrote inf momenta and a nan drift with exit 0
            pytest.param(
                "model.M * dynamics.v0",
                lambda d: d["dynamics"].update(v0=1e200),
                id="dynamics.v0-momentum-overflow",
            ),
            pytest.param(
                "model.M * dynamics.v0",
                lambda d: (d["model"].update(M=8e307), d["dynamics"].update(v0=10.0)),
                id="model.M-momentum-overflow",
            ),
            # 2M overflowed, so evolve's kinetic energy p^2 / 2M read 0 and it
            # reported a drift of 0 with exit 0
            pytest.param(
                "model.M = 1e+308 must be at most float64 max / 2",
                lambda d: (d["model"].update(M=1e308), d["dynamics"].update(v0=1e-200)),
                id="model.M-double-overflow",
            ),
            # a subnormal k: the closed forms rounded k +- g on the subnormal
            # grid, and oracle-check passed with rel_err_N 1.0e-14
            pytest.param(
                "model.k = 1e-310 must be at least",
                lambda d: (
                    d["model"].update(k=1e-310),
                    d["model"]["coupling"].update(g0=0.5e-310),
                ),
                id="model.k-subnormal",
            ),
        ],
    )
    def test_malformed_config_exits_2_naming_field(self, tmp_path, capsys, field, edit):
        path, doc = reference_config(tmp_path)
        edit(doc)
        path.write_text(json.dumps(doc))
        assert cli.main(["spectrum", "--config", str(path)]) == cli.EXIT_CONFIG
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("field, edit", FD_STEP_UNDERFLOW)
    def test_fd_step_underflow_exits_2_from_force_curve(self, tmp_path, capsys, field, edit):
        path, doc = reference_config(tmp_path)
        edit(doc)
        path.write_text(json.dumps(doc))
        assert cli.main(["force-curve", "--config", str(path)]) == cli.EXIT_CONFIG
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("field, edit", FD_STEP_UNDERFLOW)
    def test_fd_step_underflow_leaves_other_subcommands_running(self, tmp_path, field, edit):
        # only force-curve's F_finite_diff column takes the step
        path, doc = reference_config(tmp_path)
        edit(doc)
        path.write_text(json.dumps(doc))
        for command in ("spectrum", "vacuum-content", "oracle-check", "evolve"):
            assert cli.main([command, "--config", str(path)]) == cli.EXIT_OK, command

    def test_precision_flag_out_of_range_exits_2(self, tmp_path, capsys):
        path, _ = reference_config(tmp_path)
        code = cli.main(["spectrum", "--config", str(path), "--precision", "3"])
        assert code == cli.EXIT_CONFIG
        assert "precision" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_integral_float_accepted(self, tmp_path):
        path, doc = reference_config(tmp_path)
        doc["oracle"]["n_max"] = 40.0
        path.write_text(json.dumps(doc))
        n_max = cli.load_config(str(path)).oracle.n_max
        assert n_max == 40 and isinstance(n_max, int)

    def test_largest_oracle_cutoff_parses(self, tmp_path):
        # (999 + 1)^2 = MAX_ROWS table entries; parsed only, no oracle built
        path, doc = reference_config(tmp_path)
        doc["oracle"]["n_max"] = 999
        doc["dynamics"]["oracle_n_max"] = 999
        path.write_text(json.dumps(doc))
        config = cli.load_config(str(path))
        assert config.oracle.n_max == config.dynamics.oracle_n_max == 999

    def test_negative_pair_n_max_exits_2_naming_flag(self, tmp_path, capsys):
        path, _ = reference_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["vacuum-content", "--config", str(path), "--pair-n-max", "-1"])
        assert exc.value.code == cli.EXIT_CONFIG
        assert "--pair-n-max" in capsys.readouterr().err

    def test_pair_n_max_of_max_rows_exits_2_naming_flag(self, tmp_path, capsys):
        # a pair table of MAX_ROWS + 1 rows; refused before anything is allocated
        path, _ = reference_config(tmp_path)
        argv = ["vacuum-content", "--config", str(path), "--pair-n-max", str(MAX_ROWS)]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_CONFIG
        assert "--pair-n-max" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under-file"])
    def test_output_dir_that_is_a_file_exits_2_naming_it(self, tmp_path, capsys, under):
        path, _ = reference_config(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        outdir = blocker / under
        code = cli.main(["spectrum", "--config", str(path), "--output-dir", str(outdir)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write ")
        assert str(blocker) in err and "Traceback" not in err

    def test_exit_code_on_config_error(self, tmp_path, capsys):
        path, doc = reference_config(tmp_path)
        del doc["model"]["m"]
        path.write_text(json.dumps(doc))
        code = cli.main(["spectrum", "--config", str(path)])
        assert code == cli.EXIT_CONFIG
        assert "model.m" in capsys.readouterr().err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


CONFIG_PATHS = ["config", *field_paths()]


def reference_with(path, value):
    """configs/reference.json with value at the dotted path ("config": the whole document)."""
    doc = json.loads((ROOT / "configs" / "reference.json").read_text())
    if path == "config":
        return value
    *parents, key = path.split(".")
    node = doc
    for name in parents:
        node = node[name]
    node[key] = value
    return doc


def refusal(path, doc):
    """The ConfigError message for doc, or None if it parses; a refusal names path."""
    try:
        cli.parse_config(copy.deepcopy(doc))
    except ConfigError as exc:
        if path != "config":
            assert path in str(exc)
        return str(exc)
    return None


@settings(deadline=None)
@given(value=JSON_VALUES, run_path=st.sampled_from(CONFIG_PATHS))
def test_any_json_value_in_any_field_parses_or_is_named(value, run_path):
    """Any JSON value (floats include +-1e400 = +-inf) at any one config path
    either parses or is a ConfigError naming that path, and the CLI exits 0
    or 2 accordingly (run at one of the paths per example)."""
    for path in CONFIG_PATHS:
        refusal(path, reference_with(path, value))
    doc = reference_with(run_path, value)
    refused = refusal(run_path, doc)
    if refused is None and run_path == "grid.points" and value > 10_000:
        return  # valid, but a table this long is a run's size, not a config check
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc))
        code = cli.main(["spectrum", "--config", str(config), "--output-dir", tmp])
    if refused is None:
        assert code == cli.EXIT_OK
    else:
        assert code == cli.EXIT_CONFIG
        assert refused in err.getvalue()


def test_readme_schema_is_the_accepted_schema():
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"```jsonc\n(.*?)```", readme, re.S)
    doc = json.loads(re.sub(r"//.*", "", block))
    cli.parse_config(doc)
    assert {f.name for f in dataclasses.fields(cli.RunConfig)} == set(SECTIONS)
    assert set(doc_paths(doc)) == set(field_paths())


class TestStderrNotes:
    def test_adiabatic_warning_on_stderr_only(self, tmp_path, capsys):
        path, doc = reference_config(tmp_path)
        assert cli.main(["spectrum", "--config", str(path)]) == 0
        quiet = capsys.readouterr()
        assert quiet.err == ""
        doc["model"]["M"] = 10.0
        path.write_text(json.dumps(doc))
        assert cli.main(["spectrum", "--config", str(path)]) == 0
        warned = capsys.readouterr()
        assert warned.out == quiet.out
        assert len(warned.err.splitlines()) == 1
        assert "M/m" in warned.err


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(block, "README.md", "exec"), {})


class TestStdout:
    """Every subcommand prints one `wrote <path>` line per artifact, in the
    order written; evolve's drift line, which the benchmark parses, and its
    DOMAIN_EXIT note come next.  Refusals and failures go to stderr."""

    @pytest.mark.parametrize(
        "argv, artifacts",
        [
            (["spectrum"], ["spectrum.csv"]),
            (["force-curve"], ["force_curve.csv"]),
            (["force-curve", "--with-oracle"], ["force_curve.csv"]),
            (["vacuum-content"], ["vacuum_content.csv", "pair_distribution.csv"]),
            (["oracle-check"], ["oracle_check.json"]),
            (["evolve"], ["trajectory.csv"]),
        ],
    )
    def test_one_line_per_artifact(self, tmp_path, capsys, argv, artifacts):
        path, _ = reference_config(tmp_path)
        assert cli.main([*argv, "--config", str(path)]) == cli.EXIT_OK
        out = capsys.readouterr()
        lines = out.out.splitlines()
        wrote = [f"wrote {tmp_path / 'out' / name}" for name in artifacts]
        assert lines[: len(wrote)] == wrote
        rest = lines[len(wrote):]
        if argv[0] == "evolve":
            assert len(rest) == 1
            assert re.fullmatch(r"final energy drift: \d\.\d{3}e[+-]\d\d", rest[0])
        else:
            assert rest == []
        assert out.err == ""

    def test_unwritable_second_artifact(self, tmp_path, capsys):
        # the first file is written and reported, the second is refused
        # naming its path
        path, _ = reference_config(tmp_path)
        blocked = tmp_path / "out" / "pair_distribution.csv"
        blocked.mkdir(parents=True)
        assert cli.main(["vacuum-content", "--config", str(path)]) == cli.EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == f"wrote {tmp_path / 'out' / 'vacuum_content.csv'}\n"
        assert out.err.startswith(f"config error: cannot write {blocked}: ")
        assert len(out.err.splitlines()) == 1


@pytest.mark.parametrize(
    "command", ["spectrum", "force-curve", "vacuum-content", "oracle-check", "evolve"]
)
def test_main_runs_the_cmd_function_bound_in_cli(tmp_path, monkeypatch, command):
    # main looks cmd_* up in cli when it runs, not through the cached parser,
    # so a wrapper set on the module (a tracer's span) is the function run
    path, _ = reference_config(tmp_path)
    argv = [command, "--config", str(path)]
    assert cli.main(argv) == cli.EXIT_OK
    name = "cmd_" + command.replace("-", "_")
    original = getattr(cli, name)
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, name, counting)
    assert cli.main(argv) == cli.EXIT_OK
    assert len(calls) == 1


class TestSpectrumCommand:
    def test_header_and_shape(self, tmp_path):
        path, doc = reference_config(tmp_path)
        assert cli.main(["spectrum", "--config", str(path)]) == 0
        out = tmp_path / "out" / "spectrum.csv"
        assert out.read_text().splitlines()[0] == "y,g,omega,omega_plus,omega_minus"
        header, rows = read_csv(out)
        assert rows.shape == (11, 5)
        # Omega+ decreases toward omega as g decays
        omega_plus = rows[:, 3]
        assert np.all(np.diff(omega_plus) < 0)
        assert omega_plus[-1] > 1.0

    def test_free_model_degenerate_columns(self, tmp_path):
        path, doc = reference_config(tmp_path)
        doc["model"]["coupling"]["g0"] = 0.0
        path.write_text(json.dumps(doc))
        assert cli.main(["spectrum", "--config", str(path)]) == 0
        _, rows = read_csv(tmp_path / "out" / "spectrum.csv")
        assert np.all(rows[:, 2] == rows[:, 3])
        assert np.all(rows[:, 3] == rows[:, 4])


class TestForceCurveCommand:
    def test_reference_values_and_audits(self, tmp_path):
        path, _ = reference_config(tmp_path)
        assert cli.main(["force-curve", "--config", str(path)]) == 0
        header, rows = read_csv(tmp_path / "out" / "force_curve.csv")
        assert header == ["y", "E_vac", "F_casimir", "F_lifshitz", "F_finite_diff"]
        f_cas, f_lif, f_fd = rows[:, 2], rows[:, 3], rows[:, 4]
        assert abs(f_cas[0] - (-0.0747146)) < 5e-7
        assert np.max(np.abs(f_cas - f_lif)) < 1e-12
        assert np.max(np.abs(f_cas - f_fd)) < 1e-6 * np.max(np.abs(f_cas))

    def test_constant_family_zero_forces(self, tmp_path):
        path, doc = reference_config(tmp_path)
        doc["model"]["coupling"]["family"] = "constant"
        doc["model"]["coupling"]["g0"] = 0.3
        path.write_text(json.dumps(doc))
        assert cli.main(["force-curve", "--config", str(path)]) == 0
        _, rows = read_csv(tmp_path / "out" / "force_curve.csv")
        assert np.all(rows[:, 2:] == 0.0)

    @pytest.mark.parametrize("family", ["constant", "exponential", "inverse-power"])
    def test_window_narrower_than_the_step(self, tmp_path, family):
        # a coupling window of 1e-5, below 2 * 1e-4 lambda: the step shrinks
        # to a quarter of the window, so no stencil point leaves it
        path, doc = reference_config(tmp_path)
        doc["model"]["coupling"].update(family=family, y_max=1e-5)
        doc["grid"] = {"y_min": 0.0, "y_max": 1e-5, "points": 11}
        path.write_text(json.dumps(doc))
        assert cli.main(["force-curve", "--config", str(path)]) == 0
        _, rows = read_csv(tmp_path / "out" / "force_curve.csv")
        f_cas, f_fd = rows[:, 2], rows[:, 4]
        assert np.max(np.abs(f_cas - f_fd)) <= 1e-6 * np.max(np.abs(f_cas)) + 1e-9

    def test_with_oracle_column(self, tmp_path):
        path, doc = reference_config(tmp_path)
        doc["grid"]["points"] = 3
        doc["oracle"]["n_max"] = 24
        path.write_text(json.dumps(doc))
        assert cli.main(["force-curve", "--config", str(path), "--with-oracle"]) == 0
        header, rows = read_csv(tmp_path / "out" / "force_curve.csv")
        assert header[-1] == "F_oracle"
        assert np.max(np.abs(rows[:, 5] - rows[:, 2])) < 1e-6

    @pytest.mark.parametrize("case", ["reference", "exponential-to-1e-7", "constant"])
    def test_oracle_column_is_solved_from_the_weak_coupling_end(self, tmp_path, monkeypatch, case):
        # Where ground_state serves the force, the oracle column is solved in
        # order of increasing g, from the cold start at the weakest coupling
        # (the series terms' Ritz vector), and written in grid order.  It matches a cold solve at each
        # point within 1e-12 relative, the bound a warm sweep down to g/k =
        # 1e-9 keeps against the closed form (test_fock).  The reference case
        # is the reference grid with g0 0.99, so g/k runs from 0.99 down to
        # 0.9, and the constant case sits at g/k 0.95: Lanczos solves every
        # point.  The exponential case takes g/k from 0.5 down to 1e-7 at
        # n_max 24, like the workload's weak slot, with the polynomial cut at
        # 0, so that the series serves every point but the first; measured at
        # most 7.4e-16.
        doc = json.loads((ROOT / "configs" / "reference.json").read_text())
        doc["output"] = {"directory": str(tmp_path / "out"), "precision": 17}
        if case == "exponential-to-1e-7":
            doc["model"]["coupling"]["y_max"] = 20.0
            doc["grid"] = {"y_min": 0.0, "y_max": math.log(0.5 / 1e-7), "points": 11}
            doc["oracle"]["n_max"] = 24
            monkeypatch.setattr(fock, "POLYNOMIAL_MAX_U", 0.0)
        elif case == "constant":
            doc["model"]["coupling"].update(family="constant", g0=0.95)
            doc["grid"]["points"] = 11
            doc["oracle"]["n_max"] = 12
        else:
            doc["model"]["coupling"]["g0"] = 0.99
            doc["grid"]["y_max"] = math.log(0.99 / 0.9)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        config = cli.load_config(str(path))
        solved = []
        ground_state = fock.ground_state

        def recording(oracle, y):
            solved.append(y)
            return ground_state(oracle, y)

        with monkeypatch.context() as patch:
            patch.setattr(fock, "ground_state", recording)
            assert cli.main(["force-curve", "--config", str(path), "--with-oracle"]) == 0
        _, rows = read_csv(tmp_path / "out" / "force_curve.csv")
        y = rows[:, 0].tolist()
        # every family's g is non-increasing in y: the far end comes first,
        # and a constant g keeps grid order
        assert solved == (y if case == "constant" else y[::-1])
        n_max = config.oracle.n_max
        cold = [fock.oracle_force(fock.FockOracle(config.model, n_max), v) for v in y]
        np.testing.assert_allclose(rows[:, 5], cold, rtol=1e-12, atol=0)

    def test_constant_coupling_oracle_column_solves_once(self, tmp_path, monkeypatch):
        # every grid point has the same g (g/k 0.95, above both cuts), so the
        # first, cold solve serves all 11, and the column is that solve's
        # force on every row
        path, doc = reference_config(tmp_path)
        doc["model"]["coupling"].update(family="constant", g0=0.95)
        doc["oracle"]["n_max"] = 12
        path.write_text(json.dumps(doc))
        calls = 0
        lanczos = fock._lanczos

        def counting(*args):
            nonlocal calls
            calls += 1
            return lanczos(*args)

        monkeypatch.setattr(fock, "_lanczos", counting)
        assert cli.main(["force-curve", "--config", str(path), "--with-oracle"]) == 0
        assert calls == 1
        _, rows = read_csv(tmp_path / "out" / "force_curve.csv")
        assert len(rows) == 11 and np.all(rows[:, 5] == rows[0, 5])


@pytest.mark.parametrize("lam", [1e-100, 1e-200])
def test_tiny_inverse_power_lambda_writes_finite_artifacts(tmp_path, capsys, lam):
    # (y/lambda)^4 overflows float64 here: the forces used to be nan and the
    # per-point commands ended in an OverflowError traceback
    path, doc = reference_config(tmp_path)
    doc["model"]["coupling"] = {"family": "inverse-power", "g0": 0.5, "lambda": lam,
                                "exponent": 4, "y_min": 0.0, "y_max": 10.0}
    doc["grid"] = {"y_min": 0.0, "y_max": 10.0, "points": 11}
    path.write_text(json.dumps(doc))
    for argv in (["force-curve"], ["oracle-check", "--y", "5"],
                 ["vacuum-content", "--pair-y", "5"], ["evolve"]):
        assert cli.main([*argv, "--config", str(path)]) == 0
    assert capsys.readouterr().err == ""
    _, rows = read_csv(tmp_path / "out" / "force_curve.csv")
    assert np.all(np.isfinite(rows))
    assert np.all(rows[1:, 2:4] == 0.0)  # g' underflows to 0 for y >= 1
    report = json.loads((tmp_path / "out" / "oracle_check.json").read_text())
    assert report["pass"] is True


class TestVacuumContentCommand:
    def test_reference_row(self, tmp_path):
        path, _ = reference_config(tmp_path)
        assert cli.main(["vacuum-content", "--config", str(path)]) == 0
        header, rows = read_csv(tmp_path / "out" / "vacuum_content.csv")
        assert header == ["y", "beta_1p", "beta_1m", "N_mean", "c0"]
        assert abs(rows[0, 3] - 0.02032) < 5e-6
        assert abs(rows[0, 4] - 0.9948843) < 5e-7

    def test_free_model_rows(self, tmp_path):
        path, doc = reference_config(tmp_path)
        doc["model"]["coupling"]["g0"] = 0.0
        path.write_text(json.dumps(doc))
        assert cli.main(["vacuum-content", "--config", str(path)]) == 0
        _, rows = read_csv(tmp_path / "out" / "vacuum_content.csv")
        assert np.all(rows[:, 3] == 0.0)
        assert np.all(rows[:, 4] == 1.0)

    def test_parser_built_once_keeps_each_call_apart(self, tmp_path):
        # one parser serves every call in a process: a rejected call and an
        # earlier --pair-n-max leave the next call's defaults as they were
        path, _ = reference_config(tmp_path)
        assert cli.main(["vacuum-content", "--config", str(path), "--pair-n-max", "25"]) == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["vacuum-content", "--config", str(path), "--no-such-flag"])
        assert exc.value.code == cli.EXIT_CONFIG
        assert cli.main(["vacuum-content", "--config", str(path)]) == 0
        _, rows = read_csv(tmp_path / "out" / "pair_distribution.csv")
        assert rows[:, 0].tolist() == list(range(21))  # --pair-n-max 20
        assert cli._build_parser() is cli._build_parser()

    def test_pair_distribution_normalized(self, tmp_path):
        path, _ = reference_config(tmp_path)
        assert cli.main(
            ["vacuum-content", "--config", str(path), "--pair-n-max", "25"]
        ) == 0
        header, rows = read_csv(tmp_path / "out" / "pair_distribution.csv")
        assert header == ["n", "c_n", "c_n_squared"]
        r = rows[1, 1] / rows[0, 1]
        tail = r ** (2 * len(rows))
        assert abs(np.sum(rows[:, 2]) + tail - 1.0) < 1e-12


class TestOracleCheckCommand:
    def test_reference_passes(self, tmp_path):
        path, _ = reference_config(tmp_path)
        assert cli.main(["oracle-check", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "oracle_check.json").read_text())
        assert report["pass"] is True
        assert report["rel_err_energy"] < 1e-6
        assert report["rel_err_x1x2"] < 1e-6
        assert report["rel_err_N"] < 1e-6
        assert "symmetry_violation" not in report and "odd_parity_mass" not in report
        assert len(report["annihilation_residuals"]) > 0
        assert report["residual_norm"] < 1e-12
        assert report["edge_mass"] < 1e-30

    def test_reference_report_matches_eigsh_values(self, tmp_path):
        # configs/reference.json as the ARPACK eigsh solve reported it; the
        # solver-dependent figures sit at rounding level, so they are
        # compared with absolute tolerances
        eigsh = {
            "E0_oracle": 0.9659258262890664,
            "rel_err_energy": 1.9539586689733446e-15,
            "rel_err_x1x2": 1.85743932176809e-16,
            "rel_err_N": 8.536930668598029e-16,
            "residual_norm": 1.8108949100571183e-15,
            "edge_mass": 1.3087089701943524e-39,
        }
        tolerance = {"E0_oracle": 1e-14, "edge_mass": 1e-30}
        config = ROOT / "configs" / "reference.json"
        assert cli.main(["oracle-check", "--config", str(config), "--output-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "oracle_check.json").read_text())
        for name, value in eigsh.items():
            assert abs(report[name] - value) <= tolerance.get(name, 1e-14), name
        assert report["E0_analytic"] == 0.9659258262890683
        assert report["annihilation_residuals"] == {
            "10": 3.7085289707900424e-11,
            "15": 4.705837254965972e-16,
            "20": 4.916115948666909e-18,
            "5": 2.603353118814089e-06,
        }
        assert report["pass"] is True
        assert isinstance(report["solver_steps"], int) and 1 <= report["solver_steps"] <= 100

    def test_reference_report_is_the_ritz_started_solve(self, tmp_path):
        # the reference point sits at g/k 0.5, above the series, so its solve
        # is the first of its oracle and starts from the Ritz vector of the
        # series terms: 2 steps where the start |0,0> took 63.  Measured:
        # E0_oracle 0.965925826289068 (3 ulp below the closed form's, which
        # the |0,0> solve met bit for bit), rel_err_energy 3.4e-16,
        # rel_err_x1x2 3.7e-16, rel_err_N 1.2e-15, residual_norm 5.8e-16 and
        # edge_mass 3.1e-37 (2.2e-16 and 1.4e-38 from |0,0>)
        config = ROOT / "configs" / "reference.json"
        assert cli.main(["oracle-check", "--config", str(config), "--output-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "oracle_check.json").read_text())
        assert report["solver_steps"] == 2
        assert abs(report["E0_oracle"] - 0.965925826289068) <= 4 * 2.0**-53
        bounds = {"rel_err_energy": 1e-15, "rel_err_x1x2": 1e-15, "rel_err_N": 2e-15,
                  "residual_norm": 1e-15, "edge_mass": 1e-36}
        for name, bound in bounds.items():
            assert report[name] < bound, name

    def test_relative_errors_do_not_depend_on_the_scale_of_k(self, tmp_path):
        # at m = hbar = 1, k = 2^-1000 every energy is 2^-500 times, and every
        # <x1 x2> 2^500 times, that at k = 1, exactly, so the relative errors
        # are the same numbers.  A floor of 1e-30 under the divisor made
        # rel_err_energy read about 1e-136 there, and pass held for any E0.
        # At g/k 0.95 the n_max 40 truncation keeps every error above 0 (at
        # 0.9 the Ritz-started solve's E0 is the closed form's, bit for bit).
        keys = ("rel_err_energy", "rel_err_x1x2", "rel_err_N")
        reports = []
        for scale in (1.0, 2.0**-1000):
            path, doc = reference_config(tmp_path)
            doc["model"]["k"] = scale
            doc["model"]["coupling"]["g0"] = 0.95 * scale  # no error is exactly 0
            path.write_text(json.dumps(doc))
            outdir = tmp_path / repr(scale)
            assert cli.main(["oracle-check", "--config", str(path), "--output-dir", str(outdir)]) == 0
            reports.append(json.loads((outdir / "oracle_check.json").read_text()))
        unit, scaled = reports
        assert all(unit[key] > 0 for key in keys)
        assert [scaled[key] for key in keys] == [unit[key] for key in keys]
        assert scaled["residual_norm"] == 2.0**-500 * unit["residual_norm"] > 0

    @pytest.mark.parametrize("g0", [1e-20, 1e-300])
    def test_weak_coupling_passes(self, tmp_path, g0):
        # below g/k = RITZ_TOL a Lanczos solve stopped at |0,0>: <x1 x2> read
        # 0 and the check failed with rel_err_x1x2 1.0.  The series, which
        # takes no matvec, holds it to a few RITZ_TOL.
        path, doc = reference_config(tmp_path)
        doc["model"]["coupling"].update(family="constant", g0=g0)
        path.write_text(json.dumps(doc))
        assert cli.main(["oracle-check", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "oracle_check.json").read_text())
        assert report["pass"] is True and report["solver_steps"] == 0
        assert report["rel_err_x1x2"] <= 8 * fock.RITZ_TOL

    def test_under_truncated_fails(self, tmp_path, capsys):
        path, doc = reference_config(tmp_path)
        doc["oracle"]["n_max"] = 2
        path.write_text(json.dumps(doc))
        code = cli.main(["oracle-check", "--config", str(path)])
        assert code == cli.EXIT_VERIFICATION
        out = capsys.readouterr()
        assert out.out == f"wrote {tmp_path / 'out' / 'oracle_check.json'}\n"
        assert out.err == "verification FAILED\n"
        report = json.loads((tmp_path / "out" / "oracle_check.json").read_text())
        assert report["pass"] is False
        assert report["edge_mass"] > 1e-6

    def test_domain_error_exit_code(self, tmp_path):
        path, _ = reference_config(tmp_path)
        code = cli.main(["oracle-check", "--config", str(path), "--y", "-3.0"])
        assert code == cli.EXIT_DOMAIN


class TestEvolveCommand:
    def test_constant_family_straight_line(self, tmp_path, capsys):
        path, doc = reference_config(tmp_path)
        doc["model"]["coupling"]["family"] = "constant"
        doc["model"]["coupling"]["g0"] = 0.3
        doc["dynamics"] = {"y0": 1.0, "v0": 0.01, "dt": 0.1, "t_max": 10.0}
        path.write_text(json.dumps(doc))
        assert cli.main(["evolve", "--config", str(path)]) == 0
        header, rows = read_csv(tmp_path / "out" / "trajectory.csv")
        assert header == ["t", "y", "p_y", "F", "E_vac", "E_total"]
        assert np.max(np.abs(rows[:, 1] - (1.0 + 0.01 * rows[:, 0]))) < 1e-12
        assert "drift" in capsys.readouterr().out

    def test_reference_drift_printed(self, tmp_path, capsys):
        path, _ = reference_config(tmp_path)
        assert cli.main(["evolve", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        drift = float(out.split("final energy drift:")[1].strip().splitlines()[0])
        assert drift < 1e-6

    def test_domain_exit_noted(self, tmp_path, capsys):
        path, doc = reference_config(tmp_path)
        doc["dynamics"] = {"y0": 0.05, "v0": -0.5, "dt": 0.1, "t_max": 10.0}
        path.write_text(json.dumps(doc))
        assert cli.main(["evolve", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"wrote {tmp_path / 'out' / 'trajectory.csv'}"
        assert lines[1].startswith("final energy drift: ")
        assert lines[2:] == ["note: DOMAIN_EXIT (trajectory left the coupling domain)"]


class TestReferenceCasimir:
    def test_coefficient(self):
        report = cli.reference_casimir_report(1.0)
        assert report["coefficient"] == pytest.approx(math.pi**2 / 240, rel=1e-12)

    def test_inverse_fourth_power_scaling(self):
        f1 = cli.reference_casimir_report(1.0)["pressure"]
        f2 = cli.reference_casimir_report(2.0)["pressure"]
        assert f1 / f2 == pytest.approx(16.0, rel=1e-12)

    def test_si_magnitude(self):
        report = cli.reference_casimir_report(
            1e-6, c=2.99792458e8, hbar=1.054571817e-34
        )
        assert abs(report["pressure"]) == pytest.approx(1.3e-3, rel=0.01)

    def test_total_force_with_area(self):
        report = cli.reference_casimir_report(1.0, plate_area=2.0)
        assert report["total_force"] == pytest.approx(2 * report["pressure"], rel=1e-14)

    def test_nonpositive_separation(self):
        with pytest.raises(DomainError, match="separation must be > 0"):
            cli.reference_casimir_report(0.0)

    def test_cli_exit_codes(self, capsys):
        assert cli.main(["reference-casimir", "--y", "1.0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "note" in report
        assert cli.main(["reference-casimir", "--y", "-1.0"]) == cli.EXIT_DOMAIN
        assert capsys.readouterr().err == "domain error: separation must be > 0, got -1.0\n"

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--y", "nan"),
            ("--y", "inf"),
            ("--area", "0"),
            ("--area", "nan"),
            ("--c", "-1"),
            ("--c", "inf"),
            ("--hbar", "-1"),
            ("--hbar", "0"),
        ],
    )
    def test_invalid_flag_exits_2_naming_it(self, capsys, flag, value):
        argv = ["reference-casimir", "--y", "1.0", f"{flag}={value}"]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_CONFIG
        assert f"argument {flag}:" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--y", "1e300"], "--y"),
            (["--y", "1e-100"], "--y"),
            (["--y", "1e-6", "--area", "1e300"], "--area"),
        ],
    )
    def test_result_outside_float_range_exits_2_naming_flag(self, capsys, flags, named):
        assert cli.main(["reference-casimir", *flags]) == cli.EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == ""
        assert f"argument {named}:" in out.err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("command, flag", [("oracle-check", "--y"), ("vacuum-content", "--pair-y")])
def test_non_finite_point_exits_2_naming_the_flag(tmp_path, capsys, command, flag, value):
    # the evaluation points of oracle-check and vacuum-content take the
    # finite-number type of reference-casimir --y; a plain float type let
    # nan and inf reach the coupling domain check and exit 3
    path, _ = reference_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", str(path), f"{flag}={value}"])
    assert exc.value.code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"argument {flag}: must be a finite number, got {value}" in err
    assert "Traceback" not in err


def test_commands_run_without_importing_scipy(tmp_path):
    path, _ = reference_config(tmp_path)
    child = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from casimir_toy import cli\n"
        "for command in ('spectrum', 'oracle-check'):\n"
        "    assert cli.main([command, '--config', sys.argv[2]]) == 0, command\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", child, str(ROOT / "src"), str(path)],
        capture_output=True, text=True, check=True,
    )
    assert run.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "out" / "oracle_check.json").is_file()


class TestDeterminismAndOverrides:
    def test_byte_identical_reruns(self, tmp_path):
        path, _ = reference_config(tmp_path)
        a = tmp_path / "a"
        b = tmp_path / "b"
        for target in (a, b):
            assert cli.main(
                ["force-curve", "--config", str(path), "--output-dir", str(target)]
            ) == 0
            assert cli.main(
                ["oracle-check", "--config", str(path), "--output-dir", str(target)]
            ) == 0
        assert (a / "force_curve.csv").read_bytes() == (b / "force_curve.csv").read_bytes()
        assert (a / "oracle_check.json").read_bytes() == (b / "oracle_check.json").read_bytes()

    def test_oracle_routes_byte_identical_reruns(self, tmp_path):
        path, doc = reference_config(tmp_path)
        # far out, where F is small enough that solver noise reaches 12 digits
        doc["oracle"]["n_max"] = 20
        doc["dynamics"].update(y0=8.0, force_route="oracle", t_max=10.0)
        path.write_text(json.dumps(doc))
        outputs = []
        for run in ("a", "b"):
            outdir = tmp_path / run
            for argv in (["force-curve", "--with-oracle"], ["evolve"]):
                assert cli.main([*argv, "--config", str(path), "--output-dir", str(outdir)]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(outdir.iterdir())})
        assert outputs[0] == outputs[1]
        assert set(outputs[0]) == {"force_curve.csv", "trajectory.csv"}

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        path, _ = reference_config(tmp_path)
        env_dir = tmp_path / "envout"
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(env_dir))
        assert cli.main(["spectrum", "--config", str(path)]) == 0
        assert (env_dir / "spectrum.csv").exists()

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        path, _ = reference_config(tmp_path)
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "envout"))
        flag_dir = tmp_path / "flagout"
        assert cli.main(
            ["spectrum", "--config", str(path), "--output-dir", str(flag_dir)]
        ) == 0
        assert (flag_dir / "spectrum.csv").exists()

    def test_precision_override(self, tmp_path):
        path, _ = reference_config(tmp_path)
        assert cli.main(
            ["spectrum", "--config", str(path), "--precision", "6"]
        ) == 0
        line = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()[1]
        # 6 significant digits max in each mantissa
        for field in line.split(","):
            mantissa = field.split("e")[0]
            digits = sum(ch.isdigit() for ch in mantissa)
            assert digits <= 7  # allows a leading zero before the point
