"""Command-line front end: JSON config in, CSV/JSON artifacts out.

Subcommands:
  spectrum           frequency table over the y grid
  force-curve        vacuum energy and every force route over the y grid
  vacuum-content     Bogoliubov content and pair distribution
  oracle-check       JSON verification report (analytic vs Fock oracle)
  evolve             semiclassical trajectory of the heavy coordinate
  reference-casimir  perfect-conductor plate formula (not the toy model)

A run is configured by a single JSON document (see README); command-line
flags override config fields.  The output directory resolves as
--output-dir > $CASIMIR_TOY_OUTPUT_DIR > config output.directory.

Each cmd_* takes (config, outdir, args), writes its artifacts, prints what
it wrote and returns the exit code; main loads the config, dispatches and
maps the errors to exit codes.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
import typing
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import dynamics, fock, quantum
from .errors import ConfigError, DomainError
from .model import ModelParams, ValidatedModel, spectrum, validate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_VERIFICATION = 4

OUTPUT_DIR_ENV = "CASIMIR_TOY_OUTPUT_DIR"

# Step of force-curve's finite difference, in units of the coupling's decay
# length (of y for the constant family), at most a quarter of the coupling
# window so that every stencil stays inside it.
FD_STEP = 1e-4


@dataclass(frozen=True)
class GridConfig:
    y_min: float
    y_max: float
    points: int

    def __post_init__(self):
        if not 2 <= self.points <= dynamics.MAX_ROWS:
            raise ValueError(
                f"points must be in [2, {dynamics.MAX_ROWS}], got {self.points}"
            )
        if not self.y_min < self.y_max:
            raise ValueError(
                f"y_min must be < grid.y_max, got [{self.y_min}, {self.y_max}]"
            )


@dataclass(frozen=True)
class OracleConfig:
    n_max: int = 40
    convergence_tol: float = 1e-6
    y: float | None = None

    def __post_init__(self):
        dynamics._check_cutoff(self.n_max, "n_max")
        if not self.convergence_tol > 0:
            raise ValueError(f"convergence_tol must be > 0, got {self.convergence_tol}")


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    precision: int = 12

    def __post_init__(self):
        if "\0" in self.directory:
            raise ValueError(f"directory must not contain a NUL byte, got {self.directory!r}")
        if not 6 <= self.precision <= 17:
            raise ValueError(f"precision must be in [6, 17], got {self.precision}")


@dataclass(frozen=True)
class RunConfig:
    model: ValidatedModel
    grid: GridConfig | None
    oracle: OracleConfig
    dynamics: dynamics.DynamicsConfig | None
    output: OutputConfig


# Field name -> JSON key, where the two differ.
_JSON_KEYS = {"lam": "lambda"}


def _finite(value, path: str) -> float:
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if number and abs(value) <= sys.float_info.max:
        return float(value)
    raise ConfigError(f"{path} must be a finite JSON number, got {value!r}")


def _integer(value, path: str) -> int:
    """An integral JSON number: 40 and 40.0 pass, 40.7 does not."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{path} must be an integral JSON number, got {value!r}")


def _string(value, path: str) -> str:
    if isinstance(value, str):
        return value
    raise ConfigError(f"{path} must be a JSON string, got {value!r}")


# Field type -> converter of a JSON value.
_CONVERT = {float: _finite, float | None: _finite, int: _integer, str: _string}


def _object(value, context: str, keys) -> None:
    """Require a JSON object with no keys outside keys; ConfigError naming the field."""
    if not isinstance(value, dict):
        raise ConfigError(f"{context} must be a JSON object, got {value!r}")
    for key in value:
        if key not in keys:
            raise ConfigError(f"unknown config field: {context}.{key}")


@functools.cache
def _fields(cls) -> dict:
    """JSON key -> (field, converter) of dataclass cls; resolving the
    annotations costs more than loading a section, so it is done once."""
    types = typing.get_type_hints(cls)
    fields = {}
    for f in dataclasses.fields(cls):
        tp = types[f.name]
        convert = functools.partial(_load, tp) if dataclasses.is_dataclass(tp) else _CONVERT[tp]
        fields[_JSON_KEYS.get(f.name, f.name)] = f, convert
    return fields


def _load(cls, value, context: str, **defaults):
    """Read the JSON object value into dataclass cls by cls's own fields.

    A key naming no field is refused; a field with no default in cls or in
    defaults is required; each value must have its field's JSON type.  cls's
    own check raises ValueError starting with the field name.  Every error is
    a ConfigError naming the field as context.key.
    """
    fields = _fields(cls)
    _object(value, context, fields)
    kwargs = dict(defaults)
    for key, (f, convert) in fields.items():
        path = f"{context}.{key}"
        if key in value:
            kwargs[f.name] = convert(value[key], path)
        elif f.default is dataclasses.MISSING and f.name not in kwargs:
            raise ConfigError(f"missing config field: {path}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{context}.{exc}") from exc


def parse_config(doc) -> RunConfig:
    """Validate the JSON config document; raises ConfigError naming the field."""
    _object(doc, "config", {f.name for f in dataclasses.fields(RunConfig)})
    if "model" not in doc:
        raise ConfigError("missing config field: config.model")
    model = validate(_load(ModelParams, doc["model"], "model"))
    c = model.coupling
    grid = None
    if "grid" in doc:
        grid = _load(GridConfig, doc["grid"], "grid")
        if grid.y_min < c.y_min or grid.y_max > c.y_max:
            raise ConfigError(
                f"grid [grid.y_min, grid.y_max] = [{grid.y_min}, {grid.y_max}] not "
                "inside the coupling domain [model.coupling.y_min, "
                f"model.coupling.y_max] = [{c.y_min}, {c.y_max}]"
            )
    oracle = _load(OracleConfig, doc.get("oracle", {}), "oracle")
    dyn = None
    if "dynamics" in doc:
        # The CLI's default dynamics.oracle_n_max is oracle.n_max.
        dyn = _load(
            dynamics.DynamicsConfig, doc["dynamics"], "dynamics", oracle_n_max=oracle.n_max
        )
        # evolve's first row: p_y = M v0 and p_y^2 / 2M, as it computes them
        p = model.M * dyn.v0
        if not p * p / (2 * model.M) < math.inf:
            raise ConfigError(
                f"initial momentum model.M * dynamics.v0 = {model.M} * {dyn.v0} or "
                "its kinetic energy overflows float64"
            )
    output = _load(OutputConfig, doc.get("output", {}), "output")
    return RunConfig(model=model, grid=grid, oracle=oracle, dynamics=dyn, output=output)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError, bad UTF-8, or an integer past Python's digit limit
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)


@contextlib.contextmanager
def _artifact(path: Path):
    """The artifact file path opened for writing, its directory made first;
    an OSError on the way (a directory that is a file, a full disk) is a
    ConfigError naming path.  Prints `wrote <path>` once the file is closed."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    print(f"wrote {path}")


def write_csv(path: Path, header: list[str], rows, precision: int) -> None:
    """RFC-4180-style CSV: '.' decimal separator, LF endings, fixed header.

    rows yields one tuple of floats per line, each written as
    %.{precision}g (the same text as format(v, f".{precision}g")).
    """
    template = ",".join([f"%.{precision}g"] * len(header)) + "\n"
    with _artifact(path) as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(template % row for row in rows)


# Grid points evaluated, and rows converted to Python floats, per chunk.  A
# numpy temporary then stays at 32 KiB, below glibc's 128 KiB mmap threshold:
# freeing whole-grid temporaries raised that threshold, and the heap then
# held more memory (peak RSS of a closed-form benchmark run +0.7 MB).
ROW_CHUNK = 4096


def _rows(*columns):
    """Row tuples of Python floats from columns of equal length; a column
    may be one value for every row (omega, or the constant family's g)."""
    columns = np.broadcast_arrays(*columns)
    for start in range(0, len(columns[0]), ROW_CHUNK):
        yield from zip(*(c[start : start + ROW_CHUNK].tolist() for c in columns))


def _grid_rows(grid: GridConfig, columns):
    """Rows (y, *columns(y)) over the grid, columns(y) evaluated on
    ROW_CHUNK points y at a time, in order."""
    y = np.linspace(grid.y_min, grid.y_max, grid.points)
    for start in range(0, grid.points, ROW_CHUNK):
        z = y[start : start + ROW_CHUNK]
        yield from _rows(z, *columns(z))


def write_json(path: Path, payload: dict) -> None:
    with _artifact(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _need(config: RunConfig, section: str):
    value = getattr(config, section)
    if value is None:
        raise ConfigError(f"missing config field: {section}")
    return value


def cmd_spectrum(config: RunConfig, outdir: Path, args) -> int:
    model = config.model

    def columns(y):
        g, wp, wm = spectrum(model, y)
        return g, model.omega, wp, wm

    write_csv(
        outdir / "spectrum.csv",
        ["y", "g", "omega", "omega_plus", "omega_minus"],
        _grid_rows(_need(config, "grid"), columns),
        config.output.precision,
    )
    return EXIT_OK


def energy_gradient_fd(model: ValidatedModel, y: np.ndarray, h: float) -> np.ndarray:
    """Second-order finite difference of the vacuum energy at the points y,
    one-sided at the domain boundary."""
    e = functools.partial(quantum.vacuum_energy, model)
    lo, hi = model.coupling.y_min, model.coupling.y_max

    def central(z):
        return (e(z + h) - e(z - h)) / (2 * h)

    # grouping by differences keeps the result exactly zero for constant E
    def forward(z):
        e0 = e(z)
        return (4 * (e(z + h) - e0) - (e(z + 2 * h) - e0)) / (2 * h)

    def backward(z):
        e0 = e(z)
        return -(4 * (e(z - h) - e0) - (e(z - 2 * h) - e0)) / (2 * h)

    inside = y - h >= lo
    branches = ((inside & (y + h <= hi), central), (y - h < lo, forward),
                (inside & (y + h > hi), backward))
    out = np.empty_like(y)
    for where, stencil in branches:
        if where.any():
            out[where] = stencil(y[where])
    return out


def _fd_step(model: ValidatedModel) -> float:
    """force-curve's finite-difference step; ConfigError naming the config
    field that sets it if it underflows."""
    c = model.coupling
    window = (c.y_max - c.y_min) / 4
    h = min(FD_STEP * (c.lam if c.family != "constant" else 1.0), window)
    if h >= sys.float_info.min:
        return h
    if h == window:
        raise ConfigError(
            "coupling window [model.coupling.y_min, model.coupling.y_max] = "
            f"[{c.y_min}, {c.y_max}] is too narrow: the finite-difference step "
            "(y_max - y_min) / 4 underflows"
        )
    raise ConfigError(
        f"model.coupling.lambda = {c.lam!r} is too small: the "
        f"finite-difference step {FD_STEP} * lambda underflows"
    )


def cmd_force_curve(config: RunConfig, outdir: Path, args) -> int:
    grid = _need(config, "grid")
    model = config.model
    h = _fd_step(model)
    header = ["y", "E_vac", "F_casimir", "F_lifshitz", "F_finite_diff"]
    if args.with_oracle:
        oracle = fock.FockOracle(model, config.oracle.n_max)
        header.append("F_oracle")

    def columns(y):
        out = [
            quantum.vacuum_energy(model, y),
            quantum.casimir_force(model, y),
            quantum.lifshitz_force(model, y),
            -energy_gradient_fd(model, y, h),
        ]
        if args.with_oracle:
            # point by point in order of increasing g, each solve (g/k 0.9 and
            # up) started from the last ground state
            f = np.empty_like(y)
            points = y.tolist()
            for i in np.argsort(np.broadcast_to(model.g(y), y.shape), kind="stable").tolist():
                f[i] = fock.oracle_force(oracle, points[i])
            out.append(f)
        return out

    write_csv(
        outdir / "force_curve.csv", header, _grid_rows(grid, columns), config.output.precision
    )
    return EXIT_OK


def cmd_vacuum_content(config: RunConfig, outdir: Path, args) -> int:
    grid = _need(config, "grid")
    model = config.model

    def columns(y):
        coeffs = quantum.bogoliubov_coefficients(model, y)
        c0 = quantum.squeezed_vacuum_expansion(coeffs, N_max=0).c0
        return coeffs.beta_1p, coeffs.beta_1m, quantum.mean_free_quanta(coeffs), c0

    write_csv(
        outdir / "vacuum_content.csv",
        ["y", "beta_1p", "beta_1m", "N_mean", "c0"],
        _grid_rows(grid, columns),
        config.output.precision,
    )

    y_flag = grid.y_min if args.pair_y is None else args.pair_y
    coeffs = quantum.bogoliubov_coefficients(model, y_flag)
    exp = quantum.squeezed_vacuum_expansion(coeffs, N_max=args.pair_n_max)
    pair_rows = [
        (float(n), c, c * c) for n, c in enumerate(exp.coefficients)
    ]
    write_csv(
        outdir / "pair_distribution.csv", ["n", "c_n", "c_n_squared"], pair_rows,
        config.output.precision,
    )
    return EXIT_OK


def cmd_oracle_check(config: RunConfig, outdir: Path, args) -> int:
    model = config.model
    oc = config.oracle
    y = oc.y if args.y is None else args.y
    if y is None:
        y = config.grid.y_min if config.grid else model.coupling.y_min
    tol = oc.convergence_tol
    oracle = fock.FockOracle(model, oc.n_max)

    gs = fock.ground_state(oracle, y)
    obs = fock.oracle_observables(gs)
    analytic = quantum.vacuum_fluctuations(model, y)
    errors = {}
    for key, name in (("energy", "E_vac"), ("x1x2", "x1x2"), ("N", "N1")):
        a, b = getattr(obs, name), getattr(analytic, name)
        errors[f"rel_err_{key}"] = abs(a - b) / abs(b) if b != 0 else abs(a)

    coeffs = quantum.bogoliubov_coefficients(model, y)
    residuals = {}
    for n in (5, 10, 15, 20):
        if n <= oc.n_max - 2:
            exp = quantum.squeezed_vacuum_expansion(coeffs, N_max=n)
            residuals[str(n)] = fock.verify_annihilation(exp, oc.n_max)

    passed = all(err < tol for err in errors.values())
    payload = {
        "y": y,
        "n_max": oc.n_max,
        "convergence_tol": tol,
        "E0_analytic": analytic.E_vac,
        "E0_oracle": gs.E0,
        **errors,
        "annihilation_residuals": residuals,
        "residual_norm": gs.residual_norm,
        "solver_steps": gs.steps,
        "edge_mass": gs.edge_mass(),
        "pass": passed,
    }
    write_json(outdir / "oracle_check.json", payload)
    if not passed:
        print("verification FAILED", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_evolve(config: RunConfig, outdir: Path, args) -> int:
    traj = dynamics.evolve(config.model, _need(config, "dynamics"))
    rows = _rows(traj.t, traj.y, traj.p_y, traj.F, traj.E_vac, traj.E_total)
    write_csv(
        outdir / "trajectory.csv", ["t", "y", "p_y", "F", "E_vac", "E_total"], rows,
        config.output.precision,
    )
    drift = dynamics.energy_audit(traj)
    print(f"final energy drift: {drift:.3e}")
    if traj.domain_exited:
        print("note: DOMAIN_EXIT (trajectory left the coupling domain)")
    return EXIT_OK


def reference_casimir_report(
    y: float, plate_area: float | None = None, c: float = 1.0, hbar: float = 1.0
) -> dict:
    """Perfect-conductor parallel-plate force per unit area at separation y.

    F/A = -(pi^2 / 240) hbar c / y^4.  This is the ideal-conductor reference
    formula, not an output of the toy model.  A separation y <= 0 is a
    DomainError; a result that overflows or underflows float64 is a
    ConfigError naming the flags it comes from.
    """
    if y <= 0:
        raise DomainError(f"separation must be > 0, got {y}")
    coeff = math.pi**2 / 240.0
    try:
        y4 = y**4
    except OverflowError:
        y4 = math.inf
    _in_float_range(y4, "--y", "y^4")
    pressure = _in_float_range(
        -coeff * hbar * c / y4, "--y, --hbar and --c", "pressure"
    )
    report = {
        "coefficient": coeff,
        "y": y,
        "hbar": hbar,
        "c": c,
        "pressure": pressure,
        "note": (
            "perfect-conductor parallel-plate formula; "
            "reference value, not a toy-model output"
        ),
    }
    if plate_area is not None:
        report["plate_area"] = plate_area
        report["total_force"] = _in_float_range(
            pressure * plate_area, "--area", "total_force"
        )
    return report


def _in_float_range(value: float, flags: str, name: str) -> float:
    """value, unless it overflowed to inf or underflowed to 0 (none of the
    reference results is 0 for valid flags)."""
    if not 0.0 < abs(value) < math.inf:
        raise ConfigError(
            f"argument {flags}: {name} = {value!r} is outside the float range"
        )
    return value


def _order(text: str) -> int:
    """A truncation order whose table of n + 1 rows stays within MAX_ROWS."""
    n = int(text)
    if not 0 <= n < dynamics.MAX_ROWS:
        raise argparse.ArgumentTypeError(f"must be in [0, {dynamics.MAX_ROWS - 1}], got {n}")
    return n


def _real(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return x


def _positive(text: str) -> float:
    x = _real(text)
    if not x > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return x


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casimir-toy",
        description="3-degree-of-freedom Casimir-like force laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--output-dir", default=None, help="override output directory")
        p.add_argument(
            "--precision", type=int, default=None, help="override output precision"
        )

    add_common(sub.add_parser("spectrum", help="frequency table over the y grid"))

    p = sub.add_parser("force-curve", help="vacuum energy and all force routes")
    add_common(p)
    p.add_argument(
        "--with-oracle", action="store_true", help="add the Fock-oracle force column"
    )

    p = sub.add_parser("vacuum-content", help="Bogoliubov content over the grid")
    add_common(p)
    p.add_argument(
        "--pair-y", type=_real, default=None, help="y at which to emit the pair distribution"
    )
    p.add_argument(
        "--pair-n-max", type=_order, default=20, help="pair-distribution truncation order"
    )

    p = sub.add_parser("oracle-check", help="analytic-vs-oracle verification report")
    add_common(p)
    p.add_argument("--y", type=_real, default=None, help="evaluation point")

    add_common(sub.add_parser("evolve", help="semiclassical trajectory"))

    p = sub.add_parser(
        "reference-casimir", help="perfect-conductor plate formula (reference only)"
    )
    p.add_argument("--y", type=_real, required=True, help="plate separation")
    p.add_argument("--area", type=_positive, default=None, help="plate area")
    p.add_argument("--c", type=_positive, default=1.0, help="speed of light")
    p.add_argument("--hbar", type=_positive, default=1.0, help="reduced Planck constant")
    return parser


def _resolve_outdir(args, config: RunConfig) -> Path:
    if args.output_dir is not None:
        return Path(args.output_dir)
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return Path(env)
    return Path(config.output.directory)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "reference-casimir":
            report = reference_casimir_report(
                args.y, plate_area=args.area, c=args.c, hbar=args.hbar
            )
            print(json.dumps(report, indent=2, sort_keys=True))
            return EXIT_OK

        config = load_config(args.config)
        if args.precision is not None:
            try:
                output = replace(config.output, precision=args.precision)
            except ValueError as exc:
                raise ConfigError(f"--precision: {exc}") from exc
            config = replace(config, output=output)
        if config.model.adiabatic_warning:
            print(
                f"warning: M/m = {config.model.mass_ratio:g} is too small for the "
                "adiabatic (slow-y) treatment",
                file=sys.stderr,
            )
        # Built per call, so the cmd_* names are looked up when main runs: a
        # wrapper set on cli.cmd_* (a tracer, a test) is the function run.
        commands = {
            "spectrum": cmd_spectrum,
            "force-curve": cmd_force_curve,
            "vacuum-content": cmd_vacuum_content,
            "oracle-check": cmd_oracle_check,
            "evolve": cmd_evolve,
        }
        return commands[args.command](config, _resolve_outdir(args, config), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
