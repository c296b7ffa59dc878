"""Seeded workloads for the casimir-toy benchmark, and the checks on their outputs.

There are two workloads, split by whether an op reaches the truncated-Fock
oracle (``fock``).  ``oracle`` runs oracle force curves and oracle checks, with
n_max from 24 to 40, and oracle-route trajectories, where each integrator step
is a small warm-started sparse solve.  ``closed-form`` runs the closed-form
tables (``model``, ``quantum``, ``cli.write_csv``) and the casimir, lifshitz
and classical trajectories; it never reaches ``fock``, so it is the workload
an oracle change bypasses.

Each workload is a closed loop over a fixed *cycle* of operations.  An
operation ("op") is one ``cli.main(argv)`` call on a generated JSON config, or
one ``classical.evolve_classical`` call, which has no subcommand.  The shape
of a cycle (commands, grid sizes, n_max, step counts) is the same for every
seed, so the work in a cycle does not depend on the seed.  The seed draws the
physics: coupling family, strength, masses and windows, across the domain the
model validator accepts.  Oracle ops are kept off the two known limits of the
truncated-Fock oracle (see ``oracle_limit``), where its check is expected to
fail: weak coupling, where g/k nears float64 resolution, and strong coupling,
where the basis stops converging.  On every seed no op is expected to fail, so
any failed op is a defect of the program.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

FAMILIES = ("constant", "exponential", "inverse-power")

# Agreement of the two closed-form force routes, before output rounding
# (the bound the acceptance suite uses for route equivalence).
ROUTE_RTOL = 1e-12
# Largest allowed energy drift of a semiclassical trajectory, relative to E(0),
# as reported by dynamics.energy_audit.
EVOLVE_DRIFT_MAX = 1e-6
# Largest allowed relative energy drift of the full classical flow.
CLASSICAL_DRIFT_MAX = 1e-5
# Accuracy the oracle is asked for, and significant digits of the output
# files: the reference config's values.  Formatting cost grows with the
# digits, so the precision is fixed rather than drawn.
CONVERGENCE_TOL = 1e-6
PRECISION = 12
# Relative error two values can pick up from %.{PRECISION}g output.
ROUNDING = 10.0 ** (1 - PRECISION)
# Floor on the analytic value in relative errors, as cmd_oracle_check uses.
REL_FLOOR = 1e-30
# Below this g/k the dense oracle cannot resolve the coupling in float64.
WEAK_RESOLUTION = 1e-14
# Smallest g/k an oracle op is given: well above WEAK_RESOLUTION, and above
# the subnormal amplitudes (g/k below about 1e-8) that slow the dense solve.
ORACLE_U_MIN = 1e-7
# Largest g/k an oracle op is given leaves the soft mode this factor below
# the tolerance on the basis edge (strong_coupling_u_max).
TRUNCATION_MARGIN = 1e-2
# Grid points of each closed-form table command.
TABLE_POINTS = {"spectrum": 24_000, "force-curve": 8_000, "vacuum-content": 14_000}
# Largest share of the distance to y_min the heavy coordinate may travel in
# one trajectory op, so that every op integrates all of its steps.
TRAVEL = 0.05

WORKLOADS = ("oracle", "closed-form")
# Trajectory ops of each workload: (force route, oracle n_max, steps).  Step
# counts give every op 0.3 to 0.5 s on a 2-vCPU Xeon (Sapphire Rapids, KVM guest).
ORACLE_TRAJECTORIES = (("oracle", 12, 380), ("oracle", 16, 350), ("oracle", 20, 330))
CLOSED_FORM_TRAJECTORIES = (
    ("casimir", None, 22_000), ("lifshitz", None, 14_000), ("classical", None, 10_000))


@dataclass
class Op:
    """One operation of a cycle and what its check needs to know."""

    kind: str
    argv: list[str] | None = None
    outdir: Path | None = None
    classical: tuple | None = None
    meta: dict = field(default_factory=dict)


@dataclass
class Outcome:
    items: int
    ok: bool
    reason: str = ""


# ---------------------------------------------------------------- sampling


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _shape(coupling: dict, y: float) -> float:
    """g(y) / g0 for the coupling families, computed independently of the package."""
    family = coupling["family"]
    if family == "constant":
        return 1.0
    if family == "exponential":
        return math.exp(-y / coupling["lambda"])
    return 1.0 / (1.0 + (y / coupling["lambda"]) ** coupling["exponent"])


def coupling_at(model: dict, y: float) -> float:
    return model["coupling"]["g0"] * _shape(model["coupling"], y)


def random_model(rng: random.Random, family: str, u: float) -> dict:
    """A model block inside the validator's domain with g(y_min)/k = u.

    m, M, k and hbar are drawn over decades; u must lie in the validator's
    range [0, 1), where g(y) < k holds on the whole window.
    """
    m = _log_uniform(rng, 0.1, 10.0)
    k = _log_uniform(rng, 0.1, 10.0)
    y_min = rng.uniform(0.0, 2.0)
    coupling = {
        "family": family,
        "lambda": _log_uniform(rng, 0.2, 5.0),
        "exponent": rng.randint(1, 4),
        "y_min": y_min,
        "y_max": y_min + rng.uniform(2.0, 20.0),
    }
    coupling["g0"] = u * k / _shape(coupling, y_min)
    return {
        "m": m,
        "M": m * _log_uniform(rng, 10.0, 1e5),
        "k": k,
        "hbar": _log_uniform(rng, 0.1, 10.0),
        "coupling": coupling,
    }


def oracle_limit(model: dict, y: float, n_max: int) -> str | None:
    """Names the known limit of the truncated-Fock oracle that y lies in, if any.

    Strong coupling: the soft normal mode leaves amplitude above the tolerance
    on the basis edge, |r|^n_max > tol with r = (omega - Omega-)/(omega + Omega-).
    Weak coupling: g/k is below WEAK_RESOLUTION, about fifty float64
    epsilons, where the coupling term is lost against the diagonal of H.
    """
    k, m = model["k"], model["m"]
    u = coupling_at(model, y) / k
    if u < WEAK_RESOLUTION:
        return "weak-coupling resolution"
    omega = math.sqrt(k / m)
    omega_minus = math.sqrt(max(k - u * k, 0.0) / m)
    r = (omega - omega_minus) / (omega + omega_minus)
    if r**n_max > CONVERGENCE_TOL:
        return "strong-coupling truncation"
    return None


def strong_coupling_u_max(n_max: int) -> float:
    """Largest g/k at which the soft mode's edge amplitude r**n_max stays
    TRUNCATION_MARGIN below the tolerance (the inverse of oracle_limit's test)."""
    r = (CONVERGENCE_TOL * TRUNCATION_MARGIN) ** (1.0 / n_max)
    s = (1.0 - r) / (1.0 + r)  # Omega- / omega
    return 1.0 - s * s


# ---------------------------------------------------------------- cycles


class CycleBuilder:
    """Writes one cycle's configs into a directory and returns its ops."""

    def __init__(self, workload: str, seed: int, reference_model: dict, tiny: bool):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.reference_model = reference_model
        self.tiny = tiny

    def size(self, normal: int, tiny: int) -> int:
        return tiny if self.tiny else normal

    def build(self, index: int, workdir: Path) -> list[Op]:
        rng = random.Random(f"{self.workload}:{self.seed}:{index}")
        workdir.mkdir(parents=True, exist_ok=True)
        self._workdir = workdir
        self._configs = 0
        self._ops = 0
        if self.workload == "oracle":
            return (self._oracle_sweep(rng, index)
                    + self._trajectory(rng, index, ORACLE_TRAJECTORIES))
        return (self._closed_form_tables(rng, index)
                + self._trajectory(rng, index, CLOSED_FORM_TRAJECTORIES))

    def _config(self, rng: random.Random, model: dict, **sections) -> Path:
        doc = {"model": model, "oracle": {"convergence_tol": CONVERGENCE_TOL}}
        doc.update(sections)
        doc["output"] = {"directory": "out", "precision": PRECISION}
        path = self._workdir / f"config{self._configs}.json"
        self._configs += 1
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def _models(self, rng: random.Random, index: int, count: int) -> list[dict]:
        """count models, families rotating with the cycle.  g(y_min)/k is
        uniform on [0, 1) except in one slot, where it is log-uniform on
        [1e-10, 1e-2]."""
        weak = index % count
        return [
            random_model(rng, FAMILIES[(index + j) % 3],
                         _log_uniform(rng, 1e-10, 1e-2) if j == weak else rng.random())
            for j in range(count)
        ]

    def _cli_op(self, kind: str, command: list[str], config: Path, model: dict, **meta) -> Op:
        outdir = self._workdir / f"out{self._ops}"
        self._ops += 1
        argv = [command[0], "--config", str(config), "--output-dir", str(outdir), *command[1:]]
        return Op(kind=kind, argv=argv, outdir=outdir, meta=dict(meta, model=model))

    def _oracle_sweep(self, rng: random.Random, index: int) -> list[Op]:
        # Every op costs about one n_max=40 oracle-check: grid sizes shrink as
        # n_max grows, so the dense working set runs from 3 MB to 23 MB per
        # matrix while op latency stays in one band.  The dense solve slows
        # several-fold where g/k is below about 1e-8 (subnormal amplitudes),
        # so each slot has a fixed coupling regime and only the values inside
        # it come from the seed.  g(y_min)/k ranges up to the strong-coupling
        # edge of each slot's n_max.
        ops = []
        # Weak end: an exponential coupling whose grid takes g/k down from its
        # start to ORACLE_U_MIN.
        n_max = self.size(24, 6)
        u0 = _log_uniform(rng, 1e-2, strong_coupling_u_max(n_max))
        model = random_model(rng, "exponential", u0)
        c = model["coupling"]
        c["y_max"] = c["y_min"] + c["lambda"] * math.log(u0 / ORACLE_U_MIN)
        ops.append(self._oracle_curve(rng, model, n_max, self.size(11, 3), c["y_max"]))
        # Near the coupling peak, g(y_min)/k uniform over [1e-2, edge].
        for j, (n_max, points) in enumerate(((28, 11), (32, 5))):
            n_max = self.size(n_max, 7)
            u = rng.uniform(1e-2, strong_coupling_u_max(n_max))
            model = random_model(rng, FAMILIES[(index + j) % 3], u)
            c = model["coupling"]
            end = min(c["y_max"], c["y_min"] + 2.0 * c["lambda"])
            ops.append(self._oracle_curve(rng, model, n_max, self.size(points, 2), end))
        for j in range(3):
            n_max = self.size(40, 8)
            u = rng.uniform(1e-2, strong_coupling_u_max(n_max))
            model = random_model(rng, FAMILIES[(index + j) % 3], u)
            c = model["coupling"]
            y = c["y_min"] + rng.uniform(0.0, 0.5) * min(c["y_max"] - c["y_min"], c["lambda"])
            config = self._config(rng, model, oracle={
                "n_max": n_max, "convergence_tol": CONVERGENCE_TOL, "y": y})
            ops.append(self._cli_op("oracle-check", ["oracle-check"], config, model,
                                    n_max=n_max, y=y))
        return ops

    def _oracle_curve(self, rng, model: dict, n_max: int, points: int, y_end: float) -> Op:
        grid = {"y_min": model["coupling"]["y_min"], "y_max": y_end, "points": points}
        config = self._config(rng, model, grid=grid,
                              oracle={"n_max": n_max, "convergence_tol": CONVERGENCE_TOL})
        return self._cli_op("force-curve-oracle", ["force-curve", "--with-oracle"], config,
                            model, points=points, n_max=n_max)

    def _closed_form_tables(self, rng: random.Random, index: int) -> list[Op]:
        # Grid sizes around 1e4 points, set so every table op costs about the
        # same; the reference config's model is one of the three models.
        ops = []
        for j, model in enumerate([self.reference_model, *self._models(rng, index, 2)]):
            c = model["coupling"]
            window = (0.0, 5.0) if j == 0 else (c["y_min"], c["y_max"])
            for command, points in TABLE_POINTS.items():
                points = self.size(points, 50)
                grid = {"y_min": window[0], "y_max": window[1], "points": points}
                config = self._config(rng, model, grid=grid)
                if command == "vacuum-content":
                    pair_n_max = rng.randint(5, 40)
                    ops.append(self._cli_op(command, [command, "--pair-n-max", str(pair_n_max)],
                                            config, model, points=points, pair_n_max=pair_n_max))
                else:
                    ops.append(self._cli_op(command, [command], config, model, points=points))
        y = _log_uniform(rng, 1e-8, 1e-3)
        area = _log_uniform(rng, 1e-8, 1e-2)
        argv = ["reference-casimir", "--y", repr(y), "--area", repr(area),
                "--hbar", "1.054571817e-34", "--c", "2.99792458e8"]
        ops.append(Op(kind="reference-casimir", argv=argv,
                      meta={"y": y, "area": area, "hbar": 1.054571817e-34, "c": 2.99792458e8}))
        return ops

    def _trajectory(self, rng: random.Random, index: int, plan) -> list[Op]:
        ops = []
        for (route, n_max, steps), model in zip(plan, self._models(rng, index, len(plan))):
            steps = self.size(steps, 20 if route == "oracle" else 100)
            c = model["coupling"]
            y0 = c["y_min"] + rng.uniform(0.4, 0.8) * (c["y_max"] - c["y_min"])
            if route == "classical":
                ops.append(self._classical_op(rng, model, y0, steps))
                continue
            dt = _log_uniform(rng, 0.05, 0.5)
            t_max = steps * dt
            reach = TRAVEL * (y0 - c["y_min"])
            _heavy_enough(model, vacuum_force(model, y0), t_max, reach)
            dynamics = {
                "y0": y0,
                "v0": rng.uniform(-1.0, 1.0) * reach / t_max,
                "dt": dt,
                "t_max": t_max,
                "force_route": route,
            }
            if n_max is not None:
                n_max = dynamics["oracle_n_max"] = self.size(n_max, 6)
            config = self._config(rng, model, dynamics=dynamics)
            ops.append(self._cli_op("evolve", ["evolve"], config, model, route=route,
                                    steps=steps, n_max=n_max))
        return ops

    def _classical_op(self, rng: random.Random, model: dict, y0: float, steps: int) -> Op:
        c = model["coupling"]
        omega_plus = math.sqrt((model["k"] + coupling_at(model, y0)) / model["m"])
        dt = 2.0 * math.pi / omega_plus * rng.uniform(1.0 / 400.0, 1.0 / 150.0)
        width = math.sqrt(model["hbar"] / math.sqrt(model["k"] * model["m"]))
        x1, x2 = width * rng.uniform(0.5, 2.0), width * rng.uniform(-2.0, 2.0)
        _heavy_enough(model, coupling_slope(model, y0) * x1 * x2, steps * dt,
                      TRAVEL * (y0 - c["y_min"]))
        state = {"x1": x1, "x2": x2, "y": y0, "p1": 0.0, "p2": 0.0, "p_y": 0.0}
        model_args = {k: model[k] for k in ("m", "M", "k", "hbar")}
        coupling = {
            "family": c["family"], "g0": c["g0"], "lam": c["lambda"],
            "exponent": c["exponent"], "y_min": c["y_min"], "y_max": c["y_max"],
        }
        return Op(kind="evolve-classical", classical=(model_args, coupling, state, dt, steps * dt),
                  meta={"route": "classical", "steps": steps, "model": model})


def coupling_slope(model: dict, y: float) -> float:
    """dg/dy for the coupling families, computed independently of the package."""
    c = model["coupling"]
    if c["family"] == "constant":
        return 0.0
    if c["family"] == "exponential":
        return -c["g0"] / c["lambda"] * math.exp(-y / c["lambda"])
    z, p = y / c["lambda"], c["exponent"]
    return -c["g0"] * p * z ** (p - 1) / (c["lambda"] * (1.0 + z**p) ** 2)


def vacuum_force(model: dict, y: float) -> float:
    """-g'(y) <x1 x2> of the coupled vacuum."""
    k, m, g = model["k"], model["m"], coupling_at(model, y)
    plus, minus = math.sqrt((k + g) / m), math.sqrt((k - g) / m)
    return coupling_slope(model, y) * model["hbar"] * g / (
        2.0 * m * m * plus * minus * (plus + minus))


def _heavy_enough(model: dict, force: float, t_max: float, reach: float) -> None:
    """Raises M, if needed, so a constant force moves y by at most reach."""
    model["M"] = max(model["M"], abs(force) * t_max**2 / reach)


# ---------------------------------------------------------------- checks


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [[float(v) for v in line.split(",")] for line in lines[1:]]


def check(op: Op, rc, stdout: str, result=None) -> Outcome:
    """Check one op's exit code and outputs; returns the items it completed."""
    if op.kind == "evolve-classical":
        return _check_classical(op, result)
    if rc != 0 and op.kind != "oracle-check":
        return Outcome(0, False, f"exit code {rc}")
    try:
        return _CHECKS[op.kind](op, rc, stdout)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return Outcome(0, False, f"unreadable output: {exc!r}")


def _oracle_failure(op: Op, items: int, ys: list[float], reason: str) -> Outcome:
    """A failed oracle op, its reason naming any known limit its points lie in."""
    limits = {oracle_limit(op.meta["model"], y, op.meta["n_max"]) for y in ys} - {None}
    if limits:
        reason += f" ({', '.join(sorted(limits))} limit)"
    return Outcome(items, False, reason)


def _check_force_curve(op: Op, rc, stdout: str) -> Outcome:
    header, rows = _read_csv(op.outdir / "force_curve.csv")
    if len(rows) != op.meta["points"]:
        return Outcome(0, False, f"{len(rows)} rows, expected {op.meta['points']}")
    col = {name: i for i, name in enumerate(header)}
    for row in rows:
        fc, fl = row[col["F_casimir"]], row[col["F_lifshitz"]]
        if abs(fc - fl) > (ROUTE_RTOL + ROUNDING) * max(abs(fc), abs(fl)):
            return Outcome(len(rows), False, f"routes disagree at y={row[0]!r}: {fc!r} vs {fl!r}")
    if op.kind == "force-curve-oracle":
        bad = []
        for row in rows:
            fc, fo = row[col["F_casimir"]], row[col["F_oracle"]]
            err = abs(fo - fc) / max(abs(fc), REL_FLOOR) if fc != 0 else abs(fo)
            if not err < CONVERGENCE_TOL + ROUNDING:
                bad.append((row[0], err))
        if bad:
            y, err = max(bad, key=lambda b: b[1])
            return _oracle_failure(op, len(rows), [b[0] for b in bad],
                                   f"F_oracle off at {len(bad)} points, worst {err:.2e} at y={y!r}")
    return Outcome(len(rows), True)


def _check_oracle_check(op: Op, rc, stdout: str) -> Outcome:
    if rc not in (0, 4):
        return Outcome(0, False, f"exit code {rc}")
    report = json.loads((op.outdir / "oracle_check.json").read_text(encoding="utf-8"))
    if report["pass"] is not True or rc != 0:
        worst = max(report["rel_err_energy"], report["rel_err_x1x2"], report["rel_err_N"])
        return _oracle_failure(op, 1, [op.meta["y"]],
                               f"oracle-check failed (exit {rc}), worst rel err {worst:.2e}")
    return Outcome(1, True)


def _check_spectrum(op: Op, rc, stdout: str) -> Outcome:
    header, rows = _read_csv(op.outdir / "spectrum.csv")
    if len(rows) != op.meta["points"]:
        return Outcome(0, False, f"{len(rows)} rows, expected {op.meta['points']}")
    for y, g, omega, plus, minus in rows:
        if not (plus >= omega >= minus > 0):
            return Outcome(len(rows), False, f"frequencies out of order at y={y!r}")
    return Outcome(len(rows), True)


def _check_vacuum_content(op: Op, rc, stdout: str) -> Outcome:
    header, rows = _read_csv(op.outdir / "vacuum_content.csv")
    _, pairs = _read_csv(op.outdir / "pair_distribution.csv")
    if len(rows) != op.meta["points"] or len(pairs) != op.meta["pair_n_max"] + 1:
        return Outcome(0, False, f"{len(rows)} rows and {len(pairs)} pair rows")
    col = {name: i for i, name in enumerate(header)}
    for row in rows:
        c0, n_mean = row[col["c0"]], row[col["N_mean"]]
        if not (0.0 < c0 <= 1.0 and n_mean >= 0.0):
            return Outcome(len(rows), False, f"c0={c0!r}, N_mean={n_mean!r} at y={row[0]!r}")
    return Outcome(len(rows) + len(pairs), True)


def _check_reference_casimir(op: Op, rc, stdout: str) -> Outcome:
    report = json.loads(stdout)
    m = op.meta
    expected = -(math.pi**2 / 240.0) * m["hbar"] * m["c"] / m["y"] ** 4
    if abs(report["pressure"] - expected) > 1e-12 * abs(expected):
        return Outcome(1, False, f"pressure {report['pressure']!r}, expected {expected!r}")
    return Outcome(1, True)


def _check_evolve(op: Op, rc, stdout: str) -> Outcome:
    lines = (op.outdir / "trajectory.csv").read_text(encoding="utf-8").count("\n")
    steps = lines - 2  # header and the initial row
    drift = None
    for line in stdout.splitlines():
        if line.startswith("final energy drift:"):
            drift = float(line.split(":", 1)[1])
    if drift is None:
        return Outcome(steps, False, "no energy drift reported")
    if not drift < EVOLVE_DRIFT_MAX:
        return Outcome(steps, False, f"energy drift {drift:.2e}")
    return Outcome(steps, True)


def _check_classical(op: Op, traj) -> Outcome:
    if traj is None:
        return Outcome(0, False, "evolve_classical raised")
    steps = len(traj.t) - 1
    e0 = traj.energy[0]
    drift = max(abs(e - e0) for e in traj.energy) / max(abs(e0), REL_FLOOR)
    if not drift < CLASSICAL_DRIFT_MAX:
        return Outcome(steps, False, f"classical energy drift {drift:.2e}")
    return Outcome(steps, True)


_CHECKS = {
    "force-curve": _check_force_curve,
    "force-curve-oracle": _check_force_curve,
    "oracle-check": _check_oracle_check,
    "spectrum": _check_spectrum,
    "vacuum-content": _check_vacuum_content,
    "reference-casimir": _check_reference_casimir,
    "evolve": _check_evolve,
}
