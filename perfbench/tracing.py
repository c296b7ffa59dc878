"""Span tracing of the casimir-toy layers, done entirely from the benchmark.

A ``Tracer`` wraps every public function of the package's layer modules in
every module namespace that binds it (``spectrum`` is bound in ``model``,
``quantum`` and ``cli``; ``dynamics`` reaches ``quantum.casimir_force``
through the module attribute).  Each call records one span: name, start, end,
parent span and op id.  Spans stay in memory in flat arrays and are written
out once, when the run ends.  Self time is a span's duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from array import array
from pathlib import Path

import numpy as np
import scipy.sparse.linalg

LAYERS = ("model", "quantum", "fock", "dynamics", "classical", "cli")
# The oracle force route in dynamics solves through this call; wrapping it
# counts the route's force evaluations, which have no public function.
EIGSH = "scipy.sparse.linalg.eigsh"

PER_CYCLE_S = "s/cycle"
PER_CYCLE = "1/cycle"
PER_LAYER_UNITS = {
    "fock.build_hamiltonian.calls": PER_CYCLE,
    "fock.build_hamiltonian.self_s": PER_CYCLE_S,
    "fock.ground_state.calls": PER_CYCLE,
    "fock.ground_state.self_s": PER_CYCLE_S,
    "fock.oracle_observables.self_s": PER_CYCLE_S,
    "fock.verify_annihilation.self_s": PER_CYCLE_S,
    "fock.ground_state_structure_checks.self_s": PER_CYCLE_S,
    "fock.h_bytes_computed": "B/cycle",
    "fock.h_dim_max": "count",
    "fock.residual_max": "norm",
    "fock.solves_per_point": "1/point",
    "dynamics.step_s.casimir": "s/step",
    "dynamics.step_s.lifshitz": "s/step",
    "dynamics.step_s.oracle": "s/step",
    "dynamics.evolve.calls": PER_CYCLE,
    "dynamics.evolve.self_s": PER_CYCLE_S,
    "dynamics.force_calls_per_step": "1/step",
    "dynamics.energy_audit.self_s": PER_CYCLE_S,
    "model.spectrum.calls": PER_CYCLE,
    "model.spectrum.self_s": PER_CYCLE_S,
    "model.spectrum.per_item": "1/item",
    "quantum.vacuum_energy.calls": PER_CYCLE,
    "quantum.vacuum_energy.self_s": PER_CYCLE_S,
    "quantum.casimir_force.calls": PER_CYCLE,
    "quantum.casimir_force.self_s": PER_CYCLE_S,
    "quantum.lifshitz_force.calls": PER_CYCLE,
    "quantum.lifshitz_force.self_s": PER_CYCLE_S,
    "quantum.bogoliubov_coefficients.calls": PER_CYCLE,
    "quantum.bogoliubov_coefficients.self_s": PER_CYCLE_S,
    "quantum.squeezed_vacuum_expansion.self_s": PER_CYCLE_S,
    "classical.evolve_classical.self_s": PER_CYCLE_S,
    "classical.step_s": "s/step",
    "classical.total_energy.calls": PER_CYCLE,
    "cli.write_csv.self_s": PER_CYCLE_S,
    "cli.write_csv.bytes": "B/cycle",
    "cli.write_json.self_s": PER_CYCLE_S,
    "cli.energy_gradient_fd.self_s": PER_CYCLE_S,
    "cli.cmd.self_s": PER_CYCLE_S,
    "cli.load_config.self_s": PER_CYCLE_S,
    "trace.overhead_frac": "fraction",
    "trace.span_coverage": "fraction",
}


class Tracer:
    """Records a span per call of each wrapped function while installed."""

    def __init__(self, package):
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack: list[int] = []
        self.current_op = -1
        self.h_bytes = 0
        self.h_dim_max = 0
        self.residual_max = 0.0
        self.csv_bytes = 0

        modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        targets = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    targets[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        self._patches = []
        for namespace in [package, *modules]:
            for attr, obj in vars(namespace).items():
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((namespace, attr, obj, hit[1]))
        eigsh = scipy.sparse.linalg.eigsh
        self._patches.append((scipy.sparse.linalg, "eigsh", eigsh, self._wrap(EIGSH, eigsh)))

    def install(self, op_id: int) -> None:
        self.current_op = op_id
        for namespace, attr, _, wrapped in self._patches:
            setattr(namespace, attr, wrapped)

    def uninstall(self) -> None:
        for namespace, attr, original, _ in self._patches:
            setattr(namespace, attr, original)
        self.current_op = -1

    def _observe(self, name: str, result, args) -> None:
        if name == "fock.build_hamiltonian":
            self.h_bytes += result.matrix.nbytes
            self.h_dim_max = max(self.h_dim_max, result.matrix.shape[0])
        elif name == "fock.ground_state":
            self.residual_max = max(self.residual_max, result.residual_norm)
        elif name == "cli.write_csv":
            self.csv_bytes += os.path.getsize(args[0])

    def _wrap(self, span_name: str, fn):
        name_id = len(self.names)
        self.names.append(span_name)
        observed = span_name in ("fock.build_hamiltonian", "fock.ground_state", "cli.write_csv")
        names, parents, ops, t0s, t1s = self.name, self.parent, self.op, self.t0, self.t1
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(t0s)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            t1s.append(0.0)
            stack.append(index)
            t0s.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[index] = clock()
                stack.pop()
            if observed:
                self._observe(span_name, result, args)
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "t0": np.frombuffer(self.t0, dtype=np.float64).copy(),
            "t1": np.frombuffer(self.t1, dtype=np.float64).copy(),
        }

    def write(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(json.dumps(self.names)), **self.arrays())


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Duration minus the summed duration of direct children, per span."""
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=len(duration))
    return duration - covered


def layer_metrics(tracer: Tracer, ops: list[dict], cycles: int) -> dict[str, float]:
    """Per-layer figures of the traced ops.

    ``ops`` holds one record per op id with its kind, items, route, latency
    and whether it ran traced and its untraced twin's latency.  Totals are
    given per cycle, so runs with different cycle counts compare.
    """
    a = tracer.arrays()
    duration = a["t1"] - a["t0"]
    own = self_times(a["parent"], duration)
    n_names = len(tracer.names)
    calls = np.bincount(a["name"], minlength=n_names)
    self_s = np.bincount(a["name"], weights=own, minlength=n_names)
    index = {name: i for i, name in enumerate(tracer.names)}

    def n_calls(name, mask=None):
        if mask is None:
            return float(calls[index[name]])
        return float(np.count_nonzero(mask & (a["name"] == index[name])))

    def total_self(name):
        return float(self_s[index[name]])

    traced = [op for op in ops if op["traced"]]
    per_cycle = 1.0 / max(cycles, 1)
    oracle_points = sum(op["items"] for op in traced
                        if op["kind"] in ("force-curve-oracle", "oracle-check"))
    items = sum(op["items"] for op in traced)

    def by_route(route):
        ids = [op["id"] for op in traced if op.get("route") == route]
        steps = sum(op["items"] for op in traced if op.get("route") == route)
        return np.isin(a["op"], ids), steps

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in ("fock.build_hamiltonian", "fock.ground_state"):
        out[f"{name}.calls"] = n_calls(name) * per_cycle
        out[f"{name}.self_s"] = total_self(name) * per_cycle
    for name in ("fock.oracle_observables", "fock.verify_annihilation",
                 "fock.ground_state_structure_checks"):
        out[f"{name}.self_s"] = total_self(name) * per_cycle
    out["fock.h_bytes_computed"] = tracer.h_bytes * per_cycle
    out["fock.h_dim_max"] = float(tracer.h_dim_max)
    out["fock.residual_max"] = tracer.residual_max
    out["fock.solves_per_point"] = ratio(n_calls("fock.ground_state"), oracle_points)

    evolve = index["dynamics.evolve"]
    force_calls = 0.0
    all_steps = 0
    for route, force in (("casimir", "quantum.casimir_force"),
                         ("lifshitz", "quantum.lifshitz_force"), ("oracle", EIGSH)):
        mask, steps = by_route(route)
        wall = float(duration[mask & (a["name"] == evolve)].sum())
        out[f"dynamics.step_s.{route}"] = ratio(wall, steps)
        force_calls += n_calls(force, mask)
        all_steps += steps
    out["dynamics.evolve.calls"] = n_calls("dynamics.evolve") * per_cycle
    out["dynamics.evolve.self_s"] = total_self("dynamics.evolve") * per_cycle
    out["dynamics.force_calls_per_step"] = ratio(force_calls, all_steps)
    out["dynamics.energy_audit.self_s"] = total_self("dynamics.energy_audit") * per_cycle

    out["model.spectrum.calls"] = n_calls("model.spectrum") * per_cycle
    out["model.spectrum.self_s"] = total_self("model.spectrum") * per_cycle
    out["model.spectrum.per_item"] = ratio(n_calls("model.spectrum"), items)
    for name in ("vacuum_energy", "casimir_force", "lifshitz_force", "bogoliubov_coefficients"):
        out[f"quantum.{name}.calls"] = n_calls(f"quantum.{name}") * per_cycle
        out[f"quantum.{name}.self_s"] = total_self(f"quantum.{name}") * per_cycle
    out["quantum.squeezed_vacuum_expansion.self_s"] = (
        total_self("quantum.squeezed_vacuum_expansion") * per_cycle)

    mask, steps = by_route("classical")
    classical = index["classical.evolve_classical"]
    out["classical.evolve_classical.self_s"] = total_self("classical.evolve_classical") * per_cycle
    out["classical.step_s"] = ratio(float(duration[mask & (a["name"] == classical)].sum()), steps)
    out["classical.total_energy.calls"] = n_calls("classical.total_energy") * per_cycle

    out["cli.write_csv.self_s"] = total_self("cli.write_csv") * per_cycle
    out["cli.write_csv.bytes"] = tracer.csv_bytes * per_cycle
    out["cli.write_json.self_s"] = total_self("cli.write_json") * per_cycle
    out["cli.energy_gradient_fd.self_s"] = total_self("cli.energy_gradient_fd") * per_cycle
    out["cli.cmd.self_s"] = sum(total_self(n) for n in tracer.names
                                if n.startswith("cli.cmd_")) * per_cycle
    out["cli.load_config.self_s"] = total_self("cli.load_config") * per_cycle

    traced_wall = sum(op["latency_s"] for op in traced)
    untraced_wall = sum(op["twin_latency_s"] for op in traced)
    top = a["parent"] < 0
    out["trace.overhead_frac"] = ratio(traced_wall - untraced_wall, untraced_wall)
    out["trace.span_coverage"] = ratio(float(duration[top].sum()), traced_wall)
    return out
