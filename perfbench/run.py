#!/usr/bin/env python3
"""Benchmark of casimir-toy, driven only through the package's public entry points.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 50 --trace 0

One client in one process runs the workload's cycle of ops (see workloads.py)
in a closed loop for --seconds, finishing the cycle it is in, and checks
every op's output.  Op latency is the wall time of the one call.  items_per_s
divides the work items done by the summed op latency, so the benchmark's own
config writing and output checks are not charged to the program.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` each op
runs once untraced and once traced, and the metrics are the per-layer ones
from the traced runs (tracing.py).  ``failed / attempted`` is the error rate;
``correct`` is false if any op failed its check.
A record of the run (environment, every op, tail percentile, error rate, and
in traced runs the spans) is written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import os

# Pinned before numpy loads OpenBLAS, and the same on every commit.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_CONFIG = ROOT / "configs" / "reference.json"
RECORD_DIR = ROOT / ".perfbench"

# Fresh processes timed for setup_s in each of two groups, one before and one
# after the timed loop, so that their median spans the run's machine state.
SETUP_REPEATS = 4
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from casimir_toy import cli
cli.load_config(sys.argv[2])
print(repr(time.perf_counter() - t0))
"""
# The tail is the latency with this many samples beyond it.
TAIL_BEYOND = 10

E2E_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every op (smoke check of the benchmark itself)")
    return parser.parse_args(argv)


def measure_setup(config: Path, repeats: int, fill_cache: bool) -> list[float]:
    """Seconds a fresh interpreter takes to import casimir_toy.cli and load a config.

    With fill_cache, one untimed run first fills the bytecode cache.
    """
    times = []
    for _ in range(repeats + fill_cache):
        child = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), str(config)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(child.stdout.strip().splitlines()[-1]))
    return times[fill_cache:]


def _read_text(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def environment(numpy, scipy, n_maxes) -> dict:
    cpuinfo = _read_text("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), "unknown")
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}/"
        level, kind, size = (_read_text(base + f) for f in ("level", "type", "size"))
        if level and size and kind and kind.strip() != "Instruction":
            caches[f"L{level.strip()}"] = size.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"],
        "openblas_scipy": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"],
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "cpu_model": model,
        "cpu_caches": caches,
        "dense_operator_bytes": {
            "note": "computed as 8 * (n_max + 1)**4 per matrix, not measured",
            **{str(n): 8 * (n + 1) ** 4 for n in sorted(n_maxes)},
        },
    }


class Runner:
    """Runs ops, checks them and keeps one record per op."""

    def __init__(self, tracer=None):
        from casimir_toy import classical, cli, model

        self.cli, self.classical, self.model = cli, classical, model
        self.tracer = tracer
        self.records: list[dict] = []

    def run(self, op: workloads.Op, cycle: int, traced: bool = False) -> dict:
        op_id = len(self.records)
        out, err = io.StringIO(), io.StringIO()
        rc, result = None, None
        if op.classical is not None:
            args = self._classical_args(op)
        if traced:
            self.tracer.install(op_id)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                if op.classical is None:
                    rc = self.cli.main(op.argv)
                else:
                    result = self.classical.evolve_classical(*args)
                    rc = 0
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # an op that raises is a failed op, not a failed run
                traceback.print_exc()
            latency = time.perf_counter() - t0
        if traced:
            self.tracer.uninstall()
        outcome = workloads.check(op, rc, out.getvalue(), result)
        record = {
            "id": op_id,
            "cycle": cycle,
            "kind": op.kind,
            "route": op.meta.get("route"),
            "n_max": op.meta.get("n_max"),
            "traced": traced,
            "latency_s": latency,
            "items": outcome.items,
            "ok": outcome.ok,
            "reason": outcome.reason,
        }
        if not outcome.ok:
            record["stderr"] = err.getvalue()[-2000:]
        self.records.append(record)
        return record

    def _classical_args(self, op):
        model_args, coupling, state, dt, t_max = op.classical
        m = self.model
        validated = m.validate(m.ModelParams(**model_args, coupling=m.CouplingSpec(**coupling)))
        return validated, self.classical.PhaseState(**state), dt, t_max


def run_cycles(builder, runner, workdir: Path, seconds: float, trace: bool) -> int:
    """Runs whole cycles until --seconds have passed; returns the cycle count."""
    cycles = 0
    start = time.perf_counter()
    while cycles == 0 or time.perf_counter() - start < seconds:
        cycle_dir = workdir / f"cycle{cycles}"
        for i, op in enumerate(builder.build(cycles, cycle_dir)):
            if not trace:
                runner.run(op, cycles)
                continue
            # the same op untraced and traced, alternating which goes first
            order = (False, True) if (cycles + i) % 2 == 0 else (True, False)
            pair = {traced: runner.run(op, cycles, traced) for traced in order}
            pair[True]["twin_latency_s"] = pair[False]["latency_s"]
        shutil.rmtree(cycle_dir)
        cycles += 1
    return cycles


def end_to_end(records: list[dict], setup: list[float], summary: dict) -> dict:
    latencies = sorted(r["latency_s"] for r in records)
    n = len(latencies)
    # with too few samples for a tail, the slowest op stands in for it
    tail_index = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    summary.update(
        samples=n,
        tail_percentile=100.0 * (tail_index + 1) / n,
        tail_samples_beyond=n - 1 - tail_index,
        setup_samples_s=setup,
    )
    return {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": latencies[tail_index],
        "items_per_s": sum(r["items"] for r in records) / sum(latencies),
        "peak_rss_mb": summary["peak_rss_mb"],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "casimir_toy" / "__init__.py").is_file() or not REFERENCE_CONFIG.is_file():
        print(f"error: {ROOT} is not a casimir-toy checkout "
              "(src/casimir_toy and configs/reference.json are required)", file=sys.stderr)
        return 2
    reference_model = json.loads(REFERENCE_CONFIG.read_text(encoding="utf-8"))["model"]
    RECORD_DIR.mkdir(exist_ok=True)
    builder = workloads.CycleBuilder(args.workload, args.seed, reference_model, args.tiny)
    warmup = workloads.CycleBuilder(args.workload, args.seed, reference_model, tiny=True)

    with tempfile.TemporaryDirectory(dir=RECORD_DIR) as tmp:
        workdir = Path(tmp)
        setup = []
        setup_repeats = 1 if args.tiny else SETUP_REPEATS
        if not args.trace:
            first = next(op for op in builder.build(0, workdir / "setup") if op.argv)
            config = Path(first.argv[first.argv.index("--config") + 1])
            setup = measure_setup(config, setup_repeats, fill_cache=True)

        sys.path.insert(0, str(SRC))
        import numpy
        import scipy

        import casimir_toy

        if not Path(casimir_toy.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"error: casimir_toy imported from {casimir_toy.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer(casimir_toy)

        # One small untimed cycle loads lazy code paths before timing.
        warm = Runner()
        for op in warmup.build(0, workdir / "warmup"):
            warm.run(op, -1)

        runner = Runner(tracer)
        cycles = run_cycles(builder, runner, workdir, args.seconds, bool(args.trace))
        if not args.trace:
            setup += measure_setup(config, setup_repeats, fill_cache=False)

    records = runner.records
    failed = sum(not r["ok"] for r in records)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cycles": cycles,
        "error_rate": failed / len(records),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if args.trace:
        values = tracing.layer_metrics(tracer, records, cycles)
        units = tracing.PER_LAYER_UNITS
        tracer.write(RECORD_DIR / f"spans-{args.workload}.npz")
    else:
        values = end_to_end(records, setup, summary)
        units = E2E_UNITS
    n_maxes = {r["n_max"] for r in records if r["n_max"] is not None}
    summary["environment"] = environment(numpy, scipy, n_maxes)
    summary["ops"] = records
    record_path = RECORD_DIR / f"{args.workload}-trace{args.trace}.json"
    record_path.write_text(json.dumps(summary, indent=1), encoding="utf-8")
    print(f"{args.workload}: {cycles} cycles, {len(records)} ops, {failed} failed, "
          f"record in {record_path}", file=sys.stderr)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
