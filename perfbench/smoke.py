#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at a tiny size.

Run from the root of a checkout:

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json this runs run.py with ``--tiny`` once
untraced and once traced, and asserts that the last line of output is the
result object, that it carries every end-to-end (untraced) or per-layer
(traced) metric named in BENCHMARK.json with its unit, and that the outputs
were checked correct.  It then copies BENCHMARK.json and the benchmark's
directories into an otherwise empty directory and asserts that the benchmark
refuses to run there: non-zero exit, no result printed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_result(spec: dict, workload: str, trace: int) -> None:
    child = run(ROOT, workload, trace)
    assert child.returncode == 0, f"{workload} trace={trace}: exit {child.returncode}\n{child.stderr}"
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS, f"result keys {sorted(result)}"
    assert result["correct"] is True, f"{workload} trace={trace}: outputs not correct"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted, f"{workload} trace={trace}: metrics differ: {set(got) ^ set(wanted)}"
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), f"{name} is not a number"
    print(f"ok  {workload:20s} trace={trace}  {len(got)} metrics, "
          f"{result['failed']}/{result['attempted']} ops failed")


def check_refuses_without_program(spec: dict) -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        child = run(bare, spec["workloads"][0]["name"], 0)
    assert child.returncode != 0, "benchmark ran without the program"
    assert '"metrics"' not in child.stdout, "benchmark printed a result without the program"
    print(f"ok  refuses to run without the program (exit {child.returncode})")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_result(spec, workload["name"], trace)
    check_refuses_without_program(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
