#!/usr/bin/env python3
"""Convergence of the truncated-Fock oracle with the per-mode cutoff.

Prints the relative error of the oracle ground-state energy, correlator
and mean occupation against the closed-form values as n_max grows, plus
the annihilation residual of the truncated squeezed-vacuum expansion.
"""

from __future__ import annotations

import argparse

from casimir_toy.fock import (
    FockOracle,
    ground_state,
    oracle_observables,
    verify_annihilation,
)
from casimir_toy.model import CouplingSpec, ModelParams, validate
from casimir_toy.quantum import (
    bogoliubov_coefficients,
    mean_free_quanta,
    squeezed_vacuum_expansion,
    vacuum_energy,
    vacuum_fluctuations,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--g0", type=float, default=0.5)
    parser.add_argument("--y", type=float, default=0.0)
    parser.add_argument("--max-cutoff", type=int, default=40)
    args = parser.parse_args()

    model = validate(
        ModelParams(
            m=1.0,
            M=1000.0,
            k=1.0,
            hbar=1.0,
            coupling=CouplingSpec(
                family="constant", g0=args.g0, y_min=0.0, y_max=10.0
            ),
        )
    )
    y = args.y
    e_ref = vacuum_energy(model, y)
    x1x2_ref = vacuum_fluctuations(model, y).x1x2
    coeffs = bogoliubov_coefficients(model, y)
    n_ref = mean_free_quanta(coeffs)

    print(f"g0={args.g0} y={y}: E_vac={e_ref:.12f} <x1x2>={x1x2_ref:.12f} <N1>={n_ref:.6e}")
    print(f"{'n_max':>6} {'rel err E0':>12} {'rel err x1x2':>13} {'rel err N1':>12} {'ann. residual':>14}")
    for n_max in range(4, args.max_cutoff + 1, 4):
        oracle = FockOracle(model, n_max)
        obs = oracle_observables(ground_state(oracle, y))
        expansion = squeezed_vacuum_expansion(coeffs, N_max=max(n_max - 2, 0))
        residual = verify_annihilation(expansion, n_max)
        print(
            f"{n_max:6d} {abs(obs.E_vac - e_ref) / e_ref:12.3e}"
            f" {abs(obs.x1x2 - x1x2_ref) / abs(x1x2_ref):13.3e}"
            f" {abs(obs.N1 - n_ref) / n_ref:12.3e}"
            f" {residual:14.3e}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
