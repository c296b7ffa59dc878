#!/usr/bin/env python3
"""Compare the three force routes against a finite-difference baseline.

For a grid of separations, prints the mode-sum force, the
correlator-times-gradient force, the Fock-oracle force, and the central
finite difference of the vacuum energy, together with the worst pairwise
relative deviation.  The two analytic routes agree to rounding; the
oracle converges as the per-mode cutoff grows.
"""

from __future__ import annotations

import argparse

import numpy as np

from casimir_toy.cli import energy_gradient_fd
from casimir_toy.fock import FockOracle, oracle_force
from casimir_toy.model import CouplingSpec, ModelParams, validate
from casimir_toy.quantum import casimir_force, lifshitz_force


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--g0", type=float, default=0.5)
    parser.add_argument("--lam", type=float, default=1.0)
    parser.add_argument(
        "--family",
        default="exponential",
        choices=["constant", "exponential", "inverse-power"],
    )
    parser.add_argument("--n-max", type=int, default=32, help="oracle cutoff")
    parser.add_argument("--points", type=int, default=9)
    parser.add_argument("--y-max", type=float, default=4.0)
    args = parser.parse_args()

    model = validate(
        ModelParams(
            m=1.0,
            M=1000.0,
            k=1.0,
            hbar=1.0,
            coupling=CouplingSpec(
                family=args.family, g0=args.g0, lam=args.lam, y_min=0.0, y_max=10.0
            ),
        )
    )
    oracle = FockOracle(model, args.n_max)
    h = 1e-5

    print(f"family={args.family} g0={args.g0} lambda={args.lam} n_max={args.n_max}")
    print(f"{'y':>6} {'mode-sum':>16} {'correlator':>16} {'oracle':>16} {'-dE/dy':>16}")
    worst = 0.0
    ys = np.linspace(h, args.y_max, args.points)
    for y, f_fd in zip(ys, -energy_gradient_fd(model, ys, h)):
        f_modes = casimir_force(model, y)
        f_corr = lifshitz_force(model, y)
        f_oracle = oracle_force(oracle, y)
        print(f"{y:6.3f} {f_modes:16.9e} {f_corr:16.9e} {f_oracle:16.9e} {f_fd:16.9e}")
        scale = max(abs(f_modes), 1e-300)
        worst = max(
            worst,
            abs(f_modes - f_corr) / scale,
            abs(f_modes - f_oracle) / scale,
            abs(f_modes - f_fd) / scale,
        )
    print(f"worst relative deviation across routes: {worst:.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
