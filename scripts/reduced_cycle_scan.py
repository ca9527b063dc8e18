"""Slow-variable portrait of the oscillator across bias, no simulation.

For each voltage above threshold this builds the coefficient table, finds
the deterministic limit-cycle radius, and reduces the dynamics to the four
slow-variable coefficients (radius, amplitude damping, amplitude diffusion,
phase diffusion).  From those it reports the derived figures of merit:

  - amplitude spread  sqrt(D_A / 2 gamma_A)
  - quality ratio     D_phi / (4 gamma_A)   (<< 1 means a narrow line)
  - phase-limited accuracy  pi / D_phi      (ticks per coherent run when
    nothing but phase diffusion degrades the clock)

This is the theory-side companion to ``nemclock sweep``: everything here is
deterministic (pole-sum tables and a cycle average), so it has no sampling
error, and the default three voltages take well under a second.

Example:
    python scripts/reduced_cycle_scan.py --voltages 50 75 100
"""
from __future__ import annotations

import argparse
import csv
import math
import sys
import warnings
from pathlib import Path

from nemclock.params import AdiabaticityWarning, default_params
from nemclock.pipeline import default_grid
from nemclock.toymodels import limit_cycle_amplitude, reduced_coefficients
from nemclock.transport import build_coefficient_table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--voltages", type=float, nargs="+", default=[50.0, 75.0, 100.0])
    parser.add_argument("--nodes", type=int, default=401, help="table grid nodes")
    parser.add_argument("--out", type=Path, default=Path("reduced_cycle_scan.csv"))
    args = parser.parse_args(argv)

    header = [
        "voltage",
        "radius",
        "amplitude_damping",
        "amplitude_diffusion",
        "phase_diffusion",
        "amplitude_spread",
        "quality_ratio",
        "phase_limited_accuracy",
    ]
    rows = []
    for voltage in args.voltages:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AdiabaticityWarning)
            params = default_params(voltage)
        grid = default_grid(params, nodes=args.nodes)
        table = build_coefficient_table(params, grid)
        radius = limit_cycle_amplitude(table, params)
        if radius is None:
            print(f"V={voltage:g}: no limit cycle (below threshold)")
            continue
        cycle = reduced_coefficients(table, params, radius)
        spread = math.sqrt(cycle.amplitude_variance)
        rows.append(
            [
                voltage,
                cycle.amplitude,
                cycle.amplitude_damping,
                cycle.amplitude_diffusion,
                cycle.phase_diffusion,
                spread,
                cycle.quality_ratio,
                math.pi / cycle.phase_diffusion,
            ]
        )
        print(
            f"V={voltage:6g}  A0={cycle.amplitude:8.3f}  "
            f"gamma_A={cycle.amplitude_damping:.3e}  "
            f"D_A={cycle.amplitude_diffusion:.3e}  "
            f"D_phi={cycle.phase_diffusion:.3e}  "
            f"spread={spread:6.3f}  Q={cycle.quality_ratio:.4f}  "
            f"N_phi={math.pi / cycle.phase_diffusion:.3g}"
        )

    if not rows:
        print("nothing above threshold in the requested list")
        return 1
    with args.out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"table written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
