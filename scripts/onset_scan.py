"""Locate the self-oscillation threshold: scan the x=0 friction over bias.

The mechanical mode self-oscillates once the electronic back-action pumps
energy in faster than it is dissipated, i.e. once the zero-frequency
friction at the rest position turns negative.  This script scans gamma(x=0)
over a voltage range, writes the scan to CSV, and refines the sign change
with Brent's method (``nemclock.toymodels.brentq``, a port of scipy's).

Example:
    python scripts/onset_scan.py --v-min 10 --v-max 60 --points 26
"""
from __future__ import annotations

import argparse
import csv
import sys
import warnings
from pathlib import Path

import nemclock  # noqa: F401  # before NumPy, so the scan's BLAS runs on one thread
import numpy as np

from nemclock.params import AdiabaticityWarning, default_params
from nemclock.toymodels import brentq
from nemclock.transport import friction_and_diffusion


def gamma_at_rest(voltage: float) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdiabaticityWarning)
        params = default_params(voltage)
    return friction_and_diffusion(0.0, params)[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--v-min", type=float, default=10.0)
    parser.add_argument("--v-max", type=float, default=60.0)
    parser.add_argument("--points", type=int, default=26)
    parser.add_argument("--out", type=Path, default=Path("onset_scan.csv"))
    args = parser.parse_args(argv)

    voltages = np.linspace(args.v_min, args.v_max, args.points)
    gammas = []
    for voltage in voltages:
        gamma = gamma_at_rest(float(voltage))
        gammas.append(gamma)
        print(f"V={voltage:8.3f}  gamma(0)={gamma:+.6e}")

    with args.out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["voltage", "gamma_x0"])
        writer.writerows(zip(voltages, gammas))
    print(f"scan written to {args.out}")

    signs = np.sign(gammas)
    flips = np.nonzero(np.diff(signs))[0]
    if flips.size == 0:
        print("no sign change inside the scanned range")
        return 1
    lo, hi = float(voltages[flips[0]]), float(voltages[flips[0] + 1])
    v_star = brentq(gamma_at_rest, lo, hi)
    print(f"threshold: gamma(x=0) changes sign at V = {v_star:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
