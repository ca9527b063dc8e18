"""Current-spectrum line versus bias, with explicit resolution accounting.

Simulates an ensemble at each requested voltage, forms the current
autocorrelation out to a fixed lag horizon, and reports the finite-frequency
peak of the power spectrum three ways:

  - half-maximum width of the plain (rectangular-lag) spectrum,
  - half-maximum width of the Hann-windowed spectrum,
  - the damped-cosine lag-domain fit (``linewidth_fit``; NaN when its width
    or frequency ends on a bound of the fit's box).

The first two are floored at the lag-truncation kernel width ~pi/tau_max;
the script prints each width next to that floor so a pinned value is
obvious.  The lag-domain fit has no kernel floor but needs the correlation
envelope to be self-averaged: with few ensemble members the slow amplitude
channel wanders instead of averaging out, and the fit tracks that wander.
Expect the fit to become trustworthy only as members*periods grows; compare
against the predicted phase-diffusion width from
``scripts/reduced_cycle_scan.py`` (fwhm ~ D_phi at the 2*w0 peak is not the
right scale — the peak carries the amplitude channel too, so treat the
prediction as an order-of-magnitude anchor).

Example (at the defaults, V = 100 on one thread of a 2-core machine takes
about 1 s wall and 74 MB of peak resident memory, once the stepper kernel
is compiled):
    python scripts/spectral_narrowing.py --voltages 50 100 --threads 4
"""
from __future__ import annotations

import argparse
import csv
import math
import sys
import warnings
from pathlib import Path

from nemclock.clockstats import (
    autocorrelation,
    linewidth_fit,
    power_spectrum,
    spectrum_fwhm,
    spectrum_peak,
)
from nemclock.langevin import SimConfig
from nemclock.params import AdiabaticityWarning, default_params
from nemclock.pipeline import build_corpus, default_grid
from nemclock.transport import build_coefficient_table

TWO_PI = 2.0 * math.pi
WINDOW = (1.7, 2.3)


def measure(voltage, *, burn, periods, ensemble, seed, lag_periods, threads):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdiabaticityWarning)
        params = default_params(voltage)
    grid = default_grid(params)
    table = build_coefficient_table(params, grid)
    sim = SimConfig(
        time_step=math.pi / 100.0,
        burn_in=burn * TWO_PI,
        duration=(burn + periods) * TWO_PI,
        seed=seed,
        ensemble_size=ensemble,
        record_stride=200,
    )
    corpus = build_corpus(table, params, sim, current_stride=2, threads=threads)
    dtc = corpus.current_time_step
    max_lag = min(
        corpus.currents.shape[1] - 1, int(round(lag_periods * TWO_PI / dtc))
    )
    curve = autocorrelation(corpus.currents, dtc, max_lag=max_lag)
    kernel_floor = math.pi / float(curve.lags[-1])

    row = {"voltage": voltage, "kernel_floor": kernel_floor}
    for name in ("none", "hann"):
        spec = power_spectrum(curve, 0.0, lag_window=name)
        loc, _ = spectrum_peak(spec, WINDOW)
        try:
            width = spectrum_fwhm(spec, WINDOW)
        except ValueError:
            width = float("nan")
        row[f"peak_{name}"] = loc
        row[f"fwhm_{name}"] = width
    try:
        row["fit_fwhm"], row["fit_peak"] = linewidth_fit(curve, row["peak_none"])
    except ValueError:
        row["fit_fwhm"] = row["fit_peak"] = float("nan")
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--voltages", type=float, nargs="+", default=[50.0, 100.0])
    parser.add_argument("--burn", type=float, default=400.0, help="burn-in periods")
    parser.add_argument("--periods", type=float, default=2000.0, help="recorded periods")
    parser.add_argument("--ensemble", type=int, default=8)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--lag-periods", type=float, default=1500.0, help="correlation horizon"
    )
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--out", type=Path, default=Path("spectral_narrowing.csv"))
    args = parser.parse_args(argv)

    rows = []
    for voltage in args.voltages:
        row = measure(
            voltage,
            burn=args.burn,
            periods=args.periods,
            ensemble=args.ensemble,
            seed=args.seed,
            lag_periods=args.lag_periods,
            threads=args.threads,
        )
        rows.append(row)
        floor = row["kernel_floor"]
        print(f"V={voltage:g}  (kernel floor {floor:.3e})")
        for name in ("none", "hann"):
            width = row[f"fwhm_{name}"]
            pinned = "  <- pinned" if width < 5.0 * floor else ""
            print(
                f"  {name:>4}-window: peak {row[f'peak_{name}']:.5f}  "
                f"fwhm {width:.3e} = {width / floor:5.1f} floors{pinned}"
            )
        print(
            f"   lag fit  : peak {row['fit_peak']:.5f}  fwhm {row['fit_fwhm']:.3e}"
            f"  (envelope-average caveat applies)"
        )

    fieldnames = list(rows[0])
    with args.out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    print(f"table written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
