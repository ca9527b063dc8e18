"""The benchmark's workloads: inputs from a seed, one timed call, output checks.

Each workload runs in a fresh process (see ``worker.py``) with at most two
threads, the core count of the reference machine.  ``setup`` is everything a
user pays before the measured call, ``call`` is the measured call, and
``check`` turns the call's outputs into correctness gates, output digests and
output-derived counts.  The predictions name the ROADMAP open items each
workload is there to judge:

  2  compiled stepper        3  analytic friction
  4  one streaming driver    5  better-conditioned integrator

corpus-v100
    Why: the stepper is about 99% of the timed ``pipeline.build_corpus`` call,
    and the consumer ``feed`` calls about 1%.  The coefficient table is built
    in set-up, so transport does no timed work and this workload bypasses
    transport changes.  It is the acceptance-corpus shape (two full 16-member
    blocks, ``current_stride=2``, ``record_stride=200``) at reduced length,
    single-threaded because threads only add GIL contention to the stepper.
    Predicts: items 2 and 5 lower ``wall_s`` and raise
    ``member_steps_per_s`` (``langevin.ns_per_member_step`` falls); item 3
    lowers only ``setup_s`` (``transport.probe_table.busy_s``,
    ``quadrature.*`` counts); item 4 may move ``pipeline.*_feed`` and
    ``readout.tick_feed``.

run-v100
    Why: ``nemclock run --threads 2`` into a cold output directory is the
    user-facing path and touches every module: the probe and main tables
    (coeffs), one half-full 8-member stepper block at ``record_stride`` 1
    (simulate), tick detection on the stored record, analysis, SVG plots and
    the manifest.  Predicts: item 3 lowers ``wall_s`` through
    ``cli.stage_coeffs``; items 2 and 5 through ``cli.stage_simulate``; item 4
    through ``cli.stage_ticks``/``cli.stage_analyze`` and ``peak_rss_mb``
    (no stored full-rate ensemble).

tables-v5-50-100
    Why: ``pipeline.default_grid`` plus ``transport.build_coefficient_table``
    at V = 5 (sub-threshold, no probe table), 50 and 100 (probe path), then
    ``transport.friction_and_diffusion(0, V)`` over 26 voltages in [10, 60]
    as ``scripts/onset_scan.py`` does, which makes single-position calls
    instead of 64-node batches.  Transport and quadrature do all the work and
    the stepper none.  Predicts: item 3 lowers ``wall_s``
    (``quadrature.calls``/``.evaluations`` fall); items 2, 4 and 5 predict no
    change here.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import warnings
from pathlib import Path

TWO_PI = 2.0 * math.pi
THREADS = 2
TOLERANCE = 0.02  # tick count and mean wait must sit within 2% of the ideal


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(array.tobytes())
        digest.update(b"|")
    return digest.hexdigest()


def _table_digest(table) -> str:
    names = ("excess_occupation", "current", "shot_noise", "friction", "diffusion")
    return _sha256(table.grid, *(table.column(n) for n in names))


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _within(value: float, target: float) -> bool:
    return abs(value - target) <= TOLERANCE * target


class CorpusV100:
    name = "corpus-v100"
    voltage = 100.0
    members = 32
    burn_periods = 50
    periods = 100

    def setup(self, seed: int, work: Path):
        from nemclock import langevin, params, pipeline, transport

        p = params.default_params(self.voltage)
        grid = pipeline.default_grid(p, threads=THREADS)
        table = transport.build_coefficient_table(p, grid, threads=THREADS)
        sim = langevin.SimConfig(
            time_step=math.pi / 100.0,
            burn_in=self.burn_periods * TWO_PI,
            duration=(self.burn_periods + self.periods) * TWO_PI,
            seed=seed,
            ensemble_size=self.members,
            record_stride=200,
        )
        return p, table, sim

    def call(self, state, index):
        from nemclock import pipeline

        p, table, sim = state
        return pipeline.build_corpus(table, p, sim, current_stride=2, threads=1)

    def check(self, state, corpus, index) -> dict:
        import numpy as np
        from nemclock import pipeline

        ticks = sum(len(ts) for ts in corpus.ticks)
        waits = pipeline.pooled_waiting_times(corpus.ticks)
        return {
            "gates": {
                "tick_count": _within(ticks, 2 * self.periods * self.members),
                "mean_wait": _within(float(waits.mean()), math.pi),
            },
            "digests": {
                "ticks": _sha256(*(ts.tick_times for ts in corpus.ticks)),
                "currents": _sha256(*corpus.currents),
                "density": _sha256(np.asarray(corpus.position_density)),
                "table": _table_digest(state[1]),
            },
            "ticks": ticks,
            "member_steps": state[2].total_steps * self.members,
            "artifact_bytes": 0,
        }


class RunV100:
    name = "run-v100"
    config = Path(__file__).resolve().parent / "run-v100.json"

    def setup(self, seed: int, work: Path):
        from nemclock import cli

        out = work / f"run-v100-{os.getpid()}"
        shutil.rmtree(out, ignore_errors=True)
        return cli, seed, out

    def call(self, state, index):
        cli, seed, out = state
        # a cold output directory per call: no cached coefficient table
        return cli.main(["run", "--config", str(self.config), "--out", str(out / str(index)),
                         "--threads", str(THREADS), "--seed", str(seed)])

    def check(self, state, code, index) -> dict:
        from nemclock import cli

        out = state[2] / str(index)
        try:
            gates = {"exit_code": code == 0}
            if code != 0:
                return {"gates": gates, "digests": {}, "ticks": 0,
                        "member_steps": 0, "artifact_bytes": 0}
            manifest = json.loads((out / "manifest.json").read_text())
            files = {
                str(p.relative_to(out)): _file_digest(p)
                for p in out.rglob("*") if p.is_file() and p.name != "manifest.json"
            }
            gates["manifest_hashes"] = files == manifest["artifacts"]
            sim = cli.build_sim(cli.load_config(self.config))
            periods = (sim.total_steps - sim.burn_steps) * sim.time_step / TWO_PI
            ticks = sum(json.loads((out / "ticks.json").read_text())["counts"])
            report = json.loads((out / "report.json").read_text())
            gates["tick_count"] = _within(ticks, 2 * periods * sim.ensemble_size)
            gates["mean_wait"] = _within(report["mean_wait"], math.pi)
            return {
                "gates": gates,
                "digests": {
                    "manifest": _file_digest(out / "manifest.json"),
                    "ticks": manifest["artifacts"]["ticks.csv"],
                },
                "ticks": ticks,
                "member_steps": sim.total_steps * sim.ensemble_size,
                "artifact_bytes": sum(
                    p.stat().st_size for p in out.rglob("*") if p.is_file()
                ),
            }
        finally:
            # the whole per-process directory; the next call starts cold anyway
            shutil.rmtree(state[2], ignore_errors=True)


class TablesV5To100:
    name = "tables-v5-50-100"
    voltages = (5.0, 50.0, 100.0)
    scan_points = 26
    scan_range = (10.0, 60.0)
    onset_bracket = (40.0, 45.0)

    def scan_voltages(self, seed: int):
        """onset_scan.py's 26-point grid with each point moved by up to
        0.25 V, so the seed varies the inputs while the onset (V = 42.3)
        stays bracketed by neighbours (2 V apart) inside [40, 45]."""
        import numpy as np

        lo, hi = self.scan_range
        base = np.linspace(lo, hi, self.scan_points)
        jitter = np.random.default_rng(seed).uniform(-0.25, 0.25, base.size)
        return np.clip(base + jitter, lo, hi)

    def setup(self, seed: int, work: Path):
        return self.scan_voltages(seed)

    def call(self, scan, index):
        from nemclock import params, pipeline, transport

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", params.AdiabaticityWarning)
            tables = []
            for voltage in self.voltages:
                p = params.default_params(voltage)
                grid = pipeline.default_grid(p, threads=THREADS)
                tables.append(
                    transport.build_coefficient_table(p, grid, threads=THREADS)
                )
            gammas = [
                transport.friction_and_diffusion(0.0, params.default_params(float(v)))[0]
                for v in scan
            ]
        return tables, gammas

    def check(self, scan, output, index) -> dict:
        import numpy as np

        tables, gammas = output
        at_rest = {
            v: float(np.interp(0.0, t.grid, t.column("friction")))
            for v, t in zip(self.voltages, tables)
        }
        signs = np.sign(gammas)
        flips = np.nonzero(np.diff(signs))[0]
        bracketed = False
        if flips.size == 1:
            lo, hi = scan[flips[0]], scan[flips[0] + 1]
            bracketed = self.onset_bracket[0] <= lo < hi <= self.onset_bracket[1]
        return {
            "gates": {
                "damped_at_v5": at_rest[5.0] > 0,
                "pumped_at_v50": at_rest[50.0] < 0,
                "pumped_at_v100": at_rest[100.0] < 0,
                "onset_bracketed": bracketed,
            },
            "digests": {
                **{f"table_v{v:g}": _table_digest(t) for v, t in zip(self.voltages, tables)},
                "scan": _sha256(np.asarray(scan), np.asarray(gammas)),
            },
            "ticks": 0,
            "member_steps": 0,
            "artifact_bytes": 0,
        }


WORKLOADS = {w.name: w for w in (CorpusV100(), RunV100(), TablesV5To100())}
