"""Command-line pipeline: coefficient tables, ensembles, ticks, analysis.

Subcommands
-----------
coeffs      build (or reuse) the coefficient table for a config
simulate    integrate the ensemble and store it with its ticks and position
            density, both taken from every full-rate state
ticks       write the tick series stored by ``simulate``
analyze     estimate clock statistics from stored artifacts
run         all of the above, plus a manifest of every artifact
sweep       repeat ``run`` across a list of voltages
toymodel    sample one of the reduced toy processes

Configs are strict, versioned JSON: unknown keys are errors at every level.
``record_stride`` only thins the stored record, whose ``positions`` and
``velocities`` in ensemble.npz hold one row per member.  With them
``simulate`` stores a provenance record: every field of the system,
simulation and detection records the config builds, the grid section, and
the hash of the coefficient table.  ``ticks`` and ``analyze`` build the same
record from their config and refuse the first field that differs (exit 2,
"re-run simulate"), then load coeffs.npz by the stored hash; they build no
grid and no table, so a refusal leaves coeffs.npz as it was.
``--threads`` sets the stepper's worker threads; coefficient tables are
built on the calling thread, because their quadrature is many small numpy
operations that hold the GIL, so more threads only contend for it.
Exit codes: 0 on success, 2 for configuration problems, 3 for numerical
failures (tagged with the stage that failed).  Artifacts contain no
timestamps; a rerun with the same config and seed is bit-identical no matter
how many threads are used.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import clockstats, tickinfo, toymodels
from .langevin import SimConfig, Trajectory
from .params import LeadSpec, SystemParams, fingerprint
from .pipeline import (
    Corpus,
    build_corpus,
    default_grid,
    ensemble_allan,
    pooled_waiting_times,
)
from .readout import DetectionPolicy, TickSeries, transduce
from .svgplot import line_plot
from .transport import (
    CoefficientTable,
    GridSpec,
    build_coefficient_table,
    table_fingerprint,
)

__all__ = ["main", "ConfigError", "StageFailure", "load_config"]

CONFIG_VERSION = 1


class ConfigError(ValueError):
    """The configuration file is malformed or inconsistent."""


class StageFailure(RuntimeError):
    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


@contextlib.contextmanager
def _stage(name: str):
    try:
        yield
    except (ConfigError, StageFailure):
        raise
    except Exception as exc:
        raise StageFailure(name, exc) from exc


# ----------------------------------------------------------------- config --


def _take(mapping, section: str, allowed: dict):
    """Validated copy of a config section: unknown keys are errors and
    missing keys take their defaults (a default of ... marks required)."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"section {section!r} must be an object")
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {section!r}: {', '.join(unknown)}")
    out = {}
    for key, default in allowed.items():
        if key in mapping:
            out[key] = mapping[key]
        elif default is ...:
            raise ConfigError(f"missing required key {section!r}.{key}")
        else:
            out[key] = default
    return out


_SYSTEM_KEYS = dict(
    voltage=None,
    coupling=0.5,
    inverse_temperature=0.1,
    dot_energy=0.0,
    band_center=2.5,
    bandwidth=5.0,
    peak_rate=10.0,
    left=None,
    right=None,
)
_LEAD_KEYS = dict(
    band_center=..., bandwidth=..., peak_rate=..., chemical_potential=...
)
_GRID_KEYS = dict(x_max=None, nodes=801)
_SIM_KEYS = dict(
    time_step=math.pi / 100.0,
    burn_in=100.0 * math.pi,
    duration=500.0 * math.pi,
    seed=1,
    ensemble_size=4,
    record_stride=1,
)
_DETECTION_KEYS = dict(level=None, refractory=0.25 * math.pi)
_ANALYSIS_KEYS = dict(
    max_lag_periods=100.0,
    spectrum_window=(1.6, 2.4),
    allan_per_decade=20,
    mi_separations=(1, 100),
    kl_orders=(2, 4, 8),
    make_plots=True,
)
_TOY_KEYS = dict(
    type=...,
    duration=...,
    time_step=...,
    seed=0,
    frequency=1.0,
    cycle=None,
    rates=None,
    levels=None,
    offset=0.0,
    baseline=0.0,
)
_CYCLE_KEYS = dict(
    amplitude=...,
    amplitude_damping=...,
    amplitude_diffusion=...,
    phase_diffusion=...,
)


def _finite(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


def _check_values(cfg: dict) -> None:
    """Values that can only be mistakes: counts that are not integers, a
    negative refractory window, a lag range that is not positive, a spectrum
    window that is not 0 < low < high, and analysis counts that are not
    integers >= 1."""
    for section, key in (("simulation", "seed"), ("simulation", "ensemble_size"),
                         ("simulation", "record_stride"), ("grid", "nodes")):
        if type(cfg[section][key]) is not int:
            raise ConfigError(
                f"{section}.{key} must be an integer, not {cfg[section][key]!r}"
            )
    refractory = cfg["detection"]["refractory"]
    if not (_finite(refractory) and refractory >= 0):
        raise ConfigError(
            f"detection.refractory must be a number >= 0, not {refractory!r}"
        )
    a = cfg["analysis"]
    if not (_finite(a["max_lag_periods"]) and a["max_lag_periods"] > 0):
        raise ConfigError(
            f"analysis.max_lag_periods must be a number > 0, not {a['max_lag_periods']!r}"
        )
    window = a["spectrum_window"]
    if not (isinstance(window, (list, tuple)) and len(window) == 2
            and all(map(_finite, window)) and 0 < window[0] < window[1]):
        raise ConfigError(
            f"analysis.spectrum_window must be two numbers 0 < low < high, not {window!r}"
        )
    for key in ("allan_per_decade", "kl_orders", "mi_separations"):
        counts = [a[key]] if key == "allan_per_decade" else a[key]
        if not (isinstance(counts, (list, tuple))
                and all(type(n) is int and n >= 1 for n in counts)):
            raise ConfigError(f"analysis.{key} must hold integers >= 1, not {a[key]!r}")


def load_config(path) -> dict:
    """Parse and validate a pipeline config, filling in defaults."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    top = _take(
        raw,
        "config",
        dict(
            version=...,
            system=...,
            grid={},
            simulation={},
            detection={},
            analysis={},
            sweep=None,
            toymodel=None,
        ),
    )
    if top["version"] != CONFIG_VERSION:
        raise ConfigError(
            f"unsupported config version {top['version']!r}; "
            f"this build reads version {CONFIG_VERSION}"
        )
    cfg = dict(top)
    cfg["system"] = _take(top["system"], "system", _SYSTEM_KEYS)
    for side in ("left", "right"):
        if cfg["system"][side] is not None:
            cfg["system"][side] = _take(
                cfg["system"][side], f"system.{side}", _LEAD_KEYS
            )
    explicit = (cfg["system"]["left"] is not None) or (
        cfg["system"]["right"] is not None
    )
    if explicit and not (cfg["system"]["left"] and cfg["system"]["right"]):
        raise ConfigError("explicit leads need both system.left and system.right")
    if explicit and cfg["system"]["voltage"] is not None:
        raise ConfigError("give either system.voltage or explicit leads, not both")
    if not explicit and cfg["system"]["voltage"] is None:
        raise ConfigError("system needs a voltage (or explicit leads)")
    cfg["grid"] = _take(top["grid"], "grid", _GRID_KEYS)
    cfg["simulation"] = _take(top["simulation"], "simulation", _SIM_KEYS)
    cfg["detection"] = _take(top["detection"], "detection", _DETECTION_KEYS)
    cfg["analysis"] = _take(top["analysis"], "analysis", _ANALYSIS_KEYS)
    _check_values(cfg)
    if cfg["sweep"] is not None:
        sweep = _take(cfg["sweep"], "sweep", dict(voltages=...))
        voltages = sweep["voltages"]
        if not (isinstance(voltages, list) and voltages and all(map(_finite, voltages))):
            raise ConfigError(
                f"sweep.voltages must be a non-empty list of numbers, not {voltages!r}"
            )
        labels = [f"V={v:g}" for v in voltages]
        twice = sorted({label for label in labels if labels.count(label) > 1})
        if twice:
            raise ConfigError(f"sweep.voltages name the directory {', '.join(twice)} twice")
        cfg["sweep"] = sweep
    if cfg["toymodel"] is not None:
        toy = _take(cfg["toymodel"], "toymodel", _TOY_KEYS)
        if toy["cycle"] is not None:
            toy["cycle"] = _take(toy["cycle"], "toymodel.cycle", _CYCLE_KEYS)
        cfg["toymodel"] = toy
    return cfg


def build_params(cfg: dict) -> SystemParams:
    s = cfg["system"]
    try:
        if s["left"] is not None:
            return SystemParams(
                left=LeadSpec(**s["left"]),
                right=LeadSpec(**s["right"]),
                inverse_temperature=s["inverse_temperature"],
                coupling=s["coupling"],
                dot_energy=s["dot_energy"],
            )
        v = float(s["voltage"])
        return SystemParams(
            left=LeadSpec(
                band_center=s["band_center"],
                bandwidth=s["bandwidth"],
                peak_rate=s["peak_rate"],
                chemical_potential=v / 2.0,
            ),
            right=LeadSpec(
                band_center=-s["band_center"],
                bandwidth=s["bandwidth"],
                peak_rate=s["peak_rate"],
                chemical_potential=-v / 2.0,
            ),
            inverse_temperature=s["inverse_temperature"],
            coupling=s["coupling"],
            dot_energy=s["dot_energy"],
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid system parameters: {exc}") from exc


def build_sim(cfg: dict, seed_override=None) -> SimConfig:
    s = cfg["simulation"]
    seed = s["seed"] if seed_override is None else int(seed_override)
    try:
        return SimConfig(
            time_step=float(s["time_step"]),
            burn_in=float(s["burn_in"]),
            duration=float(s["duration"]),
            seed=seed,
            ensemble_size=s["ensemble_size"],
            record_stride=s["record_stride"],
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid simulation section: {exc}") from exc


# -------------------------------------------------------------- artifacts --


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ----------------------------------------------------------------- stages --


def stage_coeffs(cfg, params, out: Path):
    """Build or reuse the coefficient table; returns (table, cache_note)."""
    g = cfg["grid"]
    if g["x_max"] is None:
        grid_spec = default_grid(params, nodes=g["nodes"])
    else:
        grid_spec = GridSpec(x_max=float(g["x_max"]), nodes=g["nodes"])
    cache = out / "coeffs.npz"
    note = "built"
    if cache.exists():
        expected = table_fingerprint(params, grid_spec.positions())
        try:
            return CoefficientTable.load(cache, expected_hash=expected), "hit"
        except Exception as exc:
            stale = "different parameters" in str(exc)
            note = "rebuilt (stale)" if stale else "rebuilt (corrupt)"
    table = build_coefficient_table(params, grid_spec)
    table.save(cache)
    return table, note


def _policy(cfg) -> DetectionPolicy:
    d = cfg["detection"]
    return DetectionPolicy(
        level=None if d["level"] is None else float(d["level"]),
        refractory=float(d["refractory"]),
    )


def _provenance(cfg, params, sim: SimConfig) -> dict:
    """What an ensemble simulated for this config comes from, as JSON values:
    the system, simulation and detection records and the grid section."""
    g = cfg["grid"]
    grid = {"x_max": None if g["x_max"] is None else float(g["x_max"]),
            "nodes": g["nodes"]}
    record = {"system": asdict(params), "grid": grid,
              "simulation": asdict(sim), "detection": asdict(_policy(cfg))}
    return json.loads(json.dumps(record))


def _leaves(tree, prefix=""):
    """(dotted key, value) for every leaf of a nested dict."""
    if not isinstance(tree, dict):
        return [(prefix, tree)]
    return [leaf for key, value in tree.items()
            for leaf in _leaves(value, f"{prefix}.{key}" if prefix else key)]


def stage_simulate(cfg, params, table, sim: SimConfig, out: Path, threads: int):
    """Integrate the ensemble, detecting ticks and histogramming positions on
    every full-rate state; stores ensemble.npz and trajectory.csv."""
    corpus = build_corpus(table, params, sim, policy=_policy(cfg), threads=threads)
    rec = corpus.record
    provenance = {**_provenance(cfg, params, sim), "params_hash": table.params_hash}
    with open(out / "ensemble.npz", "wb") as fh:
        np.savez(
            fh,
            times=rec.times,
            positions=rec.positions,
            velocities=rec.velocities,
            provenance=np.frombuffer(json.dumps(provenance).encode(), dtype=np.uint8),
            tick_times=np.concatenate([ts.tick_times for ts in corpus.ticks]),
            tick_counts=np.array([len(ts) for ts in corpus.ticks], dtype=np.int64),
            position_density=corpus.position_density,
            position_count=np.array([corpus.position_count], dtype=np.int64),
        )
    _write_csv(
        out / "trajectory.csv",
        ["time", "position", "velocity"],
        zip(rec.times, rec.positions[0], rec.velocities[0]),
    )
    return corpus


def _load_corpus(cfg, params, sim: SimConfig, out: Path) -> Corpus:
    """The corpus ``simulate`` stored in ensemble.npz, refused (exit 2) at the
    first leaf of its provenance record that the config now sets otherwise,
    when coeffs.npz no longer holds the table it was simulated on, or when
    there is no ensemble.npz at all."""
    path = out / "ensemble.npz"
    if not path.is_file():
        raise ConfigError(f"{path} does not exist; run simulate first")
    with np.load(path) as data:
        d = dict(data)
    if "provenance" not in d:
        raise ValueError(
            "ensemble.npz holds no provenance record (an older nemclock wrote "
            "it); re-run simulate"
        )
    stored = json.loads(bytes(d["provenance"]).decode())
    params_hash = stored.pop("params_hash")
    held, asked = dict(_leaves(stored)), dict(_leaves(_provenance(cfg, params, sim)))
    for key in dict.fromkeys([*asked, *held]):
        if key not in held or key not in asked or held[key] != asked[key]:
            raise ConfigError(
                f"ensemble.npz holds {key} {held.get(key)!r}, the config asks "
                f"for {asked.get(key)!r}; re-run simulate"
            )
    try:
        table = CoefficientTable.load(out / "coeffs.npz", expected_hash=params_hash)
    except (OSError, ValueError) as exc:
        raise ConfigError(
            f"coeffs.npz does not hold the table ensemble.npz was simulated on "
            f"({exc}); re-run simulate"
        ) from exc
    policy = _policy(cfg).resolve(table)
    members = np.split(d["tick_times"], np.cumsum(d["tick_counts"])[:-1])
    return Corpus(
        params=params, table=table, sim=sim, policy=policy,
        ticks=tuple(TickSeries(t, policy) for t in members),
        position_density=d["position_density"],
        position_count=int(d["position_count"][0]),
        record=Trajectory(d["times"], d["positions"], d["velocities"]),
    )


def stage_ticks(corpus: Corpus, out: Path):
    """Stores the ticks detected while simulating as ticks.csv and ticks.json."""
    rows = [(i, t) for i, ts in enumerate(corpus.ticks) for t in ts.tick_times]
    _write_csv(out / "ticks.csv", ["member", "tick_time"], rows)
    _write_json(
        out / "ticks.json",
        {
            "level": corpus.policy.level,
            "refractory": corpus.policy.refractory,
            "counts": [len(ts) for ts in corpus.ticks],
        },
    )
    return corpus.ticks


def stage_analyze(cfg, corpus: Corpus, out: Path) -> dict:
    """Clock statistics from the stored ensemble; writes the report set and
    returns the report.json payload."""
    params, table = corpus.params, corpus.table
    tick_series = corpus.ticks
    a = cfg["analysis"]
    dt_rec = corpus.record.sample_spacing
    w0 = params.oscillator_frequency

    waits = pooled_waiting_times(tick_series)
    mean_wait = float(waits.mean())
    accuracy, resolution = clockstats.accuracy_resolution(waits)
    _write_csv(out / "wtd.csv", ["wait"], ((w,) for w in waits))

    fit_payload = None
    if waits.size >= 100 and np.var(waits) > 0:
        fit = clockstats.fit_inverse_gaussian(waits)
        fit_payload = {
            "mean": fit.mean,
            "variance": fit.variance,
            "sample_count": fit.sample_count,
            "ks_statistic": fit.ks_statistic,
        }
    _write_json(out / "wtd_fit.json", fit_payload or {"note": "too few waits"})

    currents = transduce(corpus.record, table)
    max_lag = min(
        currents.shape[1] // 2,
        int(round(a["max_lag_periods"] * 2.0 * math.pi / (w0 * dt_rec))),
    )
    curve = clockstats.autocorrelation(currents, dt_rec, max_lag=max_lag)
    _write_csv(
        out / "autocorrelation.csv", ["lag", "value"], zip(curve.lags, curve.values)
    )

    density = corpus.position_density
    floor = float(np.trapezoid(density * table.column("shot_noise"), table.grid))
    spectrum = clockstats.power_spectrum(curve, floor)
    _write_csv(
        out / "spectrum.csv",
        ["omega", "power"],
        zip(spectrum.frequencies, spectrum.values),
    )
    window = tuple(float(v) * w0 for v in a["spectrum_window"])
    peak_loc, peak_height = clockstats.spectrum_peak(spectrum, window)
    try:
        peak_width = clockstats.spectrum_fwhm(spectrum, window)
    except ValueError:
        peak_width = None
    try:
        line_fwhm, line_loc = clockstats.linewidth_fit(curve, peak_loc)
    except ValueError:
        line_fwhm = line_loc = None

    entropy_tick = clockstats.entropy_per_tick(params, density, table, resolution)

    # The admissible window range is set by the sparsest member's tick span,
    # not the nominal recording length (the last tick lands short of the end).
    usable = [ts for ts in tick_series if ts.tick_times.size >= 2]
    try:
        if not usable:
            raise ValueError("no member produced two ticks")
        span = min(float(ts.tick_times[-1]) for ts in usable)
        T_grid = clockstats.default_allan_grid(
            mean_wait, span, per_decade=a["allan_per_decade"]
        )
        allan = ensemble_allan(usable, mean_wait, T_grid)
    except ValueError:
        allan = []
    renewal = [
        clockstats.renewal_allan_asymptote(mean_wait, accuracy, T) for T, _ in allan
    ]
    _write_csv(
        out / "allan.csv",
        ["window", "allan_variance", "renewal"],
        ((T, val, r) for (T, val), r in zip(allan, renewal)),
    )

    info = _information_block(a, tick_series)
    _write_json(out / "info.json", info)

    report = {
        "mean_wait": mean_wait,
        "resolution": resolution,
        "accuracy": accuracy,
        "entropy_rate": entropy_tick * resolution,
        "entropy_per_tick": entropy_tick,
        "spectrum_peak": {"location": peak_loc, "height": peak_height},
        "spectrum_fwhm": peak_width,
        "linewidth_fit": {"fwhm": line_fwhm, "location": line_loc},
        "tick_count": int(sum(len(ts) for ts in tick_series)),
    }
    _write_json(out / "report.json", report)

    if a["make_plots"]:
        line_plot(
            out / "spectrum.svg",
            [("power", spectrum.frequencies[1:], spectrum.values[1:])],
            title="current power spectrum",
            x_label="angular frequency",
            y_label="power",
            log_y=bool(np.all(spectrum.values[1:] > 0)),
        )
        line_plot(
            out / "autocorrelation.svg",
            [("C", curve.lags, curve.values)],
            title="current autocorrelation",
            x_label="lag",
            y_label="C",
        )
        if allan:
            T = np.array([row[0] for row in allan])
            val = np.array([row[1] for row in allan])
            keep = val > 0
            line_plot(
                out / "allan.svg",
                [
                    ("measured", T[keep], val[keep]),
                    ("renewal", T, np.array(renewal)),
                ],
                title="Allan variance",
                x_label="window",
                y_label="sigma_y^2",
                log_x=True,
                log_y=True,
            )
        if waits.size >= 2:
            hist = tickinfo.Histogram.from_samples(waits)
            line_plot(
                out / "wtd.svg",
                [("waits", hist.midpoints, hist.masses / hist.bin_width)],
                title="waiting-time distribution",
                x_label="wait",
                y_label="density",
            )
    return report


def _information_block(a, tick_series) -> dict:
    """KL divergence of n-tick sums from the independent-gap prediction,
    and wait-wait mutual information, where the data suffice."""
    per_member = [
        np.diff(ts.tick_times) for ts in tick_series if len(ts) >= 2
    ]
    pooled = np.concatenate(per_member) if per_member else np.empty(0)
    out: dict = {"kl_orders": {}, "mutual_information": {}}
    if pooled.size >= 200:
        base = tickinfo.Histogram.from_samples(pooled)
        for n in a["kl_orders"]:
            predicted = tickinfo.n_fold_convolution(base, n)
            sums = np.concatenate(
                [
                    tickinfo.n_sum_samples(w, n)
                    for w in per_member
                    if w.size >= n
                ]
            )
            measured = tickinfo.Histogram.from_samples(
                sums, edges=predicted.edges, clip=True
            )
            out["kl_orders"][str(n)] = tickinfo.kl_divergence(measured, predicted)
    else:
        out["kl_orders"] = None
    for m in a["mi_separations"]:
        values = [
            tickinfo.pairwise_mutual_information(w, m)
            for w in per_member
            if w.size > m + 1000
        ]
        out["mutual_information"][str(m)] = (
            float(np.mean(values)) if values else None
        )
    return out


def _write_manifest(out: Path, cfg, sim: SimConfig, params, cache_note, extra=None):
    artifacts = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            artifacts[str(path.relative_to(out))] = _sha256(path)
    payload = {
        "config": {k: v for k, v in cfg.items() if k not in ("sweep", "toymodel")},
        "seed": sim.seed,
        "parameter_fingerprint": fingerprint(params),
        "coefficient_cache": cache_note,
        "artifacts": artifacts,
    }
    if extra:
        payload.update(extra)
    _write_json(out / "manifest.json", payload)


# ------------------------------------------------------------ subcommands --


def _check_record_resolves_spectrum(cfg, params, sim: SimConfig) -> None:
    """The stored record's Nyquist frequency must exceed the spectrum window."""
    top = cfg["analysis"]["spectrum_window"][1] * params.oscillator_frequency
    if math.pi / (sim.time_step * sim.record_stride) > top:
        return
    largest = math.ceil(math.pi / (sim.time_step * top)) - 1
    raise ConfigError(
        f"simulation.record_stride {sim.record_stride} puts the recorded Nyquist "
        f"frequency pi/(time_step*record_stride) at or below the spectrum window "
        f"top {top:g}; "
        + (f"record_stride may be at most {largest}" if largest >= 1
           else "no record_stride can: reduce simulation.time_step")
    )


def _prepare(args):
    cfg = load_config(args.config)
    params = build_params(cfg)
    sim = build_sim(cfg, args.seed)
    _check_record_resolves_spectrum(cfg, params, sim)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, out, params, sim


def cmd_coeffs(args) -> int:
    cfg, out, params, sim = _prepare(args)
    with _stage("coeffs"):
        table, note = stage_coeffs(cfg, params, out)
    print(f"coefficient table: {table.grid.size} nodes, cache {note}")
    return 0


def cmd_simulate(args) -> int:
    cfg, out, params, sim = _prepare(args)
    with _stage("coeffs"):
        table, _ = stage_coeffs(cfg, params, out)
    with _stage("simulate"):
        corpus = stage_simulate(cfg, params, table, sim, out, args.threads)
    print("simulated {} members, {} samples each".format(*corpus.record.positions.shape))
    return 0


def cmd_ticks(args) -> int:
    cfg, out, params, sim = _prepare(args)
    with _stage("ticks"):
        series = stage_ticks(_load_corpus(cfg, params, sim, out), out)
    print(f"detected {sum(len(s) for s in series)} ticks")
    return 0


def cmd_analyze(args) -> int:
    cfg, out, params, sim = _prepare(args)
    with _stage("analyze"):
        corpus = _load_corpus(cfg, params, sim, out)
        stage_ticks(corpus, out)
        report = stage_analyze(cfg, corpus, out)
    print(
        f"accuracy {report['accuracy']:.4g}, resolution {report['resolution']:.4g}, "
        f"entropy/tick {report['entropy_per_tick']:.4g}"
    )
    return 0


def _run_pipeline(cfg, out: Path, params, sim, threads: int):
    with _stage("coeffs"):
        table, note = stage_coeffs(cfg, params, out)
    with _stage("simulate"):
        corpus = stage_simulate(cfg, params, table, sim, out, threads)
    with _stage("ticks"):
        stage_ticks(corpus, out)
    with _stage("analyze"):
        report = stage_analyze(cfg, corpus, out)
    _write_manifest(out, cfg, sim, params, note)
    return report


def cmd_run(args) -> int:
    cfg, out, params, sim = _prepare(args)
    report = _run_pipeline(cfg, out, params, sim, args.threads)
    print(
        f"run complete: accuracy {report['accuracy']:.4g}, "
        f"resolution {report['resolution']:.4g}"
    )
    return 0


def cmd_sweep(args) -> int:
    cfg, out, params, sim = _prepare(args)
    if cfg["sweep"] is None:
        raise ConfigError("sweep subcommand needs a sweep section")
    if cfg["system"]["left"] is not None:
        raise ConfigError(
            "sweep sets system.voltage, which explicit leads cannot take; "
            "describe the device by the voltage shorthand"
        )
    rows = []
    for voltage in cfg["sweep"]["voltages"]:
        sub_cfg = json.loads(json.dumps(cfg))
        sub_cfg["system"]["voltage"] = float(voltage)
        sub_cfg["sweep"] = None
        sub_params = build_params(sub_cfg)
        sub_out = out / f"V={voltage:g}"
        sub_out.mkdir(parents=True, exist_ok=True)
        report = _run_pipeline(sub_cfg, sub_out, sub_params, sim, args.threads)
        rows.append(
            (
                float(voltage),
                1.0 / report["resolution"],
                report["accuracy"],
                report["resolution"],
                report["entropy_per_tick"],
            )
        )
        print(f"V={voltage:g} done: accuracy {report['accuracy']:.4g}")
    _write_csv(
        out / "summary.csv",
        ["voltage", "mean_wait", "accuracy", "resolution", "entropy_per_tick"],
        rows,
    )
    _write_manifest(out, cfg, sim, params, "per-voltage", extra={"kind": "sweep"})
    return 0


def cmd_toymodel(args) -> int:
    cfg = load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    toy = cfg["toymodel"]
    if toy is None:
        raise ConfigError("toymodel subcommand needs a toymodel section")
    seed = int(args.seed) if args.seed is not None else int(toy["seed"])

    def need_cycle():
        if toy["cycle"] is None:
            raise ConfigError(f"toymodel.type {toy['type']!r} needs a cycle section")
        return toymodels.ReducedCycle(**toy["cycle"])

    kind = toy["type"]
    with _stage("toymodel"):
        if kind == "ou_amplitude":
            spec = toymodels.OUAmplitude(need_cycle())
        elif kind == "phase_diffusion":
            spec = toymodels.PhaseDiffusion(need_cycle())
        elif kind == "offset":
            spec = toymodels.OffsetModelParams(
                cycle=need_cycle(),
                offset=float(toy["offset"]),
                baseline=float(toy["baseline"]),
            )
        elif kind == "telegraph":
            if toy["rates"] is None or toy["levels"] is None:
                raise ConfigError("telegraph toymodel needs rates and levels")
            spec = toymodels.TelegraphParams(
                rates=tuple(float(r) for r in toy["rates"]),
                levels=tuple(float(l) for l in toy["levels"]),
            )
        else:
            raise ConfigError(f"unknown toymodel.type {kind!r}")
        times, series = toymodels.simulate_toy(
            spec,
            float(toy["duration"]),
            float(toy["time_step"]),
            seed,
            frequency=float(toy["frequency"]),
        )
        _write_csv(out / "toymodel.csv", ["time", "value"], zip(times, series))
    print(f"toymodel {kind}: {times.size} samples")
    return 0


# ------------------------------------------------------------------- main --


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nemclock",
        description="electromechanical clock pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "coeffs": cmd_coeffs,
        "simulate": cmd_simulate,
        "ticks": cmd_ticks,
        "analyze": cmd_analyze,
        "run": cmd_run,
        "sweep": cmd_sweep,
        "toymodel": cmd_toymodel,
    }
    for name, handler in handlers.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--threads", type=int, default=1, help="stepper threads")
        p.add_argument("--out", default="nemclock_out", help="output directory")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StageFailure as exc:
        print(f"numerical failure {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
