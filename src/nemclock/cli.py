"""Command-line pipeline: coefficient tables, ensembles, ticks, analysis.

Subcommands
-----------
coeffs      build the coefficient table for a config and save it
simulate    integrate the ensemble and store it with its ticks and position
            density, both taken from every full-rate state
ticks       write the tick series stored by ``simulate``
analyze     estimate clock statistics from stored artifacts
run         all of the above, plus a manifest of the files it wrote
sweep       repeat ``run`` across a list of voltages

Configs are strict, versioned JSON: unknown keys are errors at every level,
and every value given must be of the kind its key declares.
``record_stride`` only thins the stored record: ensemble.npz holds its
``positions``, one row per member, and the config gives its times.  With
them ``simulate`` stores a provenance record: every field of the system,
simulation and detection records the config builds, the grid section, and
the hash of the coefficient table.  ``ticks`` and ``analyze`` build the same
record from their config and refuse the first field that differs (exit 2,
"re-run simulate"), then load coeffs.npz by the stored hash; they build no
grid and no table, so a refusal leaves coeffs.npz as it was.
``--threads`` sets the stepper's worker threads and is taken only by the
commands that run it (``simulate``, ``run``, ``sweep``); coefficient tables
are built on the calling thread, each one pass of pole sums over its whole
grid in the compiled kernel (or in NumPy, its oracle and fallback).
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

from . import clockstats, langevin, tickinfo
from .langevin import SimConfig, Trajectory
from .params import LeadSpec, SystemParams, default_params, fingerprint
from .pipeline import (
    Corpus,
    build_corpus,
    default_grid,
    ensemble_allan,
    pooled_waiting_times,
)
from .readout import DetectionPolicy, TickSeries, transduce
from .svgplot import line_plot
from .transport import CoefficientTable, GridSpec, build_coefficient_table

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


def _number(value) -> bool:
    """A JSON number that is a finite double; true and false are not numbers."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _int_at_least(low: int):
    return (lambda v: type(v) is int and v >= low, f"an integer >= {low}")


# A kind is a (test, text) pair: a given value that fails the test is refused
# as "<dotted key> must be <text>, not <value>".
_NUMBER = (_number, "a finite number")
_POSITIVE = (lambda v: _number(v) and v > 0, "a number > 0")
_NONNEGATIVE = (lambda v: _number(v) and v >= 0, "a number >= 0")
_INTEGER = (lambda v: type(v) is int, "an integer")
_COUNT = _int_at_least(1)

# Each section maps a key to (default, kind); a default of ... marks the key
# required, and a kind that is itself such a table marks a nested section.
# the voltage shorthand's defaults are the reference device's
_REFERENCE = default_params()
_SYSTEM_KEYS = dict(
    voltage=(..., _NUMBER),
    coupling=(_REFERENCE.coupling, _NUMBER),
    inverse_temperature=(_REFERENCE.inverse_temperature, _POSITIVE),
    dot_energy=(_REFERENCE.dot_energy, _NUMBER),
    band_center=(_REFERENCE.left.band_center, _NUMBER),
    bandwidth=(_REFERENCE.left.bandwidth, _POSITIVE),
    peak_rate=(_REFERENCE.left.peak_rate, _POSITIVE),
)
_GRID_KEYS = dict(x_max=(None, _POSITIVE), nodes=(GridSpec.nodes, _int_at_least(4)))
_SIM_KEYS = dict(
    time_step=(math.pi / 100.0, _POSITIVE),
    burn_in=(100.0 * math.pi, _NONNEGATIVE),
    duration=(500.0 * math.pi, _POSITIVE),
    seed=(1, _INTEGER),
    ensemble_size=(4, _COUNT),
    record_stride=(1, _COUNT),
)
_DETECTION_KEYS = dict(
    level=(None, _NUMBER), refractory=(DetectionPolicy.refractory, _NONNEGATIVE)
)
_CONFIG_KEYS = dict(
    version=(..., _INTEGER),
    system=(..., _SYSTEM_KEYS),
    grid=({}, _GRID_KEYS),
    simulation=({}, _SIM_KEYS),
    detection=({}, _DETECTION_KEYS),
    sweep=(None, dict(voltages=(..., (lambda v: isinstance(v, list) and len(v) > 0
                                      and all(map(_number, v)),
                                      "a non-empty list of numbers")))),
)


def _take(mapping, section: str, table: dict) -> dict:
    """Checked copy of a config section, with its nested sections.  Unknown
    keys are errors that echo every leaf they set, so a retired key is found
    by its dotted name; missing keys take their defaults, and JSON null stands
    for a missing key only where the default is None.  Every value given is
    checked against its kind; the defaults are not."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"section {section!r} must be an object")
    prefix = "" if section == "config" else f"{section}."
    unknown = sorted(set(mapping) - set(table))
    if unknown:
        given = [f"{name} = {value!r}" for key in unknown
                 for name, value in _leaves(mapping[key], prefix + key)]
        note = f" (given {'; '.join(given)})" if given else ""
        raise ConfigError(f"unknown keys in {section!r}: {', '.join(unknown)}{note}")
    out = {}
    for key, (default, kind) in table.items():
        if key not in mapping and default is ...:
            raise ConfigError(f"missing required key {section!r}.{key}")
        value = mapping.get(key, default)
        if value is None and default is None:
            out[key] = None
        elif isinstance(kind, dict):
            out[key] = _take(value, prefix + key, kind)
        elif key in mapping and not kind[0](value):
            raise ConfigError(f"{prefix}{key} must be {kind[1]}, not {value!r}")
        else:
            out[key] = value
    return out


def load_config(path) -> dict:
    """Parse and validate a pipeline config, filling in defaults."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    cfg = _take(raw, "config", _CONFIG_KEYS)
    if cfg["version"] != CONFIG_VERSION:
        raise ConfigError(
            f"unsupported config version {cfg['version']!r}; "
            f"this build reads version {CONFIG_VERSION}"
        )
    if cfg["sweep"] is not None:
        labels = [f"V={v:g}" for v in cfg["sweep"]["voltages"]]
        twice = sorted({label for label in labels if labels.count(label) > 1})
        if twice:
            raise ConfigError(f"sweep.voltages name the directory {', '.join(twice)} twice")
    return cfg


def build_params(cfg: dict) -> SystemParams:
    s = cfg["system"]
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
    except ValueError as exc:
        raise ConfigError(f"invalid simulation section: {exc}") from exc


# -------------------------------------------------------------- artifacts --


_CSV_CHUNK = 1024  # rows formatted per write, so no full-size text


def _repr_chunks(columns):
    """The rows of ``columns`` as CSV text, each chunk one ``%r`` format over
    the columns' ``.tolist()`` values: the oracle of ``langevin.csv_chunks``
    and the path of a column it does not take."""
    width, n_rows = len(columns), columns[0].shape[0]
    row = ",".join(["%r"] * width) + "\n"
    for start in range(0, n_rows, _CSV_CHUNK):
        stop = min(start + _CSV_CHUNK, n_rows)
        values = [None] * ((stop - start) * width)
        for j, c in enumerate(columns):
            values[j::width] = c[start:stop].tolist()
        yield ((row * (stop - start)) % tuple(values)).encode()


def _write_csv(path, header, columns) -> None:
    """Write equal-length 1-D ``columns`` under ``header``, one name per
    column: a float as ``repr(float(v))``, the shortest text that reads
    back to the same double, and an integer as ``str``.  The compiled
    kernel writes float and integer columns; ``repr`` writes the same bytes
    when it cannot, or when a column holds anything else.  A complex or
    longdouble column, which neither writes as such, is refused with a
    ValueError before the file is opened."""
    columns = [np.asarray(c) for c in columns]
    if not columns:
        raise ValueError("a CSV needs at least one column")
    if len(header) != len(columns):
        raise ValueError(f"CSV header names {len(header)} columns, "
                         f"but {len(columns)} are given")
    if any(c.ndim != 1 or c.shape != columns[0].shape for c in columns):
        raise ValueError("CSV columns must be 1-D and of equal length")
    for name, c in zip(header, columns):
        if c.dtype.kind == "c" or (c.dtype.kind == "f" and c.dtype.itemsize > 8):
            raise ValueError(f"CSV column {name!r} has dtype {c.dtype}, which is "
                             "written neither as a double nor as an integer")
    chunks = langevin.csv_chunks(columns, _CSV_CHUNK)
    if chunks is None:
        chunks = _repr_chunks(columns)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for chunk in chunks:
            fh.write(chunk)


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


def stage_coeffs(cfg, params, out: Path) -> CoefficientTable:
    """Build the config's coefficient table and save it as coeffs.npz."""
    g = cfg["grid"]
    if g["x_max"] is None:
        grid_spec = default_grid(params, nodes=g["nodes"])
    else:
        grid_spec = GridSpec(x_max=float(g["x_max"]), nodes=g["nodes"])
    table = build_coefficient_table(params, grid_spec)
    table.save(out / "coeffs.npz")
    return table


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
    every full-rate state; stores ensemble.npz."""
    corpus = build_corpus(table, params, sim, policy=_policy(cfg), threads=threads)
    provenance = {**_provenance(cfg, params, sim), "params_hash": table.params_hash}
    with open(out / "ensemble.npz", "wb") as fh:
        np.savez(
            fh,
            positions=corpus.record.positions,
            provenance=np.frombuffer(json.dumps(provenance).encode(), dtype=np.uint8),
            tick_times=np.concatenate([ts.tick_times for ts in corpus.ticks]),
            tick_counts=np.array([len(ts) for ts in corpus.ticks], dtype=np.int64),
            position_density=corpus.position_density,
            position_count=np.array([corpus.position_count], dtype=np.int64),
        )
    return corpus


def _load_corpus(cfg, params, sim: SimConfig, out: Path) -> Corpus:
    """The corpus ``simulate`` stored in ensemble.npz, refused (exit 2) at the
    first leaf of its provenance record that the config now sets otherwise,
    when coeffs.npz no longer holds the table it was simulated on, or when
    there is no ensemble.npz at all; a ValueError refuses arrays that are
    missing or disagree with each other, the config or the table."""
    path = out / "ensemble.npz"
    if not path.is_file():
        raise ConfigError(f"{path} does not exist; run simulate first")
    with np.load(path) as data:
        d = dict(data)
    missing = [name for name in ("provenance", "positions", "tick_times", "tick_counts",
                                 "position_density", "position_count") if name not in d]
    if missing:
        raise ValueError(f"ensemble.npz holds no {', '.join(missing)}; re-run simulate")
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
    counts, size = d["tick_counts"], sim.ensemble_size
    if not (np.issubdtype(counts.dtype, np.integer) and counts.shape == (size,)
            and np.all(counts >= 0) and counts.sum() == d["tick_times"].size):
        raise ValueError(
            f"ensemble.npz's tick_counts are not {size} counts of its "
            f"{d['tick_times'].size} tick_times; re-run simulate"
        )
    for name, shape in (("positions", (size, sim.recorded_samples)),
                        ("position_density", table.grid.shape)):
        if d[name].shape != shape:
            raise ValueError(
                f"ensemble.npz holds {name} of shape {d[name].shape}, not "
                f"{shape}; re-run simulate"
            )
    fed = size * (sim.total_steps - sim.burn_steps + 1)  # every full-rate state
    if d["position_count"].tolist() != [fed]:
        raise ValueError(
            f"ensemble.npz's position_count {d['position_count'].tolist()} is not "
            f"the {fed} states simulated; re-run simulate"
        )
    policy = _policy(cfg).resolve(table)
    members = np.split(d["tick_times"], np.cumsum(counts)[:-1])
    return Corpus(
        params=params, table=table, sim=sim, policy=policy,
        ticks=tuple(TickSeries(t, policy) for t in members),
        position_density=d["position_density"],
        position_count=fed,
        record=Trajectory(sim.record_times(), d["positions"]),
    )


def stage_ticks(corpus: Corpus, out: Path):
    """Stores the ticks detected while simulating as ticks.csv and ticks.json."""
    counts = [len(ts) for ts in corpus.ticks]
    _write_csv(
        out / "ticks.csv",
        ["member", "tick_time"],
        [
            np.repeat(np.arange(len(counts)), counts),
            np.concatenate([ts.tick_times for ts in corpus.ticks]),
        ],
    )
    _write_json(
        out / "ticks.json",
        {
            "level": corpus.policy.level,
            "refractory": corpus.policy.refractory,
            "counts": counts,
        },
    )
    return corpus.ticks


# the analysis readings: the correlation horizon in oscillation periods, the
# spectrum window in units of the oscillator frequency, Allan windows per
# decade, and the wait separations and tick orders of info.json
_MAX_LAG_PERIODS = 100.0
_SPECTRUM_WINDOW = (1.6, 2.4)
_ALLAN_PER_DECADE = 20
_MI_SEPARATIONS = (1, 100)
_KL_ORDERS = (2, 4, 8)


def stage_analyze(corpus: Corpus, out: Path) -> tuple[dict, list[str]]:
    """Clock statistics from the stored ensemble; writes the report set and
    returns the report.json payload and the names of the plots it drew.  The
    spectrum is only plotted: it is ``power_spectrum`` of autocorrelation.csv
    and ``shot_noise_floor``."""
    params, table = corpus.params, corpus.table
    tick_series = corpus.ticks
    dt_rec = corpus.record.sample_spacing
    w0 = params.oscillator_frequency

    waits = pooled_waiting_times(tick_series)
    mean_wait = float(waits.mean())
    accuracy, resolution = clockstats.accuracy_resolution(waits)

    try:
        fit = clockstats.fit_inverse_gaussian(waits)
    except ValueError as exc:
        # the check that refused the fit: too few, non-positive or degenerate waits
        fit_payload = {"note": str(exc)}
    else:
        fit_payload = {
            "mean": fit.mean,
            "variance": fit.variance,
            "sample_count": fit.sample_count,
            "ks_statistic": fit.ks_statistic,
        }
    _write_json(out / "wtd_fit.json", fit_payload)

    currents = transduce(corpus.record, table)
    max_lag = _max_lag(params, corpus.sim)
    curve = clockstats.autocorrelation(currents, dt_rec, max_lag=max_lag)
    _write_csv(
        out / "autocorrelation.csv", ["lag", "value"], [curve.lags, curve.values]
    )

    density = corpus.position_density
    floor = float(np.trapezoid(density * table.column("shot_noise"), table.grid))
    spectrum = clockstats.power_spectrum(curve, floor)
    window = tuple(v * w0 for v in _SPECTRUM_WINDOW)
    peak_loc = peak_height = peak_width = line_fwhm = line_loc = None
    with contextlib.suppress(ValueError):
        peak_loc, peak_height = clockstats.spectrum_peak(spectrum, window)
    with contextlib.suppress(ValueError):
        peak_width = clockstats.spectrum_fwhm(spectrum, window)
    if peak_loc is not None:
        with contextlib.suppress(ValueError):
            line_fwhm, line_loc = clockstats.linewidth_fit(curve, peak_loc)

    entropy_tick = clockstats.entropy_per_tick(params, density, table, resolution)

    # The admissible window range is set by the sparsest member's tick span,
    # not the nominal recording length (the last tick lands short of the end).
    usable = [ts for ts in tick_series if ts.tick_times.size >= 2]
    try:
        span = min(float(ts.tick_times[-1]) for ts in usable)
        T_grid = clockstats.default_allan_grid(
            mean_wait, span, per_decade=_ALLAN_PER_DECADE
        )
        allan = ensemble_allan(usable, mean_wait, T_grid)
    except ValueError:
        allan = []
    T = np.array([row[0] for row in allan])
    val = np.array([row[1] for row in allan])
    renewal = np.array(
        [clockstats.renewal_allan_asymptote(mean_wait, accuracy, t) for t, _ in allan]
    )
    _write_csv(
        out / "allan.csv", ["window", "allan_variance", "renewal"], [T, val, renewal]
    )

    info = _information_block(tick_series, waits)
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
        "shot_noise_floor": floor,
    }
    _write_json(out / "report.json", report)

    plots = {
        "spectrum.svg": dict(
            curves=[("power", spectrum.frequencies[1:], spectrum.values[1:])],
            title="current power spectrum",
            x_label="angular frequency",
            y_label="power",
            log_y=bool(np.all(spectrum.values[1:] > 0)),
        ),
        "autocorrelation.svg": dict(
            curves=[("C", curve.lags, curve.values)],
            title="current autocorrelation",
            x_label="lag",
            y_label="C",
        ),
    }
    if allan:
        keep = val > 0
        plots["allan.svg"] = dict(
            curves=[
                ("measured", T[keep], val[keep]),
                ("renewal", T, renewal),
            ],
            title="Allan variance",
            x_label="window",
            y_label="sigma_y^2",
            log_x=True,
            log_y=True,
        )
    if waits.size >= 2:
        hist = tickinfo.Histogram.from_samples(waits)
        plots["wtd.svg"] = dict(
            curves=[("waits", hist.midpoints, hist.masses / hist.bin_width)],
            title="waiting-time distribution",
            x_label="wait",
            y_label="density",
        )
    for name, plot in plots.items():
        line_plot(out / name, **plot)
    return report, list(plots)


def _information_block(tick_series, pooled_waits) -> dict:
    """KL divergence of n-tick sums from the independent-gap prediction,
    and wait-wait mutual information, where the data suffice."""
    per_member = [
        np.diff(ts.tick_times) for ts in tick_series if len(ts) >= 2
    ]
    out: dict = {"kl_orders": {}, "mutual_information": {}}
    if pooled_waits.size >= 200:
        base = tickinfo.Histogram.from_samples(pooled_waits)
        for n in _KL_ORDERS:
            sums = [tickinfo.n_sum_samples(w, n) for w in per_member if w.size >= n]
            if not sums:
                out["kl_orders"][str(n)] = None
                continue
            predicted = tickinfo.n_fold_convolution(base, n)
            measured = tickinfo.Histogram.from_samples(
                np.concatenate(sums), edges=predicted.edges, clip=True
            )
            out["kl_orders"][str(n)] = tickinfo.kl_divergence(measured, predicted)
    else:
        out["kl_orders"] = None
    for m in _MI_SEPARATIONS:
        values = [
            tickinfo.pairwise_mutual_information(w, m)
            for w in per_member
            if w.size > m + 1000
        ]
        out["mutual_information"][str(m)] = (
            float(np.mean(values)) if values else None
        )
    return out


def _write_manifest(out: Path, names, cfg, sim: SimConfig, parameter_fingerprint,
                    extra=None):
    """manifest.json: the config, seed and device, and the SHA-256 of each of
    ``names``, the files under ``out`` that the command wrote."""
    payload = {
        "config": {k: v for k, v in cfg.items() if k != "sweep"},
        "seed": sim.seed,
        "parameter_fingerprint": parameter_fingerprint,
        "artifacts": {name: _sha256(out / name) for name in names},
    }
    if extra:
        payload.update(extra)
    _write_json(out / "manifest.json", payload)


# ------------------------------------------------------------ subcommands --


def _max_lag(params, sim: SimConfig) -> int:
    """The last lag of the record that the current correlation reaches."""
    spacing = sim.time_step * sim.record_stride
    horizon = _MAX_LAG_PERIODS * 2.0 * math.pi
    return min(
        sim.recorded_samples // 2,
        int(round(horizon / (params.oscillator_frequency * spacing))),
    )


def _check_record_resolves_spectrum(params, sim: SimConfig) -> None:
    """The record's Nyquist frequency must exceed the spectrum window, and
    the record must hold a lag of the current correlation."""
    top = _SPECTRUM_WINDOW[1] * params.oscillator_frequency
    if math.pi / (sim.time_step * sim.record_stride) <= top:
        largest = math.ceil(math.pi / (sim.time_step * top)) - 1
        raise ConfigError(
            f"simulation.record_stride {sim.record_stride} puts the recorded Nyquist "
            f"frequency pi/(time_step*record_stride) at or below the spectrum window "
            f"top {top:g}; "
            + (f"record_stride may be at most {largest}" if largest >= 1
               else "no record_stride can: reduce simulation.time_step")
        )
    # past that check the horizon spans over 480 record spacings, so only a
    # record of one sample reaches no lag
    if _max_lag(params, sim) < 1:
        raise ConfigError(
            f"the stored record holds {sim.recorded_samples} sample(s), too few for "
            f"a lag of the current correlation; lengthen simulation.duration"
        )


def _prepare(args):
    if getattr(args, "threads", 1) < 1:  # only the stepping commands take it
        raise ConfigError(f"--threads must be an integer >= 1, not {args.threads}")
    cfg = load_config(args.config)
    params = build_params(cfg)
    sim = build_sim(cfg, args.seed)
    _check_record_resolves_spectrum(params, sim)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, out, params, sim


def cmd_coeffs(args) -> int:
    cfg, out, params, sim = _prepare(args)
    with _stage("coeffs"):
        table = stage_coeffs(cfg, params, out)
    print(f"coefficient table: {table.grid.size} nodes")
    return 0


def cmd_simulate(args) -> int:
    cfg, out, params, sim = _prepare(args)
    with _stage("coeffs"):
        table = stage_coeffs(cfg, params, out)
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
        report, _ = stage_analyze(corpus, out)
    print(
        f"accuracy {report['accuracy']:.4g}, resolution {report['resolution']:.4g}, "
        f"entropy/tick {report['entropy_per_tick']:.4g}"
    )
    return 0


# the files every run writes, besides the plots stage_analyze names
_RUN_FILES = ("coeffs.npz", "ensemble.npz", "ticks.csv", "ticks.json", "wtd_fit.json",
              "autocorrelation.csv", "allan.csv", "info.json", "report.json")


def _run_pipeline(cfg, out: Path, params, sim, threads: int):
    """Every stage into ``out`` and its manifest; returns the report and the
    names of the files written."""
    with _stage("coeffs"):
        table = stage_coeffs(cfg, params, out)
    with _stage("simulate"):
        corpus = stage_simulate(cfg, params, table, sim, out, threads)
    with _stage("ticks"):
        stage_ticks(corpus, out)
    with _stage("analyze"):
        report, plots = stage_analyze(corpus, out)
    written = [*_RUN_FILES, *plots]
    _write_manifest(out, written, cfg, sim, fingerprint(params))
    return report, written


def cmd_run(args) -> int:
    cfg, out, params, sim = _prepare(args)
    report, _ = _run_pipeline(cfg, out, params, sim, args.threads)
    print(
        f"run complete: accuracy {report['accuracy']:.4g}, "
        f"resolution {report['resolution']:.4g}"
    )
    return 0


# the report.json values summary.csv holds for each voltage
_SUMMARY_KEYS = ("mean_wait", "accuracy", "resolution", "entropy_per_tick")


def cmd_sweep(args) -> int:
    cfg, out, _, sim = _prepare(args)
    if cfg["sweep"] is None:
        raise ConfigError("sweep subcommand needs a sweep section")
    rows, fingerprints, written = [], {}, ["summary.csv"]
    for voltage in cfg["sweep"]["voltages"]:
        sub_cfg = json.loads(json.dumps(cfg))
        sub_cfg["system"]["voltage"] = float(voltage)
        sub_cfg["sweep"] = None
        sub_params = build_params(sub_cfg)
        sub_out = out / f"V={voltage:g}"
        sub_out.mkdir(parents=True, exist_ok=True)
        report, names = _run_pipeline(sub_cfg, sub_out, sub_params, sim, args.threads)
        fingerprints[sub_out.name] = fingerprint(sub_params)
        written += [f"{sub_out.name}/{name}" for name in names]
        rows.append((float(voltage), *(report[key] for key in _SUMMARY_KEYS)))
        print(f"V={voltage:g} done: accuracy {report['accuracy']:.4g}")
    _write_csv(out / "summary.csv", ["voltage", *_SUMMARY_KEYS], list(zip(*rows)))
    # each V=<v> directory's device, as its own manifest names it
    _write_manifest(out, written, cfg, sim, fingerprints, extra={"kind": "sweep"})
    return 0


# ------------------------------------------------------------------- main --


# the commands that run the stepper, and so the only ones with --threads
_STEPPING = ("simulate", "run", "sweep")


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
    }
    for name, handler in handlers.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        if name in _STEPPING:
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
