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
``--threads`` sets the stepper's worker threads; coefficient tables are
built on the calling thread, because their quadrature is, outside the
compiled panel rule, many small numpy operations that hold the GIL, so
more threads only contend for it.
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


def _number(value) -> bool:
    """A JSON number that is a finite double; true and false are not numbers."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _list(value, each, length=None) -> bool:
    return (isinstance(value, (list, tuple)) and length in (None, len(value))
            and all(map(each, value)))


def _int_at_least(low: int):
    return (lambda v: type(v) is int and v >= low, f"an integer >= {low}")


# A kind is a (test, text) pair: a given value that fails the test is refused
# as "<dotted key> must be <text>, not <value>".
_NUMBER = (_number, "a finite number")
_POSITIVE = (lambda v: _number(v) and v > 0, "a number > 0")
_NONNEGATIVE = (lambda v: _number(v) and v >= 0, "a number >= 0")
_INTEGER = (lambda v: type(v) is int, "an integer")
_COUNT = _int_at_least(1)
_COUNTS = (lambda v: _list(v, _COUNT[0]), "a list of integers >= 1")

# Each section maps a key to (default, kind); a default of ... marks the key
# required, and a kind that is itself such a table marks a nested section.
_LEAD_KEYS = dict(
    band_center=(..., _NUMBER),
    bandwidth=(..., _POSITIVE),
    peak_rate=(..., _POSITIVE),
    chemical_potential=(..., _NUMBER),
)
_SYSTEM_KEYS = dict(
    voltage=(None, _NUMBER),
    coupling=(0.5, _NUMBER),
    inverse_temperature=(0.1, _POSITIVE),
    dot_energy=(0.0, _NUMBER),
    band_center=(2.5, _NUMBER),
    bandwidth=(5.0, _POSITIVE),
    peak_rate=(10.0, _POSITIVE),
    left=(None, _LEAD_KEYS),
    right=(None, _LEAD_KEYS),
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
_ANALYSIS_KEYS = dict(
    max_lag_periods=(100.0, _POSITIVE),
    spectrum_window=(
        (1.6, 2.4),
        (lambda v: _list(v, _number, 2) and 0 < v[0] < v[1],
         "two numbers 0 < low < high"),
    ),
    allan_per_decade=(20, _COUNT),
    mi_separations=((1, 100), _COUNTS),
    kl_orders=((2, 4, 8), _COUNTS),
    make_plots=(True, (lambda v: type(v) is bool, "true or false")),
)
_CYCLE_KEYS = dict(
    amplitude=(..., _POSITIVE),
    amplitude_damping=(..., _POSITIVE),
    amplitude_diffusion=(..., _NONNEGATIVE),
    phase_diffusion=(..., _NONNEGATIVE),
)
_TOY_KEYS = dict(
    type=(..., (lambda v: type(v) is str, "a string")),
    duration=(..., _POSITIVE),
    time_step=(..., _POSITIVE),
    seed=(0, _INTEGER),
    frequency=(1.0, _NUMBER),
    cycle=(None, _CYCLE_KEYS),
    rates=(None, (lambda v: _list(v, _POSITIVE[0], 2), "two numbers > 0")),
    levels=(None, (lambda v: _list(v, _number, 2), "two numbers")),
    offset=(0.0, _NUMBER),
    baseline=(0.0, _NUMBER),
)
_CONFIG_KEYS = dict(
    version=(..., _INTEGER),
    system=(..., _SYSTEM_KEYS),
    grid=({}, _GRID_KEYS),
    simulation=({}, _SIM_KEYS),
    detection=({}, _DETECTION_KEYS),
    analysis=({}, _ANALYSIS_KEYS),
    sweep=(None, dict(voltages=(..., (lambda v: _list(v, _number) and len(v) > 0,
                                      "a non-empty list of numbers")))),
    toymodel=(None, _TOY_KEYS),
)


def _take(mapping, section: str, table: dict) -> dict:
    """Checked copy of a config section, with its nested sections.  Unknown
    keys are errors, missing keys take their defaults, and JSON null stands
    for a missing key only where the default is None.  Every value given is
    checked against its kind; the defaults are not."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"section {section!r} must be an object")
    unknown = sorted(set(mapping) - set(table))
    if unknown:
        raise ConfigError(f"unknown keys in {section!r}: {', '.join(unknown)}")
    prefix = "" if section == "config" else f"{section}."
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
    system = cfg["system"]
    explicit = system["left"] is not None or system["right"] is not None
    if explicit and not (system["left"] and system["right"]):
        raise ConfigError("explicit leads need both system.left and system.right")
    if explicit and system["voltage"] is not None:
        raise ConfigError("give either system.voltage or explicit leads, not both")
    if not explicit and system["voltage"] is None:
        raise ConfigError("system needs a voltage (or explicit leads)")
    if cfg["sweep"] is not None:
        labels = [f"V={v:g}" for v in cfg["sweep"]["voltages"]]
        twice = sorted({label for label in labels if labels.count(label) > 1})
        if twice:
            raise ConfigError(f"sweep.voltages name the directory {', '.join(twice)} twice")
    return cfg


def build_params(cfg: dict) -> SystemParams:
    s = cfg["system"]
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


_CSV_CHUNK = 1024  # rows formatted per write, so no full-size value list


def _write_csv(path, header, columns) -> None:
    """Write equal-length 1-D ``columns`` under ``header``: a float as
    ``repr(float(v))``, the shortest text that reads back to the same
    double, and an integer as ``str``.  Each chunk of rows is one ``%r``
    format over the columns' ``.tolist()`` values."""
    columns = [np.asarray(c) for c in columns]
    n_rows = columns[0].shape[0]
    if any(c.shape != (n_rows,) for c in columns):
        raise ValueError("CSV columns must be 1-D and of equal length")
    width = len(columns)
    row = ",".join(["%r"] * width) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, _CSV_CHUNK):
            stop = min(start + _CSV_CHUNK, n_rows)
            values = [None] * ((stop - start) * width)
            for j, c in enumerate(columns):
                values[j::width] = c[start:stop].tolist()
            fh.write((row * (stop - start)) % tuple(values))


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
            cached = CoefficientTable.load(cache)
        except Exception:
            note = "rebuilt (corrupt)"
        else:
            if cached.params_hash == expected:
                return cached, "hit"
            note = "rebuilt (stale)"
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


def stage_analyze(cfg, corpus: Corpus, out: Path) -> dict:
    """Clock statistics from the stored ensemble; writes the report set and
    returns the report.json payload.  The spectrum is only plotted: it is
    ``power_spectrum`` of autocorrelation.csv and ``shot_noise_floor``."""
    params, table = corpus.params, corpus.table
    tick_series = corpus.ticks
    a = cfg["analysis"]
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
    max_lag = _max_lag(cfg, params, corpus.sim)
    curve = clockstats.autocorrelation(currents, dt_rec, max_lag=max_lag)
    _write_csv(
        out / "autocorrelation.csv", ["lag", "value"], [curve.lags, curve.values]
    )

    density = corpus.position_density
    floor = float(np.trapezoid(density * table.column("shot_noise"), table.grid))
    spectrum = clockstats.power_spectrum(curve, floor)
    window = tuple(float(v) * w0 for v in a["spectrum_window"])
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
            mean_wait, span, per_decade=a["allan_per_decade"]
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

    info = _information_block(a, tick_series, waits)
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
            keep = val > 0
            line_plot(
                out / "allan.svg",
                [
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
            line_plot(
                out / "wtd.svg",
                [("waits", hist.midpoints, hist.masses / hist.bin_width)],
                title="waiting-time distribution",
                x_label="wait",
                y_label="density",
            )
    return report


def _information_block(a, tick_series, pooled_waits) -> dict:
    """KL divergence of n-tick sums from the independent-gap prediction,
    and wait-wait mutual information, where the data suffice."""
    per_member = [
        np.diff(ts.tick_times) for ts in tick_series if len(ts) >= 2
    ]
    out: dict = {"kl_orders": {}, "mutual_information": {}}
    if pooled_waits.size >= 200:
        base = tickinfo.Histogram.from_samples(pooled_waits)
        for n in a["kl_orders"]:
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


def _max_lag(cfg, params, sim: SimConfig) -> int:
    """The last lag of the record that the current correlation reaches."""
    spacing = sim.time_step * sim.record_stride
    horizon = cfg["analysis"]["max_lag_periods"] * 2.0 * math.pi
    return min(
        sim.recorded_samples // 2,
        int(round(horizon / (params.oscillator_frequency * spacing))),
    )


def _check_record_resolves_spectrum(cfg, params, sim: SimConfig) -> None:
    """The correlation horizon must reach a lag of the stored record, and the
    record's Nyquist frequency must exceed the spectrum window."""
    if _max_lag(cfg, params, sim) < 1:
        raise ConfigError(
            f"analysis.max_lag_periods {cfg['analysis']['max_lag_periods']:g} reaches "
            f"no lag of the record ({sim.recorded_samples} samples) for a spectrum"
        )
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
    if args.threads < 1:
        raise ConfigError(f"--threads must be an integer >= 1, not {args.threads}")
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
        list(zip(*rows)),
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
    seed = toy["seed"] if args.seed is None else args.seed

    def need_cycle():
        if toy["cycle"] is None:
            raise ConfigError(f"toymodel.type {toy['type']!r} needs a cycle section")
        return toymodels.ReducedCycle(**toy["cycle"])

    if round(toy["duration"] / toy["time_step"]) < 1:
        raise ConfigError(
            f"toymodel.duration {toy['duration']:g} is under half of "
            f"toymodel.time_step {toy['time_step']:g}: no step to take"
        )
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
        _write_csv(out / "toymodel.csv", ["time", "value"], [times, series])
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
