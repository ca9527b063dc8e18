"""Command-line pipeline: config validation, artifacts, determinism, reruns."""
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nemclock import cli, clockstats, langevin, pipeline, svgplot, tickinfo, transport
from nemclock.cli import ConfigError, build_params, load_config, stage_coeffs
from nemclock.params import default_params, fingerprint
from nemclock.transport import friction_and_diffusion

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")

pytestmark = pytest.mark.filterwarnings("ignore::nemclock.params.AdiabaticityWarning")


def _write(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload))
    return path


def _base_config(**system) -> dict:
    return {"version": 1, "system": {"voltage": 5.0, **system}}


# one lead in the keys of the retired explicit-lead config
_LEAD = dict(band_center=2.5, bandwidth=5.0, peak_rate=10.0, chemical_potential=2.5)


@pytest.fixture(scope="module")
def pipeline_config() -> dict:
    """Small but complete operating point: below threshold, coarse grid."""
    params = default_params(5.0)
    gamma0, diffusion0 = friction_and_diffusion(0.0, params)
    spread = math.sqrt(diffusion0 / (2.0 * gamma0))
    return {
        "version": 1,
        "system": {"voltage": 5.0},
        "grid": {"x_max": 12.0 * spread, "nodes": 41},
        "simulation": {
            "burn_in": 10.0 * math.pi,
            "duration": 210.0 * math.pi,
            "seed": 9,
            "ensemble_size": 4,
            "record_stride": 2,
        },
    }


# ------------------------------------------------------------------ config --


def test_config_defaults_fill_in(tmp_path):
    cfg = load_config(_write(tmp_path / "c.json", _base_config()))
    assert cfg["simulation"]["time_step"] == pytest.approx(math.pi / 100.0)
    assert cfg["simulation"]["seed"] == 1
    assert cfg["detection"]["level"] is None
    assert cfg["detection"]["refractory"] == pytest.approx(0.25 * math.pi)
    assert cfg["sweep"] is None and "toymodel" not in cfg and "analysis" not in cfg


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda c: c.pop("version"), "missing required key"),
        (lambda c: c.update(version=2), "unsupported config version"),
        (lambda c: c.update(extra=1), "unknown keys in 'config'"),
        (lambda c: c["system"].update(tunnel=3), "unknown keys in 'system'"),
        (lambda c: c.update(system=7), "section 'system' must be an object"),
        (lambda c: c["system"].pop("voltage"), "missing required key 'system'.voltage"),
        (lambda c: c["system"].update(left=_LEAD), "unknown keys in 'system': left"),
        (lambda c: c.update(sweep={"voltages": []}), "non-empty"),
        (lambda c: c.update(sweep={"voltages": "56"}), "numbers, not '56'"),
        (lambda c: c.update(sweep={"voltages": 5}), "numbers, not 5"),
        (lambda c: c.update(sweep={"voltages": [5, 5.0]}), "V=5 twice"),
        (lambda c: c.update(sweep={"voltages": [100, 100.0000001]}), "V=100 twice"),
        # the retired analysis section is refused, echoing each key it sets
        (lambda c: c.update(analysis={"max_lag_periods": -1}), "max_lag_periods"),
        (lambda c: c.update(analysis={"kl_orders": [0]}), r"kl_orders .*\[0\]"),
        (lambda c: c.update(analysis={"kl_orders": [2.5]}), r"kl_orders .*\[2.5\]"),
        (lambda c: c.update(analysis={"mi_separations": [0]}), "mi_separations"),
        (lambda c: c.update(analysis={"allan_per_decade": 0}), "allan_per_decade"),
        (lambda c: c.update(detection={"refractory": -1}), r"refractory .*-1"),
        (lambda c: c.update(detection={"refractory": float("nan")}), "refractory"),
        (lambda c: c.update(analysis={"spectrum_window": [2.4, 1.6]}), "spectrum_window"),
        (lambda c: c.update(analysis={"spectrum_window": [0, 2.4]}), "spectrum_window"),
        (lambda c: c.update(analysis={"spectrum_window": [1.6]}), "spectrum_window"),
        (lambda c: c.update(analysis={"spectrum_window": ["1.6", 2.4]}), "spectrum_window"),
        (lambda c: c.update(simulation={"seed": 1.5}), r"seed .*1\.5"),
        (lambda c: c.update(simulation={"ensemble_size": 2.5}), r"ensemble_size .*2\.5"),
        (lambda c: c.update(simulation={"record_stride": 2.0}), "record_stride"),
        (lambda c: c.update(simulation={"seed": True}), "seed"),
        (lambda c: c.update(grid={"nodes": 41.7}), r"nodes .*41\.7"),
        (lambda c: c.update(toymodel={}), "unknown keys in 'config': toymodel"),
        (lambda c: c["system"].update(voltage=True), r"system\.voltage .*, not True"),
        (lambda c: c["system"].update(voltage=float("nan")), r"system\.voltage .*, not nan"),
        (lambda c: c["system"].update(coupling=True), r"system\.coupling .*, not True"),
        (lambda c: c.update(simulation={"time_step": True}),
         r"simulation\.time_step .*, not True"),
        (lambda c: c.update(simulation={"duration": float("inf")}),
         r"simulation\.duration .*, not inf"),
        (lambda c: c.update(grid={"x_max": True}), r"grid\.x_max .*, not True"),
        (lambda c: c.update(grid={"nodes": 2}), r"grid\.nodes .*>= 4, not 2"),
        (lambda c: c.update(detection={"level": True}), r"detection\.level .*, not True"),
        (lambda c: c.update(analysis={"make_plots": True}),
         "unknown keys in 'config': analysis"),
        (lambda c: c.update(version=True), r"version .*, not True"),
        (lambda c: c.update(simulation={"duration": "10"}),
         r"simulation\.duration .*, not '10'"),
    ],
)
def test_config_rejections(tmp_path, mangle, message):
    payload = _base_config()
    mangle(payload)
    with pytest.raises(ConfigError, match=message):
        load_config(_write(tmp_path / "bad.json", payload))


# every leaf key of the retired explicit leads and analysis section, with a
# value of the kind it once took
_RETIRED = {
    **{f"system.{side}.{key}": value
       for side in ("left", "right") for key, value in _LEAD.items()},
    "analysis.max_lag_periods": 100.0,
    "analysis.spectrum_window": [1.6, 2.4],
    "analysis.allan_per_decade": 20,
    "analysis.mi_separations": [1, 100],
    "analysis.kl_orders": [2, 4, 8],
    "analysis.make_plots": True,
}


@pytest.mark.parametrize("key", _RETIRED)
def test_retired_keys_are_refused(tmp_path, capsys, key):
    # refused by name, not ignored, and before anything is written
    *sections, leaf = key.split(".")
    payload = _base_config()
    section = payload
    for name in sections:
        section = section.setdefault(name, {})
    section[leaf] = _RETIRED[key]
    out = tmp_path / "out"
    cfg_path = str(_write(tmp_path / "c.json", payload))
    assert cli.main(["run", "--config", cfg_path, "--out", str(out)]) == 2
    where = "'system': " + sections[1] if sections[0] == "system" else "'config': analysis"
    assert f"unknown keys in {where}" in capsys.readouterr().err
    assert not out.exists()


def _declared_defaults(table, prefix=""):
    """(dotted key, default, kind) for every key of a section table, nested
    sections included, whose default is a value rather than None or ...."""
    for key, (default, kind) in table.items():
        if isinstance(kind, dict):
            yield from _declared_defaults(kind, f"{prefix}{key}.")
        elif default is not ... and default is not None:
            yield prefix + key, default, kind


def test_declared_defaults_pass_their_kinds():
    # load_config checks only the values a config gives, so a default that
    # broke its own kind would reach the pipeline unchecked
    defaults = list(_declared_defaults(cli._CONFIG_KEYS))
    assert "simulation.time_step" in [key for key, _, _ in defaults]
    assert "detection.refractory" in [key for key, _, _ in defaults]
    assert [(key, value) for key, value, (test, _) in defaults if not test(value)] == []


def _readme_config_id(block: str) -> str:
    """A README config's test id from its section keys, so that editing
    other blocks does not rename it; a block that is not JSON keeps a plain
    id and fails its load."""
    try:
        keys = [key for key in json.loads(block) if key != "version"]
    except (ValueError, TypeError):
        keys = ["unparsed"]
    return "README-" + "-".join(keys)


def _documented_configs():
    blocks = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks, "README.md holds no json config block"
    return [
        *[pytest.param(block, id=_readme_config_id(block)) for block in blocks],
        pytest.param(ROOT / "perfbench" / "run-v100.json", id="perfbench-run-v100"),
    ]


@pytest.mark.parametrize("config", _documented_configs())
def test_documented_configs_load(tmp_path, config):
    if not isinstance(config, Path):
        (tmp_path / "doc.json").write_text(config)
        config = tmp_path / "doc.json"
    load_config(config)


@pytest.mark.parametrize("voltage", [5.0, 50.0, 100.0])
def test_voltage_shorthand_is_the_reference_device(tmp_path, voltage):
    # the shorthand's defaults are default_params' device, field for field
    path = _write(tmp_path / "v.json", {"version": 1, "system": {"voltage": voltage}})
    assert build_params(load_config(path)) == default_params(voltage)


def test_config_read_failures(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "syntax.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)


# --------------------------------------------------------------- exit codes --


def test_main_config_error_is_exit_2(tmp_path, capsys):
    code = cli.main(
        ["run", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path)]
    )
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("threads", [0, -3])
def test_threads_below_one_is_exit_2(tmp_path, capsys, threads):
    cfg_path = _write(tmp_path / "c.json", _base_config())
    out = tmp_path / "out"
    args = ["simulate", "--config", str(cfg_path), "--out", str(out)]
    assert cli.main([*args, "--threads", str(threads)]) == 2
    assert f"--threads must be an integer >= 1, not {threads}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["coeffs", "ticks", "analyze"])
def test_threads_is_refused_where_no_stepper_runs(tmp_path, capsys, command):
    cfg_path = _write(tmp_path / "c.json", _base_config())
    out = tmp_path / "out"
    args = [command, "--config", str(cfg_path), "--out", str(out), "--threads", "2"]
    with pytest.raises(SystemExit) as info:
        cli.main(args)
    assert info.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not out.exists()


def test_toymodel_is_not_a_command(tmp_path, capsys):
    # the toy samplers are library functions; no command writes their paths
    cfg_path = _write(tmp_path / "c.json", _base_config())
    with pytest.raises(SystemExit) as info:
        cli.main(["toymodel", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert info.value.code == 2
    assert "invalid choice: 'toymodel'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "run", "sweep"])
def test_stepping_commands_take_threads(command):
    args = cli._parser().parse_args([command, "--config", "c.json", "--threads", "3"])
    assert args.threads == 3
    assert cli._parser().parse_args([command, "--config", "c.json"]).threads == 1


def test_main_numerical_failure_is_exit_3(tmp_path, capsys):
    # a grid far smaller than the dynamics guarantees an escape in `simulate`
    payload = {
        "version": 1,
        "system": {"voltage": 100.0},
        "grid": {"x_max": 1.0, "nodes": 9},
        "simulation": {
            "burn_in": math.pi,
            "duration": 20.0 * math.pi,
            "ensemble_size": 1,
        },
    }
    cfg_path = _write(tmp_path / "tiny.json", payload)
    code = cli.main(
        ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "[simulate]" in err


def test_duration_within_burn_in_is_exit_2(tmp_path, capsys):
    payload = {**_base_config(), "simulation": {"burn_in": 10.0, "duration": 10.0}}
    cfg_path = _write(tmp_path / "c.json", payload)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid simulation section: duration must exceed burn_in" in err
    assert not out.exists()


def test_out_naming_a_file_is_exit_3(tmp_path, capsys):
    cfg_path = _write(tmp_path / "c.json", _base_config())
    out = tmp_path / "out"
    out.write_text("not a directory")
    assert cli.main(["coeffs", "--config", str(cfg_path), "--out", str(out)]) == 3
    assert "i/o failure" in capsys.readouterr().err
    assert out.read_text() == "not a directory"


# -------------------------------------------------------------- csv writer --


def _per_row_csv(header, rows) -> str:
    """Oracle: every value written on its own, a float as repr(float(v)) and
    anything else as str(v)."""

    def fmt(value):
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        return str(value)

    lines = [",".join(header)] + [",".join(fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _hard_doubles() -> np.ndarray:
    """Doubles whose shortest digits or layout are easy to get wrong."""
    powers = [2.0**k for k in range(-1074, 1024)]
    # the boundary of the lowest interval, the asymmetric one at each power
    # of two, and the largest subnormal and its neighbours
    up = [math.nextafter(p, math.inf) for p in powers]
    subnormals = np.arange(1, 4097, dtype=np.uint64).view(np.float64)
    top_subnormals = (np.uint64(0x000FFFFFFFFFFFFF) - np.arange(64, dtype=np.uint64)).view(
        np.float64
    )
    switches = []
    for edge in (1e-4, 1e16):  # where repr's layout switches
        below = above = edge
        for _ in range(32):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            switches += [below, above]
        switches.append(edge)
    near_2_53 = [float(2**53 + i) for i in range(-64, 65)]
    ties = [float(f"{d}5e{k}") for d in range(1, 100) for k in range(-330, 310, 3)]
    pool = np.concatenate(
        [powers, up, subnormals, top_subnormals, switches, near_2_53, ties]
    )
    return np.concatenate([pool, -pool])


_SPECIAL = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5, 0.1,
            1e-4, 9999999999999998.0, 2.2250738585072014e-308, 1.7976931348623157e308,
            float(2**53 + 1), 1e23, 0.3, 5e-310, 2.5, 1234.5]


def _assert_both_writers_match(tmp_path, monkeypatch, header, columns):
    """The file ``_write_csv`` writes is ``_per_row_csv``'s, byte for byte,
    both from the compiled kernel and from the ``%r`` path it is held to."""
    expected = _per_row_csv(header, zip(*columns)).encode()
    cli._write_csv(tmp_path / "kernel.csv", header, columns)
    with monkeypatch.context() as mp:
        mp.setattr(cli.langevin, "csv_chunks", lambda columns, rows: None)
        cli._write_csv(tmp_path / "repr.csv", header, columns)
    assert (tmp_path / "kernel.csv").read_bytes() == expected
    assert (tmp_path / "repr.csv").read_bytes() == expected


@pytest.mark.parametrize(
    "n_rows", [0, 1, 17, cli._CSV_CHUNK, cli._CSV_CHUNK + 1, 3 * cli._CSV_CHUNK + 17]
)
def test_write_csv_matches_per_value_repr(tmp_path, monkeypatch, n_rows):
    rng = np.random.Generator(np.random.Philox(2))
    pool = np.concatenate(
        [_SPECIAL, rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)]
    )
    values = np.resize(pool, n_rows)
    columns = [
        np.arange(n_rows, dtype=np.int64) - 3,
        values,
        values[::-1],
    ]
    _assert_both_writers_match(tmp_path, monkeypatch, ["member", "a", "b"], columns)


def test_write_csv_writes_hard_doubles_as_repr(tmp_path, monkeypatch):
    values = _hard_doubles()
    extremes = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 0, 10**18])
    columns = [values, np.resize(extremes, values.size)]
    _assert_both_writers_match(tmp_path, monkeypatch, ["x", "n"], columns)


def _kernel_csv(columns) -> bytes:
    """The kernel's text of ``columns``, or a skip when it is unavailable."""
    chunks = cli.langevin.csv_chunks([np.asarray(c) for c in columns], cli._CSV_CHUNK)
    if chunks is None:
        pytest.skip("compiled kernel unavailable")
    return b"".join(bytes(chunk) for chunk in chunks)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_kernel_formats_any_bit_pattern_as_repr(words):
    values = np.array(words, dtype=np.uint64).view(np.float64)
    assert _kernel_csv([values]) == "".join(f"{v!r}\n" for v in values.tolist()).encode()


def test_kernel_formats_random_bit_patterns_as_repr():
    words = np.random.Generator(np.random.Philox(36)).integers(
        0, 2**64, 200_000, dtype=np.uint64, endpoint=False
    )
    values = words.view(np.float64)
    assert _kernel_csv([values]) == "".join(f"{v!r}\n" for v in values.tolist()).encode()


def test_kernel_formats_every_real_and_integer_dtype():
    # a narrower float is written as the double it widens to, as
    # repr(float(v)) writes it
    rng = np.random.Generator(np.random.Philox(4))
    columns = [
        rng.standard_normal(300).astype(np.float32),
        (rng.standard_normal(300) * 1e4).astype(np.float16),
        rng.integers(-(2**31), 2**31, 300).astype(np.int32),
        rng.integers(0, 2**32, 300).astype(np.uint32),
        rng.integers(0, 256, 300).astype(np.uint8),
    ]
    text = _kernel_csv(columns)
    assert text.decode() == _per_row_csv(["a"], zip(*columns)).split("\n", 1)[1]


@pytest.mark.parametrize(
    "column",
    [
        np.array([True, False, True]),
        np.array([0.1, None, 3], dtype=object),
        np.array([2**64 - 1, 0, 7], dtype=np.uint64),
    ],
    ids=["bool", "object", "uint64"],
)
def test_write_csv_takes_repr_for_other_columns(tmp_path, column):
    if cli.langevin._kernel() is None:
        pytest.skip("compiled kernel unavailable")
    floats = np.array([0.1, -0.0, 1e-5])
    assert cli.langevin.csv_chunks([floats, column], cli._CSV_CHUNK) is None
    cli._write_csv(tmp_path / "t.csv", ["x", "c"], [floats, column])
    expected = _per_row_csv(["x", "c"], zip(floats, column.tolist()))
    assert (tmp_path / "t.csv").read_bytes() == expected.encode()


def _csv_bytes(path: Path, columns) -> bytes:
    cli._write_csv(path, ["t", "a", "b"], columns)
    return path.read_bytes()


def _hard_columns():
    values = _hard_doubles()
    return [np.arange(values.size), values, values[::-1]]


def test_write_csv_with_the_kernel_off_writes_the_same_bytes(tmp_path, monkeypatch):
    if cli.langevin._kernel() is None:
        pytest.skip("compiled kernel unavailable")
    compiled = _csv_bytes(tmp_path / "k.csv", _hard_columns())

    def broken():
        raise OSError("kernel forced off")

    monkeypatch.setattr(cli.langevin, "_load_kernel", broken)
    monkeypatch.setattr(cli.langevin, "_compiled", {})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = _csv_bytes(tmp_path / "a.csv", _hard_columns())
        second = _csv_bytes(tmp_path / "b.csv", _hard_columns())
    assert [str(w.message) for w in caught if w.category is RuntimeWarning] == [
        "compiled kernel unavailable (kernel forced off); falling back to the NumPy "
        "step loop (about 200x slower), spline evaluation, histogram and tick feeds, "
        "transport pole sums, and repr for CSV numbers"
    ]
    assert first == second == compiled


def test_write_csv_with_a_wrong_formatter_table_writes_the_same_bytes(tmp_path, monkeypatch):
    # the formatter checks its own text against repr before its first use
    if cli.langevin._kernel() is None:
        pytest.skip("compiled kernel unavailable")
    compiled = _csv_bytes(tmp_path / "k.csv", _hard_columns())
    pow5, pow5_inv = cli.langevin._pow5_tables()
    monkeypatch.setattr(cli.langevin, "_pow5_tables", lambda: (pow5, pow5_inv[::-1].copy()))
    monkeypatch.setattr(cli.langevin, "_compiled", {"kernel": cli.langevin._kernel()})
    with pytest.warns(RuntimeWarning, match=r"CSV formatter unavailable \(its text differs"):
        fallback = _csv_bytes(tmp_path / "f.csv", _hard_columns())
    assert fallback == compiled


@pytest.mark.parametrize("kernel", ["on", "off"])
@pytest.mark.parametrize(
    "column",
    [np.array([0.1, 2.5], dtype=np.longdouble), np.array([1 + 2j, -0.5j])],
    ids=["longdouble", "complex"],
)
def test_write_csv_refuses_longdouble_and_complex_columns(tmp_path, monkeypatch, kernel,
                                                          column):
    # repr would write np.longdouble('0.1') and (1+2j)
    if kernel == "on" and cli.langevin._kernel() is None:
        pytest.skip("compiled kernel unavailable")
    if kernel == "off":
        monkeypatch.setattr(cli.langevin, "_kernel", lambda: None)
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=f"CSV column 'c' has dtype {column.dtype},"):
        cli._write_csv(path, ["x", "c"], [np.array([0.1, 0.2]), column])
    assert not path.exists()


def test_write_csv_refuses_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="equal length"):
        cli._write_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros(3), np.zeros(2)])
    with pytest.raises(ValueError, match="equal length"):
        cli._write_csv(tmp_path / "t.csv", ["a"], [np.zeros((3, 2))])


def test_write_csv_refuses_a_header_that_does_not_name_every_column(tmp_path):
    with pytest.raises(ValueError, match="header names 3 columns, but 1 are given"):
        cli._write_csv(tmp_path / "t.csv", ["a", "b", "c"], [np.arange(3.0)])
    with pytest.raises(ValueError, match="header names 1 columns, but 2 are given"):
        cli._write_csv(tmp_path / "t.csv", ["a"], [np.arange(3.0), np.arange(3.0)])
    with pytest.raises(ValueError, match="at least one column"):
        cli._write_csv(tmp_path / "t.csv", [], [])
    assert not (tmp_path / "t.csv").exists()


# ------------------------------------------------------------ full pipeline --

EXPECTED_FILES = {
    "coeffs.npz",
    "ensemble.npz",
    "ticks.csv",
    "ticks.json",
    "wtd_fit.json",
    "autocorrelation.csv",
    "allan.csv",
    "info.json",
    "report.json",
    "manifest.json",
    "spectrum.svg",
    "autocorrelation.svg",
    "wtd.svg",
}


def _run(config_path: Path, out: Path, threads: int = 1) -> int:
    return cli.main(
        [
            "run",
            "--config",
            str(config_path),
            "--out",
            str(out),
            "--threads",
            str(threads),
        ]
    )


def test_run_produces_complete_artifact_set(tmp_path, pipeline_config, capsys):
    cfg_path = _write(tmp_path / "cfg.json", pipeline_config)
    out = tmp_path / "out"
    assert _run(cfg_path, out) == 0
    assert "run complete" in capsys.readouterr().out

    names = {p.name for p in out.iterdir()}
    assert EXPECTED_FILES <= names
    # member 0's record is in ensemble.npz, the waits are ticks.csv's gaps and
    # the spectrum is autocorrelation.csv's transform
    assert not {"trajectory.csv", "wtd.csv", "spectrum.csv"} & names
    with np.load(out / "ensemble.npz") as data:
        assert set(data.files) == {
            "positions", "provenance", "tick_times", "tick_counts",
            "position_density", "position_count",
        }

    report = json.loads((out / "report.json").read_text())
    assert report["mean_wait"] > 0
    assert report["resolution"] > 0
    assert report["accuracy"] > 0
    assert report["tick_count"] > 100
    assert report["entropy_per_tick"] > 0
    # symmetric transduction responds at twice the oscillation frequency
    assert 1.6 <= report["spectrum_peak"]["location"] <= 2.4

    ticks_meta = json.loads((out / "ticks.json").read_text())
    assert len(ticks_meta["counts"]) == 4
    assert all(c > 0 for c in ticks_meta["counts"])

    info = json.loads((out / "info.json").read_text())
    assert set(info) == {"kl_orders", "mutual_information"}
    assert set(info["kl_orders"]) == {"2", "4", "8"}
    assert all(v >= 0 for v in info["kl_orders"].values())
    # members are far too short for the wait-wait information estimate
    assert info["mutual_information"] == {"1": None, "100": None}

    allan_rows = (out / "allan.csv").read_text().splitlines()
    assert allan_rows[0] == "window,allan_variance,renewal"
    assert len(allan_rows) > 10

    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"config", "seed", "parameter_fingerprint", "artifacts"}
    assert manifest["seed"] == 9
    assert set(manifest["artifacts"]) == names - {"manifest.json"}
    assert manifest["config"]["system"]["voltage"] == 5.0
    assert "sweep" not in manifest["config"]


def test_run_is_bit_identical_across_threads(tmp_path, pipeline_config):
    cfg_path = _write(tmp_path / "cfg.json", pipeline_config)
    serial = tmp_path / "serial"
    threaded = tmp_path / "threaded"
    assert _run(cfg_path, serial, threads=1) == 0
    assert _run(cfg_path, threaded, threads=4) == 0
    for path in sorted(serial.iterdir()):
        assert (threaded / path.name).read_bytes() == path.read_bytes(), path.name

    # a rerun in place rewrites every file verbatim, the manifest included
    assert _run(cfg_path, serial, threads=2) == 0
    assert {p.name for p in serial.iterdir()} == {p.name for p in threaded.iterdir()}
    for path in sorted(threaded.iterdir()):
        assert (serial / path.name).read_bytes() == path.read_bytes(), path.name


def test_run_does_not_depend_on_the_blas_pool(tmp_path, pipeline_config):
    # the caller's OPENBLAS_NUM_THREADS, which outranks GOTO_NUM_THREADS and
    # OMP_NUM_THREADS, sets the pool: one thread and two write the same bytes
    cfg_path = _write(tmp_path / "cfg.json", pipeline_config)
    one, two = tmp_path / "blas1", tmp_path / "blas2"
    for count, out in (("1", one), ("2", two)):
        proc = subprocess.run(
            [sys.executable, "-m", "nemclock", "run",
             "--config", str(cfg_path), "--out", str(out)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "OPENBLAS_NUM_THREADS": count, "PYTHONPATH": os.pathsep.join(
                filter(None, [SRC, os.environ.get("PYTHONPATH")]))},
        )
        assert proc.returncode == 0, proc.stderr
    assert {p.name for p in one.iterdir()} == {p.name for p in two.iterdir()}
    assert (one / "manifest.json").is_file()
    for path in sorted(one.iterdir()):
        assert (two / path.name).read_bytes() == path.read_bytes(), path.name


def test_staged_commands_match_run(tmp_path, pipeline_config, capsys):
    cfg_path = _write(tmp_path / "cfg.json", pipeline_config)
    whole = tmp_path / "whole"
    staged = tmp_path / "staged"
    assert _run(cfg_path, whole) == 0
    base = ["--config", str(cfg_path), "--out", str(staged)]
    assert cli.main(["coeffs", *base]) == 0
    assert "coefficient table: 41 nodes" in capsys.readouterr().out
    assert cli.main(["simulate", *base]) == 0
    assert cli.main(["ticks", *base]) == 0
    assert "detected" in capsys.readouterr().out
    assert cli.main(["analyze", *base]) == 0
    for name in ("ensemble.npz", "ticks.csv", "report.json", "autocorrelation.csv"):
        assert (staged / name).read_bytes() == (whole / name).read_bytes(), name


def test_ensemble_npz_is_written_as_savez_writes_it(tmp_path, pipeline_config):
    # each array goes from its own buffer into the zip member, byte for byte
    # as np.savez writes it after copying the array into one bytes object
    arrays = dict(
        positions=np.random.default_rng(3).standard_normal((4, 1001)),
        provenance=np.frombuffer(b'{"seed": 9}', dtype=np.uint8),
        tick_times=np.empty(0),
        tick_counts=np.zeros(4, dtype=np.int64),
        position_density=np.linspace(0.0, 1.0, 41),
        position_count=np.array([4004], dtype=np.int64),
    )
    cli._write_npz(tmp_path / "ours.npz", arrays)
    np.savez(tmp_path / "savez.npz", **arrays)
    assert (tmp_path / "ours.npz").read_bytes() == (tmp_path / "savez.npz").read_bytes()
    # the file simulate writes, and what analyze reads back from it
    cfg_path = _write(tmp_path / "cfg.json", pipeline_config)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    with np.load(out / "ensemble.npz") as data:
        stored = {name: data[name] for name in data.files}
    np.savez(tmp_path / "again.npz", **stored)
    assert (out / "ensemble.npz").read_bytes() == (tmp_path / "again.npz").read_bytes()
    cfg = load_config(cfg_path)
    corpus = cli._load_corpus(cfg, build_params(cfg), cli.build_sim(cfg), out)
    assert np.array_equal(corpus.record.positions, stored["positions"])
    assert np.array_equal(np.concatenate([ts.tick_times for ts in corpus.ticks]),
                          stored["tick_times"])
    assert np.array_equal(corpus.position_density, stored["position_density"])


@pytest.mark.parametrize("size", [0, 1, 2**16 - 1, 2**16, 2**16 + 1, 200_000])
def test_manifest_digest_is_the_sha256_of_the_file(tmp_path, size):
    data = np.random.default_rng(size).bytes(size)
    (tmp_path / "file").write_bytes(data)
    assert cli._sha256(tmp_path / "file") == hashlib.sha256(data).hexdigest()


def test_run_holds_one_record_and_a_few_transform_rows(tmp_path):
    # a run keeps the position record alone (no velocities, no copy for
    # ensemble.npz, currents transduced into it) plus scratch of a few rows
    # of the current correlation's transform
    if langevin._kernel() is None:
        pytest.skip("the NumPy spline evaluation transduces through record-sized temporaries")
    config = {
        "version": 1,
        "system": {"voltage": 5.0},
        "grid": {"nodes": 41},
        "simulation": {"duration": 2000.0, "ensemble_size": 16, "record_stride": 1},
    }
    cfg_path = _write(tmp_path / "cfg.json", config)
    cfg = load_config(cfg_path)
    params, sim = build_params(cfg), cli.build_sim(cfg)
    record_bytes = 8 * sim.ensemble_size * sim.recorded_samples
    row_bytes = 8 * tickinfo.next_fast_len(sim.recorded_samples + cli._max_lag(params, sim))
    assert record_bytes > 10 * row_bytes
    tracemalloc.start()
    try:
        assert _run(cfg_path, tmp_path / "out") == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < record_bytes + 6 * row_bytes


def test_spectrum_rebuilds_from_autocorrelation_and_floor(
    tmp_path, pipeline_config, monkeypatch
):
    spectra, transform = [], clockstats.power_spectrum

    def recorded(*args):
        spectra.append(transform(*args))
        return spectra[-1]

    monkeypatch.setattr(clockstats, "power_spectrum", recorded)
    out = tmp_path / "out"
    assert _run(_write(tmp_path / "cfg.json", pipeline_config), out) == 0
    lags, values = np.loadtxt(out / "autocorrelation.csv", delimiter=",", skiprows=1, unpack=True)
    floor = json.loads((out / "report.json").read_text())["shot_noise_floor"]
    rebuilt = transform(clockstats.CorrelationCurve(lags, values), floor)
    (held,) = spectra
    assert held.floor == floor
    np.testing.assert_array_equal(rebuilt.frequencies, held.frequencies)
    np.testing.assert_array_equal(rebuilt.values, held.values)


def test_ensemble_with_times_and_velocities_analyzes_the_same(tmp_path, pipeline_config):
    # an ensemble.npz from before the record dropped its times and velocities
    cfg_path = _write(tmp_path / "cfg.json", pipeline_config)
    new, old = tmp_path / "new", tmp_path / "old"
    assert _run(cfg_path, new) == 0
    old.mkdir()
    (old / "coeffs.npz").write_bytes((new / "coeffs.npz").read_bytes())
    with np.load(new / "ensemble.npz") as data:
        arrays = dict(data)
    sim = cli.build_sim(load_config(cfg_path))
    np.savez(old / "ensemble.npz", times=sim.record_times(),
             velocities=-arrays["positions"], **arrays)
    assert cli.main(["analyze", "--config", str(cfg_path), "--out", str(old)]) == 0
    written = {p.name for p in old.iterdir()}
    assert written == {p.name for p in new.iterdir()} - {"manifest.json"}
    for name in sorted(written - {"ensemble.npz"}):
        assert (old / name).read_bytes() == (new / name).read_bytes(), name


def test_results_do_not_depend_on_record_stride(tmp_path, pipeline_config):
    # ticks and the statistics built on them come from every full-rate state
    outs = []
    for stride in (1, 5):
        payload = json.loads(json.dumps(pipeline_config))
        payload["simulation"]["record_stride"] = stride
        outs.append(tmp_path / f"stride{stride}")
        assert _run(_write(tmp_path / f"cfg{stride}.json", payload), outs[-1]) == 0
    for name in (
        "ticks.csv",
        "ticks.json",
        "wtd_fit.json",
        "allan.csv",
        "info.json",
    ):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    # the spectrum comes from the strided current record; the rest does not
    reports = [json.loads((out / "report.json").read_text()) for out in outs]
    for key in ("mean_wait", "accuracy", "resolution", "entropy_per_tick", "tick_count"):
        assert reports[0][key] == reports[1][key], key


def test_stride_that_cannot_resolve_spectrum_fails_before_coeffs(tmp_path, capsys):
    bench = Path(__file__).resolve().parents[1] / "perfbench" / "run-v100.json"
    payload = json.loads(bench.read_text())
    payload["simulation"]["record_stride"] = 100
    out = tmp_path / "out"
    assert _run(_write(tmp_path / "cfg.json", payload), out) == 2
    err = capsys.readouterr().err
    # pi/(dt*41) = 2.44 > 2.4*w0 >= pi/(dt*42) at dt = pi/100
    assert "record_stride" in err and "at most 41" in err
    assert not (out / "coeffs.npz").exists()


def test_ticks_after_detection_edit_needs_fresh_simulate(
    tmp_path, pipeline_config, capsys
):
    cfg_path = _write(tmp_path / "cfg.json", pipeline_config)
    out = tmp_path / "out"
    assert _run(cfg_path, out) == 0
    for key, value in (("refractory", 0.3 * math.pi), ("level", 0.5)):
        edited = json.loads(json.dumps(pipeline_config))
        edited["detection"] = {key: value}
        base = ["--config", str(_write(tmp_path / f"{key}.json", edited))]
        for command in ("ticks", "analyze"):
            capsys.readouterr()
            assert cli.main([command, *base, "--out", str(out)]) == 2
            assert "re-run simulate" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, edit, flags, named",
    [
        ("ticks", lambda c: None, ["--seed", "77"], "simulation.seed 9"),
        (
            "analyze",
            lambda c: c["system"].update(voltage=6.0),
            [],
            "system.left.chemical_potential 2.5",
        ),
        (
            "analyze",
            lambda c: c["simulation"].update(ensemble_size=2),
            [],
            "simulation.ensemble_size 4",
        ),
        (
            "ticks",
            lambda c: c["simulation"].update(
                burn_in=20.0 * math.pi, duration=220.0 * math.pi
            ),
            [],
            "simulation.burn_in",
        ),
        # one more step than a record_stride of 2 can show: the same samples
        (
            "ticks",
            lambda c: c["simulation"].update(
                duration=210.0 * math.pi + math.pi / 100.0
            ),
            [],
            "simulation.duration",
        ),
    ],
    ids=["seed", "voltage", "members", "burn_in", "duration"],
)
def test_ensemble_from_another_config_needs_fresh_simulate(
    tmp_path, pipeline_config, capsys, command, edit, flags, named
):
    out = tmp_path / "out"
    cfg_path = _write(tmp_path / "cfg.json", pipeline_config)
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    edited = json.loads(json.dumps(pipeline_config))
    edit(edited)
    capsys.readouterr()
    base = ["--config", str(_write(tmp_path / "edited.json", edited)), "--out", str(out)]
    assert cli.main([command, *base, *flags]) == 2
    err = capsys.readouterr().err
    assert named in err and "re-run simulate" in err
    assert not (out / "ticks.csv").exists()


@pytest.mark.parametrize("command", ["ticks", "analyze"])
def test_hand_off_without_simulate_is_config_error(tmp_path, pipeline_config, capsys, command):
    out = tmp_path / "out"
    cfg_path = _write(tmp_path / "cfg.json", pipeline_config)
    assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "ensemble.npz" in err and "run simulate first" in err


def test_refused_hand_off_leaves_coefficient_cache(tmp_path, pipeline_config, capsys):
    out = tmp_path / "out"
    cfg_path = _write(tmp_path / "cfg.json", pipeline_config)
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    stored = (out / "coeffs.npz").read_bytes()
    edited = json.loads(json.dumps(pipeline_config))
    edited["system"]["voltage"] = 6.0
    edited_path = _write(tmp_path / "edited.json", edited)
    assert cli.main(["analyze", "--config", str(edited_path), "--out", str(out)]) == 2
    assert (out / "coeffs.npz").read_bytes() == stored
    # the directory still serves the config it was simulated with
    assert cli.main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "coeffs.npz").read_bytes() == stored


def test_hand_off_builds_no_grid_or_table(tmp_path, pipeline_config, monkeypatch):
    payload = json.loads(json.dumps(pipeline_config))
    payload["grid"] = {"nodes": 41}
    cfg_path = _write(tmp_path / "cfg.json", payload)
    out = tmp_path / "out"
    base = ["--config", str(cfg_path), "--out", str(out)]
    assert cli.main(["simulate", *base]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("the hand-off must not build a grid or a table")

    for module in (cli, pipeline):
        monkeypatch.setattr(module, "default_grid", refuse)
    for module in (cli, pipeline, transport):
        monkeypatch.setattr(module, "build_coefficient_table", refuse)
    assert cli.main(["ticks", *base]) == 0
    assert cli.main(["analyze", *base]) == 0
    assert (out / "report.json").exists()


def test_ensemble_without_streamed_evidence_is_stage_failure(
    tmp_path, pipeline_config, capsys
):
    cfg_path = _write(tmp_path / "cfg.json", pipeline_config)
    out = tmp_path / "out"
    assert _run(cfg_path, out) == 0
    # the five arrays an ensemble.npz held before ticks were stored with it
    with np.load(out / "ensemble.npz") as data:
        positions = data["positions"]
    times = cli.build_sim(load_config(cfg_path)).record_times()
    arrays = dict(times=times, positions=positions, velocities=np.zeros_like(positions))
    seed = np.array([pipeline_config["simulation"]["seed"]], dtype=np.int64)
    stride = np.array([pipeline_config["simulation"]["record_stride"]], dtype=np.int64)
    np.savez(out / "ensemble.npz", **arrays, seed=seed, record_stride=stride)
    base = ["--config", str(cfg_path), "--out", str(out)]
    for command in ("ticks", "analyze"):
        capsys.readouterr()
        assert cli.main([command, *base]) == 3
        err = capsys.readouterr().err
        assert f"[{command}]" in err and "re-run simulate" in err


@pytest.mark.parametrize(
    "name, edit",
    [
        ("tick_counts", lambda a: np.append(a[:-1], a[-1] - 5)),
        ("tick_counts", lambda a: a[:-1]),
        ("positions", lambda a: a[:, :100]),
        ("tick_times", lambda a: None),
        ("position_count", lambda a: a[:0]),
    ],
    ids=["count-lowered", "count-dropped", "positions-cut", "ticks-deleted",
         "position-count-emptied"],
)
def test_ensemble_with_disagreeing_arrays_is_stage_failure(
    tmp_path, pipeline_config, capsys, name, edit
):
    cfg_path = _write(tmp_path / "cfg.json", pipeline_config)
    out = tmp_path / "out"
    assert _run(cfg_path, out) == 0
    with np.load(out / "ensemble.npz") as data:
        arrays = dict(data)
    arrays[name] = edit(arrays[name])  # None deletes the array
    np.savez(out / "ensemble.npz", **{k: a for k, a in arrays.items() if a is not None})
    base = ["--config", str(cfg_path), "--out", str(out)]
    for command in ("ticks", "analyze"):
        capsys.readouterr()
        assert cli.main([command, *base]) == 3
        err = capsys.readouterr().err
        assert f"[{command}]" in err and name in err and "re-run simulate" in err


def test_spectrum_svg_draws_its_tallest_bin(tmp_path, pipeline_config):
    cfg_path = _write(tmp_path / "cfg.json", pipeline_config)
    out = tmp_path / "out"
    assert _run(cfg_path, out) == 0
    lags, values = np.loadtxt(out / "autocorrelation.csv", delimiter=",", skiprows=1).T
    floor = json.loads((out / "report.json").read_text())["shot_noise_floor"]
    spectrum = clockstats.power_spectrum(clockstats.CorrelationCurve(lags, values), floor)
    freqs, power = spectrum.frequencies[1:], spectrum.values[1:]
    svg = (out / "spectrum.svg").read_text()
    points = re.search(r'<polyline points="([^"]*)"', svg).group(1).split()
    px, py = np.array([p.split(",") for p in points], dtype=float).T
    assert px.size < freqs.size / 2  # the envelope thinned the curve
    # the drawn point nearest the top sits at the tallest bin's frequency,
    # read back from its pixel x to within a bin
    m = svgplot._MARGIN
    width = svgplot._WIDTH - m["left"] - m["right"]
    top = freqs[0] + (px[np.argmin(py)] - m["left"]) / width * (freqs[-1] - freqs[0])
    bin_width = freqs[1] - freqs[0]
    assert abs(top - freqs[np.argmax(power)]) < 0.5 * bin_width


def test_analyze_names_a_damaged_position_record(tmp_path, pipeline_config, capsys):
    cfg_path = _write(tmp_path / "cfg.json", pipeline_config)
    out = tmp_path / "out"
    assert _run(cfg_path, out) == 0
    with np.load(out / "ensemble.npz") as data:
        arrays = dict(data)
    arrays["positions"][1, 50] = np.nan
    np.savez(out / "ensemble.npz", **arrays)
    capsys.readouterr()
    assert cli.main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "[analyze] member 1 has x=nan at t=" in err
    assert "the record is damaged" in err and "enlarge" not in err


def test_seed_override_changes_artifacts(tmp_path, pipeline_config):
    cfg_path = _write(tmp_path / "cfg.json", pipeline_config)
    out = tmp_path / "out"
    assert _run(cfg_path, out) == 0
    baseline = (out / "ticks.csv").read_bytes()
    assert (
        cli.main(
            [
                "run",
                "--config",
                str(cfg_path),
                "--out",
                str(out),
                "--seed",
                "77",
            ]
        )
        == 0
    )
    assert (out / "ticks.csv").read_bytes() != baseline
    assert json.loads((out / "manifest.json").read_text())["seed"] == 77


# ------------------------------------------------------------------ reruns --


def _hold_table(tmp_path, pipeline_config, out, held):
    """Leave in ``out`` a coeffs.npz that is not the config's table."""
    if held == "not-an-archive":
        (out / "coeffs.npz").write_bytes(b"not an archive")
        return
    payload = json.loads(json.dumps(pipeline_config))
    if held == "other-voltage":
        payload["system"]["voltage"] = 6.0
    cfg = load_config(_write(tmp_path / "held.json", payload))
    params = build_params(cfg)
    table = stage_coeffs(cfg, params, out)
    if held == "quadrature-key":
        # the key of the quadrature tables, whose occupation column was off
        # by up to 2.7e-5
        old_key = fingerprint(params, extra={
            "rtol": 1e-8, "grid_sha": hashlib.sha256(table.grid.tobytes()).hexdigest(),
        })
        transport.CoefficientTable(table.grid, table.values, old_key).save(out / "coeffs.npz")


@pytest.mark.parametrize("held", ["other-voltage", "not-an-archive", "quadrature-key"])
def test_run_never_reads_the_coeffs_it_finds(tmp_path, pipeline_config, monkeypatch, held):
    cfg_path = _write(tmp_path / "cfg.json", pipeline_config)
    fresh, held_out = tmp_path / "fresh", tmp_path / "held"
    assert _run(cfg_path, fresh) == 0
    held_out.mkdir()
    _hold_table(tmp_path, pipeline_config, held_out, held)

    def refuse(*args, **kwargs):
        raise AssertionError("run must build its table, not load one")

    monkeypatch.setattr(transport.CoefficientTable, "load", refuse)
    assert _run(cfg_path, held_out) == 0
    assert {p.name for p in held_out.iterdir()} == {p.name for p in fresh.iterdir()}
    for path in sorted(fresh.iterdir()):
        assert (held_out / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("earlier", ["plots", "foreign-files"])
def test_manifest_lists_only_what_the_run_wrote(tmp_path, pipeline_config, earlier):
    # an earlier run's plots, or files nemclock never writes, stay out: the
    # later run's 2 periods are too short for any Allan window, so it draws
    # no allan.svg
    payload = json.loads(json.dumps(pipeline_config))
    payload["simulation"]["duration"] = 14.0 * math.pi
    cfg_path = _write(tmp_path / "cfg.json", payload)
    fresh, dirty = tmp_path / "fresh", tmp_path / "dirty"
    assert _run(cfg_path, fresh) == 0
    if earlier == "plots":
        assert _run(_write(tmp_path / "plots.json", pipeline_config), dirty) == 0
    else:
        (dirty / "notes").mkdir(parents=True)
        (dirty / "notes" / "manifest.json").write_text("{}")
        (dirty / "notes.txt").write_text("kept, not listed")
    assert _run(cfg_path, dirty) == 0
    assert not (fresh / "allan.svg").exists()
    assert (dirty / "manifest.json").read_bytes() == (fresh / "manifest.json").read_bytes()
    assert {p.name for p in dirty.iterdir()} > {p.name for p in fresh.iterdir()}


# -------------------------------------------------------------------- sweep --


def test_sweep_runs_each_voltage(tmp_path, pipeline_config):
    payload = json.loads(json.dumps(pipeline_config))
    payload["simulation"]["duration"] = 90.0 * math.pi
    payload["simulation"]["ensemble_size"] = 2
    # at V = 8 the mean wait and 1 / resolution differ in the last digit
    payload["sweep"] = {"voltages": [5.0, 8.0]}
    cfg_path = _write(tmp_path / "sweep.json", payload)
    out = tmp_path / "sweep_out"
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0

    for label in ("V=5", "V=8"):
        assert (out / label / "report.json").exists()
        assert (out / label / "manifest.json").exists()
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "voltage,mean_wait,accuracy,resolution,entropy_per_tick"
    assert len(lines) == 3
    assert [row.split(",")[0] for row in lines[1:]] == ["5.0", "8.0"]
    # every other column is its voltage's report.json value, to the last digit
    header = lines[0].split(",")[1:]
    for label, line in zip(("V=5", "V=8"), lines[1:]):
        report = json.loads((out / label / "report.json").read_text())
        assert line.split(",")[1:] == [repr(report[key]) for key in header], label
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["kind"] == "sweep"
    # the device of each voltage's directory, not the config's own voltage
    runs = {
        label: json.loads((out / label / "manifest.json").read_text())["parameter_fingerprint"]
        for label in ("V=5", "V=8")
    }
    assert manifest["parameter_fingerprint"] == runs
    assert runs["V=5"] == fingerprint(default_params(5.0))
    assert runs["V=8"] == fingerprint(default_params(8.0))

    # sweep without a sweep section is a configuration error
    bare = _write(tmp_path / "bare.json", _base_config())
    assert cli.main(["sweep", "--config", str(bare), "--out", str(out)]) == 2


def test_shrunk_sweep_lists_only_its_voltages(tmp_path, pipeline_config):
    payload = json.loads(json.dumps(pipeline_config))
    payload["simulation"]["duration"] = 90.0 * math.pi
    payload["simulation"]["ensemble_size"] = 2
    payload["sweep"] = {"voltages": [5.0, 6.5]}
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    both = _write(tmp_path / "both.json", payload)
    assert cli.main(["sweep", "--config", str(both), "--out", str(out)]) == 0
    payload["sweep"] = {"voltages": [5.0]}
    one = _write(tmp_path / "one.json", payload)
    for target in (out, fresh):
        assert cli.main(["sweep", "--config", str(one), "--out", str(target)]) == 0
    assert (out / "V=6.5" / "report.json").exists()
    assert (out / "manifest.json").read_bytes() == (fresh / "manifest.json").read_bytes()


def _run_with_simulation(tmp_path, pipeline_config, **simulation):
    payload = json.loads(json.dumps(pipeline_config))
    payload["simulation"].update(simulation)
    out = tmp_path / "out"
    return _run(_write(tmp_path / "cfg.json", payload), out), out


def test_kl_order_beyond_every_member_is_null(tmp_path, pipeline_config):
    # 48 members of 3.5 periods pool over 200 waits, but none has 8, so that
    # order has no n-tick sums to compare
    code, out = _run_with_simulation(
        tmp_path, pipeline_config, duration=17.0 * math.pi, ensemble_size=48
    )
    assert code == 0
    waits = [count - 1 for count in json.loads((out / "ticks.json").read_text())["counts"]]
    assert max(waits) < 8 and sum(waits) >= 200
    kl = json.loads((out / "info.json").read_text())["kl_orders"]
    assert kl["8"] is None and kl["2"] >= 0


def test_spectrum_window_without_three_bins_is_null(tmp_path, pipeline_config):
    # a 2-period record spaces the spectrum's bins 0.5 apart, so one falls in
    # the window (1.6, 2.4)
    code, out = _run_with_simulation(tmp_path, pipeline_config, duration=14.0 * math.pi)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["spectrum_peak"] == {"location": None, "height": None}
    assert report["spectrum_fwhm"] is None
    assert report["linewidth_fit"] == {"fwhm": None, "location": None}
    assert report["accuracy"] > 0


def test_degenerate_waits_leave_the_fit_out(tmp_path, pipeline_config, monkeypatch):
    # waits can pass a variance check and still be degenerate to the fit
    # (pi + 1e-13 noise: mean(1/tau) - 1/mean rounds below 0); its
    # ValueError leaves a note in wtd_fit.json, not a failed stage
    def degenerate(waits):
        raise ValueError("degenerate (zero-variance) waiting times")

    monkeypatch.setattr(cli.clockstats, "fit_inverse_gaussian", degenerate)
    out = tmp_path / "out"
    assert _run(_write(tmp_path / "cfg.json", pipeline_config), out) == 0
    assert json.loads((out / "wtd_fit.json").read_text()) == {
        "note": "degenerate (zero-variance) waiting times"
    }
    assert json.loads((out / "report.json").read_text())["accuracy"] > 0


def test_too_few_waits_name_the_fit_check(tmp_path, pipeline_config):
    # one member over 30 periods ticks about 60 times, short of the fit's 100
    payload = json.loads(json.dumps(pipeline_config))
    payload["simulation"].update(ensemble_size=1, duration=70.0 * math.pi)
    out = tmp_path / "out"
    assert _run(_write(tmp_path / "cfg.json", payload), out) == 0
    waits = sum(json.loads((out / "ticks.json").read_text())["counts"]) - 1
    assert 0 < waits < 100
    assert json.loads((out / "wtd_fit.json").read_text()) == {
        "note": f"need >= 100 samples, got {waits}"
    }


def test_lag_horizon_below_one_lag_fails_before_coeffs(
    tmp_path, pipeline_config, capsys
):
    # one step past the burn-in is one sample at stride 2: no lag at all
    burn_in = pipeline_config["simulation"]["burn_in"]
    code, out = _run_with_simulation(
        tmp_path, pipeline_config, duration=burn_in + math.pi / 100.0
    )
    assert code == 2
    assert "record holds 1 sample(s), too few for a lag" in capsys.readouterr().err
    assert not (out / "coeffs.npz").exists()


# --------------------------------------------------------------------- docs --


def _parser_commands() -> list[str]:
    usage = cli._parser().format_usage()
    return re.search(r"\{([\w,]+)\}", usage).group(1).split(",")


def test_docstring_lists_the_parser_commands():
    block = cli.__doc__.split("Subcommands\n-----------\n", 1)[1].split("\n\n", 1)[0]
    listed = [line.split()[0] for line in block.splitlines() if not line[:1].isspace()]
    assert listed == _parser_commands()


def test_readme_names_only_parser_commands():
    blocks = re.findall(r"```[^\n]*\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    named = re.findall(r"^(?:python -m )?nemclock (\S+)", "\n".join(blocks), re.M)
    assert named, "README.md runs no nemclock command in a code block"
    assert sorted(set(named) - set(_parser_commands())) == []


# --------------------------------------------------------------- entrypoint --


def test_module_entrypoint_smoke(tmp_path):
    cfg_path = _write(tmp_path / "c.json", {**_base_config(), "grid": {"nodes": 41}})
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "nemclock",
            "coeffs",
            "--config",
            str(cfg_path),
            "--out",
            str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
        timeout=120,
        # the checkout's src first, so the subprocess finds the package uninstalled
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")]))},
    )
    assert result.returncode == 0, result.stderr
    assert "coefficient table: 41 nodes" in result.stdout
