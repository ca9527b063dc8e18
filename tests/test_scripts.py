"""The analysis scripts under scripts/ still import, and run where cheap."""
import csv
import importlib.util
import math
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_script_imports(path):
    assert callable(_load(path).main)


def test_reduced_cycle_scan_below_threshold(tmp_path, capsys):
    scan = _load(next(p for p in SCRIPTS if p.stem == "reduced_cycle_scan"))
    out = tmp_path / "scan.csv"
    assert scan.main(["--voltages", "5", "--nodes", "101", "--out", str(out)]) == 1
    printed = capsys.readouterr().out
    assert "V=5: no limit cycle" in printed
    assert "nothing above threshold" in printed
    assert not out.exists()


def test_spectral_narrowing_runs(tmp_path, capsys):
    # the one script that reads Corpus.currents, at the smallest useful scale
    script = _load(next(p for p in SCRIPTS if p.stem == "spectral_narrowing"))
    out = tmp_path / "narrowing.csv"
    argv = ["--voltages", "100", "--burn", "10", "--periods", "40",
            "--ensemble", "2", "--lag-periods", "10", "--out", str(out)]
    assert script.main(argv) == 0
    assert "V=100" in capsys.readouterr().out
    with out.open() as fh:
        (row,) = list(csv.DictReader(fh))
    assert float(row["voltage"]) == 100.0
    for key in ("peak_none", "peak_hann", "fit_peak"):
        assert math.isfinite(float(row[key]))
