"""The analysis scripts under scripts/ still import, and run where cheap."""
import importlib.util
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
