"""The public surface other code relies on: every exported name resolves,
and every hook the traced benchmark patches exists."""
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import nemclock

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    modules = [nemclock] + [
        importlib.import_module(f"nemclock.{info.name}")
        for info in pkgutil.iter_modules(nemclock.__path__)
        if info.name != "__main__"
    ]
    for module in modules:
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"


def test_benchmark_trace_hooks_exist():
    # in a subprocess, so the tracer's patches never reach this session
    code = "from layers import instrument; from spans import Tracer; instrument(Tracer())"
    paths = [str(ROOT / "perfbench"), str(ROOT / "src")]
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path[:0] = {paths!r}; {code}"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_out_scipy_stats_and_signal():
    # each CLI stage is a fresh process, so what `import nemclock.cli` loads
    # is paid on every command; only `toymodel` needs scipy.signal
    code = (
        "import sys, nemclock.cli; "
        "print([m for m in ('scipy.stats', 'scipy.signal') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
