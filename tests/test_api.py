"""The public surface other code relies on: every exported name resolves,
every hook the traced benchmark patches exists, and no module imports what
it does not use."""
import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
    # the package exports its six eager modules' names in import order, each
    # once, then the lazy names: each lazy module's whole __all__, no more
    eager = [
        importlib.import_module(f"nemclock.{name}")
        for name in ("params", "transport", "langevin", "readout", "toymodels", "pipeline")
    ]
    names = dict.fromkeys(name for module in eager for name in module.__all__)
    assert nemclock.__all__ == [*names, *nemclock._LAZY_MODULE, "__version__"]
    for source, lazy in nemclock._LAZY.items():
        module = importlib.import_module(f"nemclock.{source}")
        assert sorted(lazy) == sorted(module.__all__), f"_LAZY[{source!r}]"


def _bound_names(node):
    """The names a module-level import statement binds."""
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    if node.module == "__future__":
        return []
    return [alias.asname or alias.name for alias in node.names]


def test_no_unused_module_imports():
    # pyflakes' F401 for the package modules, where a line without # noqa
    # imports a name its module never reads
    for path in sorted((ROOT / "src" / "nemclock").glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            unused = [name for name in _bound_names(node) if name not in used]
            assert not unused, f"{path.name}:{node.lineno} imports unused {unused}"


def test_benchmark_trace_hooks_exist():
    # in a subprocess, so the tracer's patches never reach this session
    code = "from layers import instrument; from spans import Tracer; instrument(Tracer())"
    paths = [str(ROOT / "perfbench"), str(ROOT / "src")]
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path[:0] = {paths!r}; {code}"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_traced_benchmark_runs_after_hooks_change_shape(tmp_path):
    # the hooks exist by name above; here a traced `run` must also get through
    # every wrapped layer and count each member-step once
    config = {
        "version": 1,
        "system": {"voltage": 5.0},
        "grid": {"nodes": 41},
        "simulation": {"duration": 400.0, "ensemble_size": 3, "record_stride": 10},
    }
    cfg, out = str(tmp_path / "cfg.json"), str(tmp_path / "out")
    Path(cfg).write_text(json.dumps(config))
    paths = [str(ROOT / "perfbench"), str(ROOT / "src")]
    code = (
        f"import json, sys; sys.path[:0] = {paths!r}\n"
        "import layers\n"
        "from spans import Tracer\n"
        "from nemclock import cli\n"
        "tracer = Tracer()\n"
        "layers.instrument(tracer)\n"
        f"code = cli.main(['run', '--config', {cfg!r}, '--out', {out!r}])\n"
        "metrics, _ = layers.reduce(tracer.spans)\n"
        f"sim = cli.build_sim(cli.load_config({cfg!r}))\n"
        "print(json.dumps([code, metrics['langevin.member_steps'], sim.total_steps]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    exit_code, member_steps, total_steps = json.loads(proc.stdout.splitlines()[-1])
    assert exit_code == 0, proc.stderr
    assert member_steps == 3 * total_steps


def test_cli_needs_no_scipy(tmp_path):
    # each CLI stage is a fresh process, so what `import nemclock.cli` loads
    # is paid on every command: no scipy and no numpy.ma; a whole `run`
    # imports no module, so no timed call pays an import, and has not loaded
    # the quadrature
    config = {
        "version": 1,
        "system": {"voltage": 5.0},
        "grid": {"nodes": 41},
        "simulation": {"duration": 660.0, "ensemble_size": 4, "record_stride": 2, "seed": 9},
    }
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(config))
    code = (
        "import json, sys\n"
        "from nemclock import cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
        "before = set(sys.modules)\n"
        f"assert cli.main(['run', '--config', {str(cfg)!r}, '--out', {str(out)!r}]) == 0\n"
        f"assert 'ks_statistic' in json.loads(open({str(out / 'wtd_fit.json')!r}).read())\n"
        f"assert json.loads(open({str(out / 'report.json')!r}).read())['linewidth_fit']['fwhm']\n"
        "print(sorted(set(sys.modules) - before))\n"
        "print(sorted(m for m in sys.modules if m == 'nemclock.quadrature'))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line.startswith("[")]
    assert lines == ["[]"] * 5


def test_toy_samplers_need_no_scipy():
    # the offset model draws the exact OU amplitude path, whose AR(1) loop
    # rounds as scipy's lfilter does, without loading scipy
    code = (
        "import sys\n"
        "import nemclock as nc\n"
        "cycle = nc.ReducedCycle(amplitude=4.0, amplitude_damping=0.5,\n"
        "                        amplitude_diffusion=0.2, phase_diffusion=0.01)\n"
        "_, x = nc.simulate_toy(nc.OffsetModelParams(cycle=cycle, offset=0.3, baseline=1.0),\n"
        "                       20.0, 0.01, seed=3)\n"
        "assert x.size == 2001\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"]


def test_tables_and_ensembles_need_no_scipy():
    # the table and ensemble path imports no scipy and not the quadrature,
    # the pole sums' test oracle, and its first calls import nothing new, so
    # no timed call pays an import
    code = (
        "import math, sys\n"
        "import nemclock\n"
        "from nemclock import langevin, params, pipeline, transport\n"
        "before = set(sys.modules)\n"
        "p = params.default_params(100.0)\n"
        "table = transport.build_coefficient_table(p, pipeline.default_grid(p))\n"
        "sim = langevin.SimConfig(time_step=math.pi / 100, burn_in=2 * math.pi,\n"
        "                         duration=6 * math.pi, seed=3, ensemble_size=2,\n"
        "                         record_stride=10)\n"
        "corpus = pipeline.build_corpus(table, p, sim, current_stride=2)\n"
        "assert corpus.currents.shape == (2, 201)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "print(sorted(set(sys.modules) - before))\n"
        "print(sorted(m for m in sys.modules if m == 'nemclock.quadrature'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]", "[]"]


_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh_lines(code, **blas_env):
    """Run ``code`` in a fresh interpreter whose environment sets no BLAS
    thread count but ``blas_env``, and return the lines it prints."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARIABLES}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env={**env, **blas_env, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_import_runs_blas_on_one_thread():
    # OpenBLAS starts a pool of one thread per core when NumPy loads; a
    # nemclock process keeps one thread and the caller's environment, and a
    # caller's own thread setting wins
    if not Path("/proc/self/task").is_dir():
        pytest.skip("no /proc/self/task to count the threads of a process")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in str(blas).lower():
        pytest.skip(f"NumPy's BLAS is not OpenBLAS: {blas.get('name')}")
    threads = "len(os.listdir('/proc/self/task'))"
    code = f"import os\nimport nemclock\nprint({threads}, os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    assert _fresh_lines(code) == ["1 None"]
    # OpenBLAS caps its pool at the core count
    cores = len(os.sched_getaffinity(0))
    for name in _BLAS_THREAD_VARIABLES:
        left = "2" if name == "OPENBLAS_NUM_THREADS" else "None"
        assert _fresh_lines(code, **{name: "2"}) == [f"{min(2, cores)} {left}"], name

    code = f"import os\nimport numpy\nprint({threads})\nimport nemclock\nprint({threads})\n"
    before, after = map(int, _fresh_lines(code))
    assert after == before
    assert before > 1 or cores == 1
