"""Shared fixtures: parameter sets, coefficient tables, synthetic tables,
and the large simulation corpora used by the acceptance tests.

Everything expensive is session-scoped and built lazily, so unit-test-only
runs never pay for the corpora.
"""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from nemclock.langevin import SimConfig
from nemclock.params import AdiabaticityWarning, default_params
from nemclock.pipeline import build_corpus, default_grid
from nemclock.transport import CoefficientTable, build_coefficient_table

THREADS = 4
TWO_PI = 2.0 * math.pi

# Acceptance-scale corpus settings: frozen together with the constants in
# test_acceptance.py — changing any of these invalidates those constants.
CORPUS_SETTINGS = {
    100.0: dict(burn=2800, periods=6400, ensemble=32, seed=101, current_stride=2),
    50.0: dict(burn=2800, periods=6400, ensemble=32, seed=102, current_stride=2),
    5.0: dict(burn=400, periods=12800, ensemble=16, seed=105, current_stride=None),
}


# ------------------------------------------------------------- parameters --


@pytest.fixture(scope="session")
def params100():
    return default_params(100.0)


@pytest.fixture(scope="session")
def params50():
    return default_params(50.0)


@pytest.fixture(scope="session")
def params5():
    return default_params(5.0)


@pytest.fixture(scope="session")
def params_eq():
    """Near-equilibrium parameters; the weak-separation warning is expected."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdiabaticityWarning)
        return default_params(0.1)


# ------------------------------------------------------------------ tables --


@pytest.fixture(scope="session")
def table100(params100):
    return build_coefficient_table(params100, default_grid(params100))


@pytest.fixture(scope="session")
def table50(params50):
    return build_coefficient_table(params50, default_grid(params50))


@pytest.fixture(scope="session")
def table5(params5):
    return build_coefficient_table(params5, default_grid(params5))


def make_synthetic_table(
    grid,
    *,
    friction,
    diffusion,
    excess=None,
    current=None,
    shot=None,
    tag="synthetic",
) -> CoefficientTable:
    """Coefficient table with hand-chosen columns on an explicit grid.

    Each column argument is either a scalar or a callable of position.
    Synthetic tables give the integrator/readout/reduction tests exact
    closed-form references.
    """
    grid = np.asarray(grid, dtype=float)

    def col(spec):
        if spec is None:
            return np.zeros(grid.size)
        if callable(spec):
            return np.array([float(spec(x)) for x in grid])
        return np.full(grid.size, float(spec))

    # the rows in COLUMNS order
    values = [col(excess), col(current), col(shot), col(friction), col(diffusion)]
    return CoefficientTable(grid=grid, values=values, params_hash=tag)


@pytest.fixture(scope="session")
def ou_table():
    """Constant friction/diffusion: the integrator must reproduce an
    underdamped Ornstein-Uhlenbeck oscillator exactly in law."""
    return make_synthetic_table(
        np.linspace(-12.0, 12.0, 25), friction=0.5, diffusion=1.0, tag="ou"
    )


# ----------------------------------------------------------------- corpora --


def _corpus(voltage: float):
    cfg = CORPUS_SETTINGS[voltage]
    params = default_params(voltage)
    table = build_coefficient_table(params, default_grid(params))
    sim = SimConfig(
        time_step=math.pi / 100.0,
        burn_in=cfg["burn"] * TWO_PI,
        duration=(cfg["burn"] + cfg["periods"]) * TWO_PI,
        seed=cfg["seed"],
        ensemble_size=cfg["ensemble"],
        record_stride=200,
    )
    corpus = build_corpus(
        table, params, sim, current_stride=cfg["current_stride"], threads=THREADS
    )
    return params, table, corpus


@pytest.fixture(scope="session")
def corpus100():
    return _corpus(100.0)


@pytest.fixture(scope="session")
def corpus50():
    return _corpus(50.0)


@pytest.fixture(scope="session")
def corpus5():
    return _corpus(5.0)


# ------------------------------------------------- acceptance line printing --

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
