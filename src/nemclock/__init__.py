"""Simulation and analysis of a nanoelectromechanical self-oscillator clock.

A voltage-biased electronic transport channel pumps a mechanical mode; past
a bias threshold the mode self-oscillates and its zero crossings tick like a
clock.  The package computes the position-dependent transport coefficients,
integrates the resulting stochastic dynamics, extracts ticks, and quantifies
how good a timepiece the device makes.

``import nemclock`` loads NumPy and no scipy, and neither does any of its
modules or commands: scipy is a test dependency, the oracle of the native
ports.  Nor do they load :mod:`~nemclock.quadrature`, which integrates
only the tests' oracle of the transport pole sums.  The package exports
every name in the ``__all__`` of the six modules it loads.  The names of
the analysis modules :mod:`~nemclock.clockstats` and
:mod:`~nemclock.tickinfo`, listed in ``_LAZY``, are imported on first
access, so the table and ensemble path does not pay for loading them and
``numpy.fft``.

A nemclock process runs NumPy's BLAS on one thread.  Its only BLAS calls
are the small products and one 4x4 solve of
:func:`~nemclock.clockstats.linewidth_fit`, and OpenBLAS's pool of one
thread per core spin-waits through the import and often through later
calls, burning a second core for nothing.  So when nothing has loaded
NumPy yet and the caller has set none of ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` and ``OMP_NUM_THREADS``, the package imports NumPy
with ``OPENBLAS_NUM_THREADS=1`` and then removes the variable again:
OpenBLAS reads it once, when the library loads, so ``os.environ`` and
child processes see the caller's environment unchanged.  A caller who
sets one of these variables, or imports NumPy first, keeps their own
pool.  No artifact depends on the pool's size.
"""
import importlib
import os
import sys

if "numpy" not in sys.modules and not any(
    name in os.environ
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        importlib.import_module("numpy")
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from . import langevin, params, pipeline, readout, toymodels, transport
from .params import *  # noqa: F403
from .transport import *  # noqa: F403
from .langevin import *  # noqa: F403
from .readout import *  # noqa: F403
from .toymodels import *  # noqa: F403
from .pipeline import *  # noqa: F403

__version__ = "0.1.0"

_LAZY = {
    "clockstats": (
        "CorrelationCurve",
        "EstimatorWarning",
        "Spectrum",
        "WtdFit",
        "accuracy_resolution",
        "allan_variance",
        "autocorrelation",
        "default_allan_grid",
        "entropy_per_tick",
        "fit_inverse_gaussian",
        "linewidth_fit",
        "power_spectrum",
        "renewal_allan_asymptote",
        "spectrum_fwhm",
        "spectrum_peak",
    ),
    "tickinfo": (
        "Histogram",
        "block_bootstrap_se",
        "kl_divergence",
        "mi_bias_bound",
        "n_fold_convolution",
        "n_sum_samples",
        "pairwise_mutual_information",
    ),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}

# the eager modules' names in import order, each once, then the lazy ones
__all__ = [
    *dict.fromkeys(
        name
        for module in (params, transport, langevin, readout, toymodels, pipeline)
        for name in module.__all__
    ),
    *_LAZY_MODULE,
    "__version__",
]


def __getattr__(name):
    """Import an analysis module on first access to one of its names."""
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
