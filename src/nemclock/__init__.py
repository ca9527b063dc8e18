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
"""
import importlib

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
