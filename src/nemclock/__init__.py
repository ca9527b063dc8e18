"""Simulation and analysis of a nanoelectromechanical self-oscillator clock.

A voltage-biased electronic transport channel pumps a mechanical mode; past
a bias threshold the mode self-oscillates and its zero crossings tick like a
clock.  The package computes the position-dependent transport coefficients,
integrates the resulting stochastic dynamics, extracts ticks, and quantifies
how good a timepiece the device makes.

``import nemclock`` loads NumPy and no scipy, and neither does any of its
modules or commands: scipy is a test dependency, the oracle of the native
ports.  Nor do they load :mod:`~nemclock.quadrature`, which integrates
only the tests' oracle of the transport pole sums.  The names of the
analysis modules :mod:`~nemclock.clockstats` and :mod:`~nemclock.tickinfo`
are imported on first access, so the table and ensemble path does not pay for loading them
and ``numpy.fft``.
"""
import importlib

from .params import (
    AdiabaticityWarning,
    LeadSpec,
    SystemParams,
    default_params,
    fingerprint,
)
from .transport import (
    CoefficientTable,
    GridSpec,
    build_coefficient_table,
    fermi_dirac,
    friction_and_diffusion,
    table_fingerprint,
)
from .langevin import (
    ExcursionError,
    SimConfig,
    Trajectory,
    column_interpolant,
)
from .readout import (
    DetectionPolicy,
    TickSeries,
    current_level_maximum,
    detect_ticks,
    transduce,
)
from .toymodels import (
    OffsetModelParams,
    OUAmplitude,
    PhaseDiffusion,
    ReducedCycle,
    TelegraphParams,
    analytic_position_autocorrelation,
    limit_cycle_amplitude,
    offset_model_correlation,
    reduced_coefficients,
    simulate_toy,
    telegraph_correlation,
    telegraph_statics,
)
from .pipeline import (
    Corpus,
    build_corpus,
    default_grid,
    ensemble_allan,
    pooled_waiting_times,
    run_ensemble,
)

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
        "kl_divergence",
        "mi_bias_bound",
        "n_fold_convolution",
        "n_sum_samples",
        "pairwise_mutual_information",
    ),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "AdiabaticityWarning",
    "LeadSpec",
    "SystemParams",
    "default_params",
    "fingerprint",
    "CoefficientTable",
    "GridSpec",
    "build_coefficient_table",
    "fermi_dirac",
    "friction_and_diffusion",
    "table_fingerprint",
    "ExcursionError",
    "SimConfig",
    "Trajectory",
    "column_interpolant",
    "DetectionPolicy",
    "TickSeries",
    "current_level_maximum",
    "detect_ticks",
    "transduce",
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
    "Histogram",
    "kl_divergence",
    "mi_bias_bound",
    "n_fold_convolution",
    "n_sum_samples",
    "pairwise_mutual_information",
    "OffsetModelParams",
    "OUAmplitude",
    "PhaseDiffusion",
    "ReducedCycle",
    "TelegraphParams",
    "analytic_position_autocorrelation",
    "limit_cycle_amplitude",
    "offset_model_correlation",
    "reduced_coefficients",
    "simulate_toy",
    "telegraph_correlation",
    "telegraph_statics",
    "Corpus",
    "build_corpus",
    "default_grid",
    "ensemble_allan",
    "pooled_waiting_times",
    "run_ensemble",
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
