"""Nearest-neighbour Renyi entropy estimation and maximum-entropy
goodness-of-fit tests for multivariate Student and Pearson type II
distributions, with a Monte Carlo harness for critical values, power
and convergence rates.

Each public name loads its module on first use, so `import renyigof`
alone imports no numpy: the command line sets numpy's BLAS threads
before numpy loads (see :mod:`renyigof.cli`).
"""

import importlib

from ._version import __version__

# public name -> the submodule that defines it
_MODULE_OF = {
    "ConditionCheck": "distributions",
    "DistributionSpec": "distributions",
    "Family": "distributions",
    "MaxEntropyResult": "distributions",
    "SpdMatrix": "distributions",
    "check_estimator_conditions": "distributions",
    "density": "distributions",
    "gaussian": "distributions",
    "log_density": "distributions",
    "max_renyi_entropy": "distributions",
    "pearson2": "distributions",
    "renyi_entropy_closed_form": "distributions",
    "student": "distributions",
    "DomainError": "errors",
    "DuplicatePointsError": "errors",
    "NotPositiveDefiniteError": "errors",
    "GofStatistic": "gof",
    "pearson_statistic": "gof",
    "sample_covariance": "gof",
    "statistic": "gof",
    "student_statistic": "gof",
    "EntropyEstimate": "knn",
    "KnnDistances": "knn",
    "knn_distances": "knn",
    "renyi_estimate": "knn",
    "shannon_estimate": "knn",
    "ExperimentConfig": "mc",
    "McResult": "mc",
    "RateFit": "mc",
    "empirical_quantile": "mc",
    "estimate_power": "mc",
    "fit_convergence_rate": "mc",
    "histogram_bins": "mc",
    "run_experiment": "mc",
    "summarize": "mc",
    "Sample": "sampler",
    "sample": "sampler",
    "digamma": "special",
    "ln_beta": "special",
    "ln_gamma": "special",
    "unit_ball_volume": "special",
}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
