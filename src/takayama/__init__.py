"""Takayama poverty index: estimation, asymptotic inference, and
decomposability-gap analysis on income microdata.

Each public name is imported from its module on first access (PEP 562), so
`import takayama` loads no numpy and `takayama.cli` can choose numpy's
settings before any layer loads it.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "asymptotics": ("ConfidenceInterval", "VarianceDecomposition", "confidence_interval",
                    "plugin_rows", "representation_residual", "sigma_analytic",
                    "sigma_plugin"),
    "decomposition": ("GapEstimate", "GapVariance", "Subgroup", "SubgroupPartition",
                      "analytic_partition", "decomposability_gap", "gap_variance",
                      "partition", "recompose_interval"),
    "distributions": ("AnalyticDistribution", "exponential", "lognormal", "mixture",
                      "pareto", "parse_distribution", "parse_mixture", "uniform"),
    "errors": ("DataFormatError", "NumericalError", "QuadratureError"),
    "indices": ("IndexValue", "fgt_index", "takayama_empirical", "takayama_population",
                "takayama_rows"),
    "montecarlo": ("KsNormalityResult", "ReplicateRecords", "ReplicateStudy",
                   "ks_normality", "population_truth", "run_replicates"),
    "normal": ("normal_quantile",),
    "quadrature": ("DEFAULT_QUADRATURE", "QuadratureSettings", "integrate"),
    "samples": ("EmpiricalDistribution", "IncomeSample", "PovertyConfig",
                "build_empirical", "standardize"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    try:
        module = _OWNER[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
