"""Takayama poverty index: estimation, asymptotic inference, and
decomposability-gap analysis on income microdata."""

from .asymptotics import (ConfidenceInterval, VarianceDecomposition,
                          confidence_interval, plugin_rows,
                          representation_residual, sigma_analytic, sigma_plugin)
from .decomposition import (GapEstimate, GapVariance, Subgroup, SubgroupPartition,
                            analytic_partition, decomposability_gap, gap_variance,
                            partition, recompose_interval)
from .distributions import (AnalyticDistribution, exponential, lognormal,
                            mixture, pareto, parse_distribution, parse_mixture, uniform)
from .errors import DataFormatError, NumericalError, QuadratureError
from .indices import (IndexValue, fgt_index, takayama_empirical, takayama_population,
                      takayama_rows)
from .montecarlo import (KsNormalityResult, ReplicateRecords, ReplicateStudy,
                         bootstrap_variance, draw_mixture_sample, ks_normality,
                         population_truth, run_replicates)
from .normal import normal_cdf, normal_quantile
from .quadrature import DEFAULT_QUADRATURE, QuadratureSettings, integrate
from .samples import (EmpiricalDistribution, IncomeSample, PovertyConfig,
                      build_empirical, standardize)

__version__ = "0.1.0"

__all__ = [
    "AnalyticDistribution", "ConfidenceInterval", "DataFormatError",
    "DEFAULT_QUADRATURE", "EmpiricalDistribution", "GapEstimate",
    "GapVariance", "IncomeSample", "IndexValue",
    "KsNormalityResult", "NumericalError",
    "PovertyConfig",
    "QuadratureError", "QuadratureSettings", "ReplicateRecords",
    "ReplicateStudy", "Subgroup", "SubgroupPartition",
    "VarianceDecomposition", "analytic_partition",
    "bootstrap_variance",
    "build_empirical", "confidence_interval", "decomposability_gap",
    "draw_mixture_sample", "exponential", "fgt_index", "gap_variance",
    "integrate", "ks_normality",
    "lognormal", "mixture", "normal_cdf", "normal_quantile", "pareto",
    "parse_distribution", "parse_mixture", "partition", "plugin_rows",
    "population_truth",
    "recompose_interval", "representation_residual",
    "run_replicates", "sigma_analytic",
    "sigma_plugin", "standardize", "takayama_empirical", "takayama_population",
    "takayama_rows", "uniform",
]
