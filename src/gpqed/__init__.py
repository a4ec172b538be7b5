"""Gaussian-process model comparison for quasi-experimental designs.

Fits a continuous and a discontinuous GP regression to threshold- or
boundary-labeled data, scores them with BIC-approximated evidences and Bayes
factors, and reports spike-plus-Gaussian model-averaged effect sizes.
"""

from .gp import Dataset, GPFit, fit, log_marginal_likelihood, predict
from .hyperopt import OptConfig
from .inference import (
    ComparisonResult,
    EffectPosterior,
    Evidence,
    Threshold,
    bma_effect_samples,
    compare,
    effect_size,
    fit_continuous,
    fit_discontinuous,
)
from .kernels import KernelSpec, from_name

__all__ = [
    "ComparisonResult",
    "Dataset",
    "EffectPosterior",
    "Evidence",
    "GPFit",
    "KernelSpec",
    "OptConfig",
    "Threshold",
    "bma_effect_samples",
    "compare",
    "effect_size",
    "fit",
    "fit_continuous",
    "fit_discontinuous",
    "from_name",
    "log_marginal_likelihood",
    "predict",
]
