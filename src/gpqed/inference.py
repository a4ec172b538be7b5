"""Model comparison between a continuous and a discontinuous GP regression.

The continuous model M0 fits one GP to all data. The discontinuous model M1
splits the data by a label function into a control and an intervention part,
fits an independent GP to each, and optimizes one shared hyperparameter vector
against the sum of the two log marginal likelihoods (M0 is one part). Model
evidences are BIC approximations log p(D|M) ~= logML(theta_hat) - (k/2) log n;
both models share k and n, so the BIC penalties cancel in the Bayes factor.

The effect size at the threshold is Gaussian under M1 (difference of the two
predictive posteriors) and a spike at zero under M0; the model-averaged
posterior is the spike-plus-Gaussian mixture weighted by the model
probabilities. With several candidate kernels, evidences are additionally
averaged across kernels under a uniform kernel prior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logsumexp

from . import gp, hyperopt, kernels
from .errors import ConfigError, InputError
from .gp import Dataset, GPFit
from .hyperopt import OptConfig
from .kernels import GramStructure, KernelSpec


# ---------------------------------------------------------------------------
# label functions

class LabelFunction:
    """Deterministic, total assignment of points to control (0) / intervention (1)."""

    def labels(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Threshold(LabelFunction):
    """label = 1 iff x[dimension] >= value; the boundary itself is treated."""

    value: float
    dimension: int = 0

    def labels(self, X: np.ndarray) -> np.ndarray:
        X = kernels._atleast_2d(X)
        if not 0 <= self.dimension < X.shape[1]:
            raise InputError(
                f"threshold dimension {self.dimension} out of range for p={X.shape[1]}")
        return (X[:, self.dimension] >= self.value).astype(int)


# ---------------------------------------------------------------------------
# result records

@dataclass(frozen=True)
class Evidence:
    """Optimized log marginal likelihood and its BIC-corrected evidence."""

    log_ml: float
    k: int
    n: int

    @property
    def log_evidence(self) -> float:
        return self.log_ml - 0.5 * self.k * np.log(self.n)


@dataclass(frozen=True)
class EffectPosterior:
    """Spike-at-zero / Gaussian mixture over the effect size.

    The Gaussian part is the effect posterior conditional on the
    discontinuous model; the spike carries the continuous model's mass.
    """

    m1_mean: float
    m1_var: float
    spike_weight: float
    gaussian_weight: float

    @property
    def bma_mean(self) -> float:
        return self.gaussian_weight * self.m1_mean

    @property
    def bma_var(self) -> float:
        second_moment = self.gaussian_weight * (self.m1_var + self.m1_mean ** 2)
        return second_moment - self.bma_mean ** 2


@dataclass(frozen=True)
class KernelResult:
    """One kernel's comparison: evidences, Bayes factor, effect posterior."""

    kernel: KernelSpec
    fit_m0: GPFit
    fit_c: GPFit
    fit_i: GPFit
    evidence_m0: Evidence
    evidence_m1: Evidence
    log_bf10: float
    p_m1: float
    effect: EffectPosterior


@dataclass(frozen=True)
class ComparisonResult:
    """Per-kernel comparisons plus kernel-averaged totals for one dataset."""

    kernel_results: tuple[KernelResult, ...]
    total_log_bf: float
    total_p_m1: float
    kernel_weights_m0: np.ndarray
    kernel_weights_m1: np.ndarray
    bma_m1_mean: float          # E[d | D, M1], kernel-averaged
    bma_m1_var: float
    bma_mean: float             # E[d | D], spike included
    bma_var: float
    effect_point: np.ndarray

    def mixture_components(self) -> tuple[float, list[tuple[float, float, float]]]:
        """Full BMA mixture: (spike weight, [(weight, mean, var) per kernel])."""
        spike = 1.0 - self.total_p_m1
        comps = [
            (self.total_p_m1 * w, kr.effect.m1_mean, kr.effect.m1_var)
            for w, kr in zip(self.kernel_weights_m1, self.kernel_results)
        ]
        return spike, comps


# ---------------------------------------------------------------------------
# fitting

def _fit_parts(parts: list[Dataset], kernel: KernelSpec, data: Dataset,
               cfg: OptConfig | None) -> tuple[list[GPFit], Evidence]:
    """Fit independent GPs to `parts` of `data` with one shared
    hyperparameter vector.

    The shared vector starts at `hyperopt.default_init(kernel, data)` and
    maximizes the sum of the parts' log marginal likelihoods; every part
    takes the mean of all of data.y as its constant mean, and the evidence
    applies one BIC penalty with n = data.n. The fits returned are the ones
    the optimizer's evaluation at the optimum made.
    """
    init = hyperopt.default_init(kernel, data)
    c = float(np.mean(data.y))
    structures = [GramStructure(part.X) for part in parts]

    def objective(theta):
        k, noise = hyperopt.kernel_and_noise(kernel, theta)
        fitted = [gp.fit(part, k, noise, mean_constant=c, structure=s)
                  for part, s in zip(parts, structures)]
        return (sum(gp.log_marginal_likelihood(f) for f in fitted),
                sum(f.log_ml_grad for f in fitted), fitted)

    opt = hyperopt.optimize(objective, init, cfg or OptConfig())
    ev = Evidence(log_ml=opt.objective_value, k=len(init), n=data.n)
    fitted, = opt.extra
    return fitted, ev


def fit_continuous(data: Dataset, kernel: KernelSpec,
                   cfg: OptConfig | None = None) -> tuple[GPFit, Evidence]:
    """Fit one GP to all data; evidence via BIC at the optimized hypers."""
    if data.n < 2:
        raise ConfigError("need at least 2 observations")
    (fit,), ev = _fit_parts([data], kernel, data, cfg)
    return fit, ev


def split_by_label(data: Dataset, label: LabelFunction) -> tuple[Dataset, Dataset]:
    ell = label.labels(data.X)
    if not np.any(ell == 0):
        raise ConfigError("control side of the split is empty")
    if not np.any(ell == 1):
        raise ConfigError("intervention side of the split is empty")
    return data.subset(ell == 0), data.subset(ell == 1)


def fit_discontinuous(data: Dataset, label: LabelFunction, kernel: KernelSpec,
                      cfg: OptConfig | None = None
                      ) -> tuple[GPFit, GPFit, Evidence]:
    """Fit independent GPs to each side with one shared hyperparameter vector.

    The shared vector maximizes the sum of the two sides' log marginal
    likelihoods; the evidence applies one BIC penalty with the total n. Both
    sides take the mean of all of data.y as their constant mean.
    """
    (fit_c, fit_i), ev = _fit_parts(list(split_by_label(data, label)), kernel,
                                    data, cfg)
    return fit_c, fit_i, ev


def effect_size(fit_c: GPFit, fit_i: GPFit, x0) -> tuple[float, float]:
    """Gaussian effect posterior at x0: difference of the two sub-models.

    Returns (mean, variance); the variance adds the two latent predictive
    variances (the sub-models are independent by construction).
    """
    if fit_c.kernel.family != fit_i.kernel.family:
        raise InputError("sub-fits must share the kernel family")
    x0 = np.asarray(x0, dtype=float)
    # a 1-D array is one point in R^p, not p one-dimensional points
    x0 = x0.reshape(1, -1) if x0.ndim <= 1 else kernels._atleast_2d(x0)
    mc, vc = gp.predict(fit_c, x0)
    mi, vi = gp.predict(fit_i, x0)
    return float(mi[0] - mc[0]), float(vi[0] + vc[0])


def kernel_labels(kernel_list: list[KernelSpec]) -> list[str]:
    """The labels that key the kernels' results; ConfigError unless there is
    at least one kernel and no two share a label."""
    if not kernel_list:
        raise ConfigError("at least one kernel is required")
    labels = [kern.label for kern in kernel_list]
    for label in labels:
        if labels.count(label) > 1:
            raise ConfigError(f"two kernels are both {label!r}")
    return labels


def compare(data: Dataset, label: LabelFunction,
            kernel_list: list[KernelSpec], cfg: OptConfig | None = None,
            effect_point=None) -> ComparisonResult:
    """Run the full comparison for every kernel and aggregate across kernels.

    effect_point is where the effect-size posterior is evaluated; it defaults
    to the threshold location for 1-D Threshold labels and must be supplied
    for other label functions.
    """
    kernel_labels(kernel_list)
    cfg = cfg or OptConfig()
    if effect_point is None:
        if isinstance(label, Threshold) and data.p == 1:
            effect_point = np.array([[label.value]])
        else:
            raise ConfigError(
                "effect_point is required for non-threshold or multivariate labels")
    effect_point = np.asarray(effect_point, dtype=float)
    # a flat sequence is one point in R^p, not p one-dimensional points
    effect_point = (effect_point.reshape(1, -1) if effect_point.ndim <= 1
                    else effect_point)
    if effect_point.shape != (1, data.p):
        raise ConfigError(
            f"effect_point must be a single {data.p}-dimensional point")

    results = []
    for kern in kernel_list:
        fit0, ev0 = fit_continuous(data, kern, cfg)
        fitc, fiti, ev1 = fit_discontinuous(data, label, kern, cfg)
        log_bf10 = ev1.log_evidence - ev0.log_evidence
        p1 = float(expit(log_bf10))  # p(M1|D) when p(M0) = p(M1)
        mean, var = effect_size(fitc, fiti, effect_point)
        effect = EffectPosterior(m1_mean=mean, m1_var=var,
                                 spike_weight=1.0 - p1, gaussian_weight=p1)
        results.append(KernelResult(
            kernel=kern, fit_m0=fit0, fit_c=fitc, fit_i=fiti,
            evidence_m0=ev0, evidence_m1=ev1, log_bf10=log_bf10, p_m1=p1,
            effect=effect))

    le0 = np.array([r.evidence_m0.log_evidence for r in results])
    le1 = np.array([r.evidence_m1.log_evidence for r in results])
    means = np.array([r.effect.m1_mean for r in results])
    varis = np.array([r.effect.m1_var for r in results])
    totals = aggregate_totals(le0, le1, means, varis)
    return ComparisonResult(
        kernel_results=tuple(results), effect_point=effect_point, **totals)


def aggregate_totals(le0: np.ndarray, le1: np.ndarray, means: np.ndarray,
                     varis: np.ndarray) -> dict:
    """Kernel-averaged totals from per-kernel log evidences and effects.

    The kernel prior is uniform over the supplied list; its 1/K factors
    cancel in the total Bayes factor. All probability arithmetic runs in log
    space.
    """
    total_log_bf = float(logsumexp(le1) - logsumexp(le0))
    total_p1 = float(expit(total_log_bf))
    w0 = np.exp(le0 - logsumexp(le0))
    w1 = np.exp(le1 - logsumexp(le1))
    w0 /= w0.sum()
    w1 /= w1.sum()
    m1_mean = float(w1 @ means)
    m1_second = float(w1 @ (np.asarray(varis) + np.asarray(means) ** 2))
    bma_mean = total_p1 * m1_mean
    return {
        "total_log_bf": total_log_bf,
        "total_p_m1": total_p1,
        "kernel_weights_m0": w0,
        "kernel_weights_m1": w1,
        "bma_m1_mean": m1_mean,
        "bma_m1_var": m1_second - m1_mean ** 2,
        "bma_mean": bma_mean,
        "bma_var": total_p1 * m1_second - bma_mean ** 2,
    }


def _mixture_samples(spike: float, comps: list[tuple[float, float, float]],
                     count: int, seed: int) -> np.ndarray:
    """Draws from a spike at zero plus Gaussians [(weight, mean, var)].

    One `rng.choice` over the components, then the normals per component:
    that order fixes the samples a seed gives.
    """
    if count < 1:
        raise InputError("count must be >= 1")
    weights = np.array([spike] + [w for w, _, _ in comps])
    weights = weights / weights.sum()
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(weights), size=count, p=weights)
    out = np.zeros(count)
    for j, (_, mean, var) in enumerate(comps, start=1):
        mask = idx == j
        k = int(mask.sum())
        if k:
            out[mask] = mean + np.sqrt(var) * rng.standard_normal(k)
    return out


def bma_effect_samples(result: ComparisonResult, count: int,
                       seed: int = 0) -> np.ndarray:
    """Monte Carlo draws from the full spike-plus-Gaussians BMA mixture."""
    spike, comps = result.mixture_components()
    return _mixture_samples(spike, comps, count, seed)


def effect_samples(effect: EffectPosterior, count: int, seed: int = 0) -> np.ndarray:
    """Draws from a single spike-plus-Gaussian effect posterior."""
    return _mixture_samples(
        effect.spike_weight,
        [(effect.gaussian_weight, effect.m1_mean, effect.m1_var)], count, seed)
