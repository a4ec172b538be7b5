"""Model comparison between a continuous and a discontinuous GP regression.

The continuous model M0 fits one GP to all data. The discontinuous model M1
splits the data by a label function into a control and an intervention part,
fits an independent GP to each, and optimizes one shared hyperparameter vector
against the sum of the two log marginal likelihoods (M0 is one part), with
the kernel variance profiled out of that search in closed form. Model
evidences are BIC approximations log p(D|M) ~= logML(theta_hat) - (k/2) log n;
both models share k and n, so the BIC penalties cancel in the Bayes factor.

The effect size at the threshold is Gaussian under M1 (difference of the two
predictive posteriors) and a spike at zero under M0; the model-averaged
posterior is the spike-plus-Gaussian mixture weighted by the model
probabilities. With several candidate kernels, evidences are additionally
averaged across kernels under a uniform kernel prior.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit, logsumexp

from . import gp, hyperopt, kernels
from .errors import DataError, InputError, check_int, check_seed
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
    """label = 1 iff x[0] >= value: the threshold applies to the first
    predictor, and the boundary itself is treated."""

    value: float

    def labels(self, X: np.ndarray) -> np.ndarray:
        return (kernels._atleast_2d(X)[:, 0] >= self.value).astype(int)


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


# ---------------------------------------------------------------------------
# fitting

def _fit_parts(parts: list[Dataset], kernel: KernelSpec, data: Dataset,
               cfg: OptConfig, scales: hyperopt.DataScales | None
               ) -> tuple[list[GPFit], Evidence]:
    """Fit independent GPs to `parts` of `data` with one shared
    hyperparameter vector theta, at its MAP point.

    Every part takes the mean of all of data.y as its constant mean; the
    evidence is the parts' summed log marginal likelihood with one BIC
    penalty, n = data.n and k = len(theta). The search starts from
    `hyperopt.default_init` at scales, `hyperopt.data_scales(data)`, which
    `compare` computes once for all its fits and which are computed here
    when None. The kernel variance v is
    profiled out: the search runs over w = log(theta[1:] / v ** powers[1:])
    (`hyperopt.scale_powers`) from `hyperopt.starts`, and its objective, the
    one place the log posterior is built, fits each part once at
    unit = exp([0, w]), takes v-hat from `hyperopt.profiled_scale` and
    returns minus the log posterior at theta = unit * v-hat ** powers, its
    gradient in w from the fits' `grad_terms` (which have no column for v)
    and the prior's gradient in log theta[1:], and the log-ML, v-hat, theta
    and unit fits. Its quadratic term and log-determinant are the sums of
    the fits' `quad` and `log_det`, as gp.fit made them. The fits returned
    are the best evaluation's, scaled to v-hat, not fitted again.

    Raises DataError when data has fewer than two rows (from
    `hyperopt.data_scales`, checked first) or when every part's response is
    constant: the log posterior then grows without bound as v and the noise
    go to 0.
    """
    if scales is None:
        scales = hyperopt.data_scales(data)
    if all(np.all(part.y == part.y[0]) for part in parts):
        raise DataError("every part's response is constant, so the "
                        "hyperparameters have no MAP estimate")
    init = hyperopt.default_init(kernel, scales)
    powers = hyperopt.scale_powers(kernel)
    c = float(np.mean(data.y))
    structures = [GramStructure(part.X) for part in parts]

    def objective(w):
        # clip keeps exp() strictly positive and finite at extreme steps
        unit = np.exp(np.concatenate(([0.0], w)).clip(-700.0, 700.0))
        k, noise = hyperopt.kernel_and_noise(kernel, unit)
        fitted = [gp.fit(part, k, noise, mean_constant=c, structure=s)
                  for part, s in zip(parts, structures)]
        quad = sum(f.quad for f in fitted)
        u = hyperopt.profiled_scale(quad, data.n, unit, powers)
        theta = unit * u ** powers
        # the summed log-ML of the fits scaled to u
        log_ml = gp.scaled_log_ml(quad, sum(f.log_det for f in fitted),
                                  data.n, u)
        prior, prior_grad = hyperopt.log_prior(theta)
        # the log posterior's gradient in log theta[1:] (theta / u ** powers
        # cancels the terms' scaling to unit); along w it is the profiled
        # one, as the log posterior is flat along v at v-hat
        terms = sum(f.grad_terms for f in fitted)
        grad = (terms[0] / u - terms[1]) * unit[1:] + prior_grad[1:]
        return -(log_ml + prior), -grad, log_ml, u, theta, fitted

    # looked up at each call, so that a wrapper on the module sees it
    opt = hyperopt.optimize(objective, hyperopt.starts(kernel, init, cfg))
    log_ml, u, theta, fitted = opt.outputs
    ev = Evidence(log_ml=float(log_ml), k=len(init), n=data.n)
    k, noise = hyperopt.kernel_and_noise(kernel, theta)
    # at scale u, L^-1 is L^-1 / sqrt(u), log|Ky| gains n log u, alpha and
    # r^T alpha are divided by u, and each gradient column's data term
    # scales by u ** -(power + 1) and its complexity term by u ** -power
    term_scale = u ** (powers[1:] + np.array([[1.0], [0.0]]))
    return [replace(f, kernel=k, noise_variance=noise, jitter=f.jitter * u,
                    log_det=f.log_det + f.n * np.log(u), quad=f.quad / u,
                    chol_inv=f.chol_inv / np.sqrt(u), alpha=f.alpha / u,
                    grad_terms=f.grad_terms / term_scale)
            for f in fitted], ev


def fit_continuous(data: Dataset, kernel: KernelSpec,
                   cfg: OptConfig = OptConfig(), *,
                   scales: hyperopt.DataScales | None = None
                   ) -> tuple[GPFit, Evidence]:
    """Fit one GP to all data; evidence via BIC at the optimized hypers.
    scales are `hyperopt.data_scales(data)`, computed here when None."""
    (fit,), ev = _fit_parts([data], kernel, data, cfg, scales)
    return fit, ev


def split_by_label(data: Dataset, label: LabelFunction) -> tuple[Dataset, Dataset]:
    ell = label.labels(data.X)
    if not np.any(ell == 0):
        raise InputError("control side of the split is empty")
    if not np.any(ell == 1):
        raise InputError("intervention side of the split is empty")
    return data.subset(ell == 0), data.subset(ell == 1)


def fit_discontinuous(data: Dataset, label: LabelFunction, kernel: KernelSpec,
                      cfg: OptConfig = OptConfig(), *,
                      scales: hyperopt.DataScales | None = None
                      ) -> tuple[GPFit, GPFit, Evidence]:
    """Fit independent GPs to each side with one shared hyperparameter vector.

    The shared vector maximizes the sum of the two sides' log marginal
    likelihoods; the evidence applies one BIC penalty with the total n. Both
    sides take the mean of all of data.y as their constant mean, and the
    search starts from `hyperopt.data_scales` of all of data (scales,
    computed here when None).
    """
    (fit_c, fit_i), ev = _fit_parts(list(split_by_label(data, label)), kernel,
                                    data, cfg, scales)
    return fit_c, fit_i, ev


def effect_size(fit_c: GPFit, fit_i: GPFit, X) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian effect posteriors at the rows of X (a flat sequence is one
    point in R^p): the two sub-models' difference, as (means, variances) with
    one entry per point; the sub-models are independent, so the two latent
    predictive variances add."""
    if fit_c.kernel.family != fit_i.kernel.family:
        raise InputError("sub-fits must share the kernel family")
    X = np.asarray(X, dtype=float)
    X = X.reshape(1, -1) if X.ndim <= 1 else X
    mc, vc = gp.predict(fit_c, X)
    mi, vi = gp.predict(fit_i, X)
    return mi - mc, vi + vc


def kernel_labels(kernel_list: list[KernelSpec]) -> list[str]:
    """The labels that key the kernels' results; InputError unless there is
    at least one kernel and no two share a label."""
    if not kernel_list:
        raise InputError("at least one kernel is required")
    labels = [kern.label for kern in kernel_list]
    for label in labels:
        if labels.count(label) > 1:
            raise InputError(f"two kernels are both {label!r}")
    return labels


def check_effect_point(point, label: LabelFunction, p: int) -> np.ndarray:
    """The point where the effect-size posterior is evaluated, as a 1 x p
    array: point, or by default the threshold location of a Threshold on
    one predictor (every other label needs a point). A flat sequence is one
    point in R^p, not p one-dimensional points. InputError unless it is
    exactly one finite p-dimensional point."""
    if point is None and not (isinstance(label, Threshold) and p == 1):
        raise InputError("effect_point is required for non-threshold or "
                         "multivariate labels")
    point = np.asarray(label.value if point is None else point, dtype=float)
    point = point.reshape(1, -1) if point.ndim <= 1 else point
    if point.shape != (1, p):
        raise InputError(f"effect_point must be a single {p}-dimensional "
                         "point")
    if not np.isfinite(point).all():
        raise InputError("effect_point must be finite")
    return point


def compare(data: Dataset, label: LabelFunction,
            kernel_list: list[KernelSpec], cfg: OptConfig = OptConfig(),
            effect_point=None) -> ComparisonResult:
    """Run the full comparison for every kernel and aggregate across kernels.

    effect_point is where the effect-size posterior is evaluated, checked
    and defaulted by `check_effect_point`.
    """
    kernel_labels(kernel_list)
    effect_point = check_effect_point(effect_point, label, data.p)

    # the search's data-only start, once for every kernel and model
    scales = hyperopt.data_scales(data)
    results = []
    for kern in kernel_list:
        fit0, ev0 = fit_continuous(data, kern, cfg, scales=scales)
        fitc, fiti, ev1 = fit_discontinuous(data, label, kern, cfg,
                                            scales=scales)
        log_bf10 = ev1.log_evidence - ev0.log_evidence
        p1 = float(expit(log_bf10))  # p(M1|D) when p(M0) = p(M1)
        (mean,), (var,) = effect_size(fitc, fiti, effect_point)
        effect = EffectPosterior(m1_mean=float(mean), m1_var=float(var),
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
    check_int("count", count, 1)
    weights = np.array([spike] + [w for w, _, _ in comps])
    weights = weights / weights.sum()
    rng = np.random.default_rng(check_seed(seed))
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
    """Monte Carlo draws from the full BMA mixture: a spike at zero weighted
    1 - p(M1|D), and each kernel's M1 Gaussian weighted p(M1|D) w_M1."""
    p1 = result.total_p_m1
    comps = [(p1 * w, kr.effect.m1_mean, kr.effect.m1_var)
             for w, kr in zip(result.kernel_weights_m1, result.kernel_results)]
    return _mixture_samples(1.0 - p1, comps, count, seed)


def effect_samples(effect: EffectPosterior, count: int, seed: int = 0) -> np.ndarray:
    """Draws from a single spike-plus-Gaussian effect posterior."""
    return _mixture_samples(
        effect.spike_weight,
        [(effect.gaussian_weight, effect.m1_mean, effect.m1_var)], count, seed)
