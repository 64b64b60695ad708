"""Upper/lower bounds on the downstream mean-CE loss, plus four literature baselines.

All "ours" bounds take the adjusted (mean-denominator) contrastive loss and are
of the sandwich form

    l_contr - slack_lower  <=  l_mce  <=  l_contr + slack_upper

with slack terms built from the conditional variance, the label-inconsistency
level alpha, the positive-pair alignment epsilon, the intra-class graph
diameter D, and the Monte-Carlo error e/sqrt(M). Infinities are represented
explicitly and propagated; the functions never return NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .data import require_count, require_nonnegative

E = math.e

INF = math.inf


@dataclass(frozen=True)
class BoundInputs:
    """Everything the bound formulas consume for one encoder and one (M, K) setting."""

    l_contr: float = 0.0
    cond_variance: float = 0.0
    alpha: float = 0.0
    epsilon: float = 0.0
    diameter: float = INF
    omega: float = 1.0
    lambda1: float = 0.0
    lambda2_abs: float = 0.0
    m_negatives: int = 1
    k_classes: int = 1

    def __post_init__(self):
        if math.isnan(self.l_contr):
            raise ValueError("l_contr must not be NaN")
        require_nonnegative(cond_variance=self.cond_variance, epsilon=self.epsilon)
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not self.diameter >= 0.0:
            raise ValueError(f"diameter must be >= 0 (inf allowed), got {self.diameter}")
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError(f"omega must lie in [0, 1], got {self.omega}")
        if not self.lambda2_abs <= self.lambda1:
            raise ValueError(f"lambda1 must dominate lambda2_abs, got {self.lambda1} and {self.lambda2_abs}")
        require_count(1, M=self.m_negatives, K=self.k_classes)


@dataclass(frozen=True)
class BaselineBounds:
    arora: float
    nozawa: float
    ash: float
    bao: float
    ours: float


@dataclass(frozen=True)
class BoundReport:
    """All bound values for one encoder, lower <= upper wherever both are finite."""

    ci_lower: float
    ci_upper: float
    noci_lower: float
    noci_upper: float
    radius_lower: float
    radius_upper: float
    spectral_lower: float
    spectral_upper: float
    baselines: BaselineBounds | None = None


def _mc_error(m_negatives: int) -> float:
    return E / math.sqrt(m_negatives)


def bounds_ci(inputs: BoundInputs) -> tuple[float, float]:
    """Sandwich under conditional independence: l +- (Var/2 term, e/sqrt(M))."""
    err = _mc_error(inputs.m_negatives)
    upper = inputs.l_contr + err
    lower = inputs.l_contr - 0.5 * inputs.cond_variance - err
    return lower, upper


def bounds_no_ci(inputs: BoundInputs) -> tuple[float, float]:
    """Sandwich without conditional independence; pays 2*sqrt(Var) and 4*sqrt(alpha)."""
    err = _mc_error(inputs.m_negatives)
    sv = math.sqrt(inputs.cond_variance)
    sa = 4.0 * math.sqrt(inputs.alpha)
    upper = inputs.l_contr + 2.0 * sv + sa + err
    lower = inputs.l_contr - 2.0 * sv - 0.5 * inputs.cond_variance - sa - err
    return lower, upper


def _radius_bounds(
    l_contr: float, diameter: float, epsilon: float, alpha: float, m_negatives: int
) -> tuple[float, float]:
    err = _mc_error(m_negatives)
    sa = 4.0 * math.sqrt(alpha)
    d_eps = 0.0 if epsilon == 0.0 else diameter * epsilon
    if math.isinf(d_eps):
        return -INF, INF
    upper = l_contr + 2.0 * d_eps + sa + err
    lower = l_contr - (2.0 + 0.5 * d_eps) * d_eps - sa - err
    return lower, upper


def bounds_radius(inputs: BoundInputs) -> tuple[float, float]:
    """Connected-augmentation-graph sandwich with the D*epsilon alignment budget.

    epsilon = 0 yields the 0-alignment corollary even for infinite D (the
    product is special-cased, not left to 0*inf); infinite D with epsilon > 0
    propagates infinities.
    """
    return _radius_bounds(inputs.l_contr, inputs.diameter, inputs.epsilon, inputs.alpha, inputs.m_negatives)


def spectral_diameter(omega: float, lambda1: float, lambda2_abs: float) -> tuple[float, str]:
    """Certified diameter bound log((1-w^2)/w^2) / log(l1/l2) from adjacency spectra.

    Returns (d_hat, note). Degenerate cases:

    * omega = 0 (a disconnected subgraph signature) -> inf, flagged;
    * omega = 1 (single vertex) -> 0;
    * lambda2 = 0: the ratio log diverges; the power-positivity argument holds
      at one hop only for complete graphs, so a one-hop certificate d_hat = 1
      is reported with a note instead of the undefined formula value;
    * |lambda2| = lambda1 (bipartite signature) -> inf.
    """
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"omega must lie in [0, 1], got {omega}")
    require_nonnegative(lambda1=lambda1, lambda2_abs=lambda2_abs)
    if omega == 0.0:
        return INF, "disconnected (omega = 0)"
    if lambda1 <= 0.0:
        if omega >= 1.0:
            return 0.0, "single-vertex subgraph"
        return INF, "edgeless subgraph with several vertices"
    if lambda2_abs >= lambda1:
        return INF, "bipartite-degenerate spectrum |lambda2| = lambda1"
    if lambda2_abs == 0.0:
        return 1.0, "lambda2 = 0: one-hop complete-graph certificate"
    num = math.log((1.0 - omega**2) / omega**2)
    den = math.log(lambda1 / lambda2_abs)
    return max(num / den, 0.0), ""


def bounds_spectral(inputs: BoundInputs) -> tuple[float, float]:
    """Radius sandwich with the diameter replaced by the spectral certificate."""
    d_hat, _ = spectral_diameter(inputs.omega, inputs.lambda1, inputs.lambda2_abs)
    return _radius_bounds(inputs.l_contr, d_hat, inputs.epsilon, inputs.alpha, inputs.m_negatives)


# ---------------------------------------------------------------------------
# literature baselines (balanced classes p(y) = 1/K)


def collision_probability(m_negatives: int, k_classes: int) -> float:
    """tau_M: probability at least one of M negatives collides with the anchor class."""
    require_count(1, M=m_negatives, K=k_classes)
    return 1.0 - (1.0 - 1.0 / k_classes) ** m_negatives


def coverage_probability(m_plus_one: int, k_classes: int) -> float:
    """v: probability that m_plus_one uniform class draws cover all K classes."""
    require_count(1, m_plus_one=m_plus_one, K=k_classes)
    if m_plus_one < k_classes:
        return 0.0
    k = k_classes
    total = 0.0
    for j in range(k + 1):
        total += (-1.0) ** j * math.comb(k, j) * ((k - j) / k) ** m_plus_one
    return max(total, 0.0)


def expected_log_collisions(m_negatives: int, k_classes: int) -> float:
    """E log(Col + 1) with Col ~ Binomial(M, 1/K)."""
    require_count(1, M=m_negatives, K=k_classes)
    if k_classes == 1:  # every negative collides: Col = M
        return math.log(m_negatives + 1)
    m, p = m_negatives, 1.0 / k_classes
    log_p, log_q = math.log(p), math.log1p(-p)
    total = 0.0
    for c in range(m + 1):
        log_pmf = (
            math.lgamma(m + 1) - math.lgamma(c + 1) - math.lgamma(m - c + 1) + c * log_p + (m - c) * log_q
        )
        total += math.exp(log_pmf) * math.log(c + 1)
    return total


def baseline_bounds(inputs: BoundInputs, l_unsup: float) -> BaselineBounds:
    """The four comparison upper bounds plus ours, on a common adjusted scale.

    ``l_unsup`` is the adjusted (mean-denominator) pretraining loss. The three
    collision/coverage baselines were stated for the sum-denominator loss, so
    they receive ``l_unsup + log M`` internally; the Bao-style bound and ours
    take the adjusted value directly. Balanced classes are assumed throughout.
    """
    m, k = inputs.m_negatives, inputs.k_classes
    if k < 2:
        raise ValueError("baselines require K >= 2")
    if not math.isfinite(l_unsup):
        raise ValueError(f"l_unsup must be finite, got {l_unsup}")
    tau = collision_probability(m, k)
    v = coverage_probability(m + 1, k)
    elog = expected_log_collisions(m, k)
    harmonic = sum(1.0 / i for i in range(1, k))
    l_sum = l_unsup + math.log(m)

    no_miss = 1.0 - tau  # underflows to 0.0 for huge M, reported as +inf
    arora = (l_sum - elog) / (no_miss * v) if no_miss > 0.0 and v > 0.0 else INF
    nozawa = (2.0 * l_sum - elog) / v if v > 0.0 else INF
    ash = (2.0 / no_miss) * (2.0 * (k - 1) * harmonic / m) * (l_sum - elog) if no_miss > 0.0 else INF
    bao = l_unsup + 2.0 * math.log(math.cosh(1.0))
    ours = l_unsup + _mc_error(m)
    return BaselineBounds(arora=arora, nozawa=nozawa, ash=ash, bao=bao, ours=ours)


def full_report(inputs: BoundInputs, l_unsup: float | None = None) -> BoundReport:
    """Evaluate every bound family on one set of inputs."""
    ci_lo, ci_up = bounds_ci(inputs)
    no_lo, no_up = bounds_no_ci(inputs)
    ra_lo, ra_up = bounds_radius(inputs)
    sp_lo, sp_up = bounds_spectral(inputs)
    base = baseline_bounds(inputs, l_unsup) if l_unsup is not None else None
    return BoundReport(
        ci_lower=ci_lo,
        ci_upper=ci_up,
        noci_lower=no_lo,
        noci_upper=no_up,
        radius_lower=ra_lo,
        radius_upper=ra_up,
        spectral_lower=sp_lo,
        spectral_upper=sp_up,
        baselines=base,
    )
