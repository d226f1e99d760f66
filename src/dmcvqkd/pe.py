"""Parameter-estimation bounds, estimators and the accept/abort decision.

The chain: tail bounds for chi-square statistics and random half-splits
(`chi2_tail_thresholds`, `projection_bounds`, `inner_product_bounds`,
`cross_half_bounds`) justify the worst-case estimators
(`gamma_estimates`); `pe_decision` compares those against the
expected-channel thresholds widened by robustness offsets delta
(`calibrate_deltas`).

Vector conventions: norms and inner products are over the full
interleaved-quadrature vectors of the 2k parameter-estimation modes (4k
real entries per side); inner products carry the signed structure
sum(ax*bx - ap*bp).  `k` always denotes the per-half mode count.  The
norm and inner-product arguments of `projection_bounds`,
`inner_product_bounds`, `cross_half_bounds` and `gamma_estimates` may be
numpy arrays, which gives element-wise results (`validate` relies on this).

Logarithm base: deviation terms written here as log(.) use the natural
logarithm by default; log_base="paper-literal" switches those occurrences
to base 2 (the source formulas mix the two notations; the difference is
below 2x in the deviation term).  Expressions derived from explicit
exponential tails (projection_bounds) always use ln.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import chdtri, ndtri

from .errors import (
    DomainError,
    EpsilonTooSmall,
    RegimeError,
    ValidityRange,
)
from .modulation import lambda_ratio_sum, lambda_weights

LOG_BASES = ("natural", "paper-literal")


def _dev_log(value: float, log_base: str) -> float:
    """log(value) in the convention selected for deviation terms."""
    if log_base == "natural":
        return math.log(value)
    if log_base == "paper-literal":
        return math.log2(value)
    raise DomainError(f"log_base must be one of {LOG_BASES}, got {log_base!r}")


class InnerProductBounds(NamedTuple):
    """Split inner-product bounds: two-sided interval and one-sided floor."""

    lower: float
    upper: float
    one_sided_lower: float


class CrossHalfBounds(NamedTuple):
    """Bounds on the unobserved half from the observed half."""

    upper_other: float
    lower_other: float
    ip_lower: float


class DeltaTriple(NamedTuple):
    delta_a: float
    delta_b: float
    delta_c: float


@dataclass(frozen=True)
class ConfidenceRegion:
    """Outcome of parameter estimation: thresholds and verdict."""

    sigma_a_max: float
    sigma_b_max: float
    sigma_c_min: float
    epsilon_pe: float
    verdict: str  # "pass" | "abort"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def worst_case_covariance(self) -> tuple:
        """(x, y, z) triple at the adversary-favoring corner of the region.

        The adversary's information depends on the correlation only through
        z^2 and decreases in it, so over the certified set {z >= sigma_c_min}
        the supremum sits at z = max(sigma_c_min, 0): a threshold below zero
        certifies no correlation at all.
        """
        return (
            self.sigma_a_max,
            self.sigma_b_max,
            max(self.sigma_c_min, 0.0),
        )


def chi2_tail_thresholds(k: float, x: float) -> tuple:
    """Deviation thresholds of a chi-square(k) variable at exponent x.

    Pr[U - k >= 2*sqrt(k*x) + 2*x] <= e^-x and
    Pr[k - U >= 2*sqrt(k*x)] <= e^-x; returns the two deviations.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k!r}")
    if x < 0:
        raise DomainError(f"x must be >= 0, got {x!r}")
    root = 2.0 * math.sqrt(k * x)
    return (root + 2.0 * x, root)


def projection_bounds(norm_x2: float, k: int, epsilon: float) -> tuple:
    """Confidence interval for the norm of a random half of a vector.

    For a vector X split uniformly into halves of k modes each,
    ||X_1||^2 lies in
        ( (1/2)[1 - (11/5) g] ||X||^2 , (1/2)[1 + (5/2) g] ||X||^2 )
    with g = sqrt(ln(2/eps)/k), except with probability 2*eps.
    Valid for eps >= 2*exp(-k/2).
    """
    if np.any(norm_x2 < 0):
        raise DomainError(f"norm_x2 must be >= 0, got {norm_x2!r}")
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k!r}")
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must be in (0, 1), got {epsilon!r}")
    if epsilon < 2.0 * math.exp(-k / 2.0):
        raise EpsilonTooSmall(
            f"epsilon={epsilon!r} below validity floor 2*exp(-k/2)"
            f"={2.0 * math.exp(-k / 2.0):.3e}"
        )
    g = math.sqrt(math.log(2.0 / epsilon) / k)
    lower = 0.5 * (1.0 - 2.2 * g) * norm_x2
    upper = 0.5 * (1.0 + 2.5 * g) * norm_x2
    return (lower, upper)


def inner_product_bounds(
    norm_x2: float, norm_y2: float, ip_xy: float, k: int, x: float
) -> InnerProductBounds:
    """Bounds for the half-split inner product <X1, Y1>.

    Two-sided: |2<X1,Y1> - <X,Y>| <= (47/10) sqrt(x/k) (||X||^2 + ||Y||^2)
    except with probability 8 e^-x.  One-sided floor:
    <X1,Y1> >= <X,Y>/2 - (5/2) sqrt(x/k) (||X||^2 + ||Y||^2) except with
    probability 4 e^-x.  Requires x <= k/2.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k!r}")
    if x < 0:
        raise DomainError(f"x must be >= 0, got {x!r}")
    if x > k / 2.0:
        raise DomainError(f"x={x!r} violates x <= k/2 with k={k!r}")
    norms = norm_x2 + norm_y2
    half = 0.5 * ip_xy
    wide = 0.5 * 4.7 * math.sqrt(x / k) * norms
    one = half - 2.5 * math.sqrt(x / k) * norms
    return InnerProductBounds(lower=half - wide, upper=half + wide,
                              one_sided_lower=one)


def cross_half_bounds(
    norm_half2: float,
    ip_half: float,
    k: int,
    epsilon: float,
    norm_other_half2: float,
    log_base: str = "natural",
) -> CrossHalfBounds:
    """Bounds on the unobserved half of rotation-symmetrized data.

    Given the observed half ||X1||^2 (and inner product <X1, Y1>), with
    d = 4 sqrt(log(2/eps)/(2k)):

        ||X2||^2 <= (1 + d) ||X1||^2          except with probability eps
        ||X2||^2 >= (1 - d) ||X1||^2          except with probability eps
        <X2,Y2>  >= <X1,Y1> - d (||X1||^2 + ||Y1||^2)   except prob 4*eps

    `norm_other_half2` is ||Y1||^2 for the inner-product floor.  Valid for
    log(2/eps)/(2k) <= 0.05.
    """
    if np.any(norm_half2 < 0):
        raise DomainError(f"norm_half2 must be >= 0, got {norm_half2!r}")
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k!r}")
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must be in (0, 1), got {epsilon!r}")
    ratio = _dev_log(2.0 / epsilon, log_base) / (2.0 * k)
    if ratio > 0.05:
        raise ValidityRange(
            f"log(2/eps)/(2k)={ratio:.4f} exceeds validity limit 0.05"
        )
    d = 4.0 * math.sqrt(ratio)
    return CrossHalfBounds(
        upper_other=(1.0 + d) * norm_half2,
        lower_other=(1.0 - d) * norm_half2,
        ip_lower=ip_half - d * (norm_half2 + norm_other_half2),
    )


def _estimator_terms(k: int, epsilon: float, log_base: str) -> tuple:
    """(inflation, gamma_c penalty) of the worst-case estimators.

    The inflation is 1 + 3 r with r = sqrt(log(36/eps)/k), the penalty
    6 sqrt(log(144/eps)/k^3).  Raises RegimeError unless
    [1 + (5/2) r][1 + (360/eps) e^{-k/16}] <= 1 + 3 r.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k!r}")
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must be in (0, 1), got {epsilon!r}")
    r = math.sqrt(_dev_log(36.0 / epsilon, log_base) / k)
    lhs = (1.0 + 2.5 * r) * (1.0 + (360.0 / epsilon) * math.exp(-k / 16.0))
    rhs = 1.0 + 3.0 * r
    if lhs > rhs:
        raise RegimeError(
            f"regime constraint fails at k={k}, eps={epsilon}: "
            f"{lhs:.6g} > {rhs:.6g}"
        )
    penalty = 6.0 * math.sqrt(
        _dev_log(144.0 / epsilon, log_base) / float(k) ** 3
    )
    return 1.0 + 3.0 * r, penalty


def gamma_estimates(
    norm_x2: float,
    norm_y2: float,
    ip_xy: float,
    k: int,
    epsilon_pe: float,
    log_base: str = "natural",
) -> tuple:
    """Worst-case channel-parameter estimators from the PE statistics.

        gamma_a = (1/2k)[1 + 3 sqrt(log(36/eps)/k)] ||X||^2 - 1
        gamma_b = (1/2k)[1 + 3 sqrt(log(36/eps)/k)] ||Y||^2 - 1
        gamma_c = (1/2k) <X,Y> - 6 sqrt(log(144/eps)/k^3) (||X||^2+||Y||^2)

    Raises RegimeError outside the estimator-chain regime.
    """
    infl, penalty = _estimator_terms(k, epsilon_pe, log_base)
    gamma_a = infl * norm_x2 / (2.0 * k) - 1.0
    gamma_b = infl * norm_y2 / (2.0 * k) - 1.0
    gamma_c = ip_xy / (2.0 * k) - penalty * (norm_x2 + norm_y2)
    return (gamma_a, gamma_b, gamma_c)


def pe_decision(
    gammas: tuple,
    v: float,
    T: float,
    xi: float,
    deltas: tuple,
    epsilon_pe: float = float("nan"),
) -> ConfidenceRegion:
    """Accept/abort decision against the expected-channel thresholds.

    v = V_A + 1 is the expected Alice variance.  Thresholds:

        Sigma_a_max = v + delta_a
        Sigma_b_max = T (v - 1) + 1 + T xi + delta_b
        Sigma_c_min = sqrt(T) (v - 1) * sum_k lambda_k^{3/2}/lambda_{k+1}^{1/2}
                      - delta_c

    Verdict is "pass" iff gamma_a <= Sigma_a_max, gamma_b <= Sigma_b_max
    and gamma_c >= Sigma_c_min (closed inequalities).
    """
    gamma_a, gamma_b, gamma_c = (float(g) for g in gammas)
    delta_a, delta_b, delta_c = (float(d) for d in deltas)
    if min(delta_a, delta_b, delta_c) < 0.0:
        raise DomainError(f"deltas must be >= 0, got {deltas!r}")
    if not v > 1.0:
        raise DomainError(f"v must exceed 1 (v = V_A + 1), got {v!r}")
    v_a = v - 1.0
    alpha = math.sqrt(v_a / 2.0)
    sigma_a_max = v + delta_a
    sigma_b_max = T * v_a + 1.0 + T * xi + delta_b
    sigma_c_min = (
        math.sqrt(T) * v_a * lambda_ratio_sum(lambda_weights(alpha)) - delta_c
    )
    ok = (
        gamma_a <= sigma_a_max
        and gamma_b <= sigma_b_max
        and gamma_c >= sigma_c_min
    )
    return ConfidenceRegion(
        sigma_a_max=sigma_a_max,
        sigma_b_max=sigma_b_max,
        sigma_c_min=sigma_c_min,
        epsilon_pe=epsilon_pe,
        verdict="pass" if ok else "abort",
    )


def calibrate_deltas(
    alpha: float,
    T: float,
    xi: float,
    k: int,
    epsilon_pe: float,
    epsilon_rob: float = 1e-2,
    log_base: str = "natural",
) -> DeltaTriple:
    """Robustness offsets so the honest channel aborts with prob <= eps_rob.

    Each of the three abort branches gets a budget of eps_rob/6 (union
    bound over three one-sided events with a factor-2 safety margin).  For
    the a/b branches the estimator is an exact multiple of a chi-square
    variable with 4k degrees of freedom, so the offset inverts its
    quantile; the c branch uses a normal approximation with the full
    covariance of (inner product, both norms), which is accurate for the
    k values where the c estimator is usable at all.
    """
    if not 0.0 < epsilon_rob < 1.0:
        raise DomainError(f"epsilon_rob must be in (0,1), got {epsilon_rob!r}")
    budget = epsilon_rob / 6.0
    infl, dc = _estimator_terms(k, epsilon_pe, log_base)

    v_a = 2.0 * alpha * alpha
    v = v_a + 1.0
    sigma_b = T * v_a + 1.0 + T * xi
    z_bar = math.sqrt(T) * v_a * lambda_ratio_sum(lambda_weights(alpha))

    dof = 4 * k
    q_hi = chdtri(dof, budget)  # upper-tail quantile of chi2(dof)
    # abort_a: gamma_a > v + delta_a; gamma_a = infl*(v+1)*U/dof - 1 with
    # U ~ chi2(dof), so invert the quantile of U.
    delta_a = infl * (v + 1.0) * q_hi / dof - (v + 1.0)
    delta_b = infl * (sigma_b + 1.0) * q_hi / dof - (sigma_b + 1.0)

    # c branch: gamma_c = S/(2k) - dc * (Na + Nb); per-entry moments
    # var_a = (v+1)/2, var_b = (sigma_b+1)/2, cross rho = z_bar/2.
    va2 = (v + 1.0) / 2.0
    vb2 = (sigma_b + 1.0) / 2.0
    rho = z_bar / 2.0
    n_ent = float(dof)
    var_s = n_ent * (va2 * vb2 + rho * rho)
    var_na = n_ent * 2.0 * va2 * va2
    var_nb = n_ent * 2.0 * vb2 * vb2
    cov_na_nb = n_ent * 2.0 * rho * rho
    cov_s_na = n_ent * 2.0 * va2 * rho
    cov_s_nb = n_ent * 2.0 * vb2 * rho
    inv2k = 1.0 / (2.0 * k)
    var_gc = (
        var_s * inv2k * inv2k
        + dc * dc * (var_na + var_nb + 2.0 * cov_na_nb)
        - 2.0 * inv2k * dc * (cov_s_na + cov_s_nb)
    )
    mean_shift = dc * n_ent * (va2 + vb2)  # z_bar - E[gamma_c]
    z_q = -ndtri(budget)  # upper-tail quantile of N(0, 1)
    delta_c = mean_shift + z_q * math.sqrt(max(var_gc, 0.0))
    return DeltaTriple(delta_a=delta_a, delta_b=delta_b, delta_c=delta_c)
