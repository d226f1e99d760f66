"""Four-state constellation: eigenstate weights and the honest covariance.

Alice draws one of four coherent states alpha * exp(i*(2k+1)*pi/4),
k = 0..3, uniformly.  The modulation variance is V_A = 2*alpha^2 (shot-noise
units).  The mixture splits into four orthogonal non-Gaussian eigenstates
whose weights lambda_k drive every correlation quantity below.
"""
from __future__ import annotations

import functools
import math

from .errors import DomainError

#: phases of the four coherent states (radians)
CONSTELLATION_PHASES = tuple((2 * k + 1) * math.pi / 4.0 for k in range(4))


def lambda_weights(alpha: float) -> tuple:
    """Eigenstate weights (lambda_0, ..., lambda_3) of the four-state mixture.

    lambda_{0,2} = (1/2) e^{-alpha^2} [cosh(alpha^2) +/- cos(alpha^2)]
    lambda_{1,3} = (1/2) e^{-alpha^2} [sinh(alpha^2) +/- sin(alpha^2)]

    All four are positive for alpha > 0 and sum to 1.
    """
    if not alpha > 0.0:
        raise DomainError(f"alpha must be positive, got {alpha!r}")
    a2 = alpha * alpha
    # e^{-a2} cosh(a2) = (1 + e^{-2 a2})/2 etc., written to avoid overflow
    # and catastrophic cancellation at large alpha.
    em = math.exp(-2.0 * a2)
    ec = 0.5 * (1.0 + em)
    es = 0.5 * (1.0 - em)
    et = math.exp(-a2)
    return (
        0.5 * (ec + et * math.cos(a2)),
        0.5 * (es + et * math.sin(a2)),
        0.5 * (ec - et * math.cos(a2)),
        0.5 * (es - et * math.sin(a2)),
    )


@functools.lru_cache(maxsize=256)
def lambda_ratio_sum_at(alpha: float) -> float:
    """sum_k lambda_k^{3/2} / lambda_{k+1 mod 4}^{1/2} at this alpha.

    This is the factor multiplying V_A in the trusted correlation strength;
    it tends to 1 as alpha -> 0 and is strictly below the Gaussian-modulation
    value sqrt(1 + 2/V_A) for alpha > 0.  Cached: every keyrate or sweep
    point asks for it more than once.  It sums left to right over
    `math.pow` and `math.sqrt`; numpy's `power` picks its kernel by CPU
    feature and differs in the last bit with and without AVX-512.
    """
    lam = lambda_weights(alpha)
    if min(lam) <= 0.0:
        raise DomainError("lambda weights must be positive")
    total = 0.0
    for num, den in zip(lam, lam[1:] + lam[:1]):
        total += math.pow(num, 1.5) / math.sqrt(den)
    return total


def honest_covariance(alpha: float, T: float, xi: float) -> tuple:
    """(V, Sigma_b, Z_bar) that an honest channel of transmittance T and
    excess noise xi gives the constellation state.

    V = V_A + 1, Sigma_b = T V_A + 1 + T xi and Z_bar = sqrt(T) V_A
    sum_k lambda_k^{3/2} / lambda_{k+1}^{1/2}, in shot-noise units.  At
    T = 1, xi = 0, Z_bar is the trusted correlation Z, strictly below the
    Gaussian benchmark sqrt(V_A^2 + 2 V_A).
    """
    v_a = 2.0 * alpha * alpha
    return (v_a + 1.0, T * v_a + 1.0 + T * xi,
            math.sqrt(T) * v_a * lambda_ratio_sum_at(alpha))


def record_covariance(alpha: float, T: float, xi: float) -> tuple:
    """(va, vb, c) = ((V + 1)/2, (Sigma_b + 1)/2, Z_bar/2) of
    `honest_covariance`: the per-entry variances of Alice's and Bob's
    records of a gaussian mode, and their covariance in the x plane."""
    v, sigma_b, z_bar = honest_covariance(alpha, T, xi)
    return (v + 1.0) / 2.0, (sigma_b + 1.0) / 2.0, z_bar / 2.0
