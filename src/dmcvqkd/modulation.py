"""Four-state constellation: eigenstate weights and correlation strength.

Alice draws one of four coherent states alpha * exp(i*(2k+1)*pi/4),
k = 0..3, uniformly.  The modulation variance is V_A = 2*alpha^2 (shot-noise
units).  The mixture splits into four orthogonal non-Gaussian eigenstates
whose weights lambda_k drive every correlation quantity below.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

#: phases of the four coherent states (radians)
CONSTELLATION_PHASES = tuple((2 * k + 1) * math.pi / 4.0 for k in range(4))


def lambda_weights(alpha: float) -> np.ndarray:
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
    return np.array([
        0.5 * (ec + et * math.cos(a2)),
        0.5 * (es + et * math.sin(a2)),
        0.5 * (ec - et * math.cos(a2)),
        0.5 * (es - et * math.sin(a2)),
    ])


def lambda_ratio_sum(lam: np.ndarray) -> float:
    """sum_k lambda_k^{3/2} / lambda_{k+1 mod 4}^{1/2}.

    This is the factor multiplying V_A in the trusted correlation strength;
    it tends to 1 as alpha -> 0 and is strictly below the Gaussian-modulation
    value sqrt(1 + 2/V_A) for alpha > 0.
    """
    if np.any(lam <= 0.0):
        raise DomainError("lambda weights must be positive")
    nxt = np.roll(lam, -1)
    return float(np.sum(lam ** 1.5 / np.sqrt(nxt)))


def correlation_z(alpha: float) -> float:
    """Trusted cross-correlation Z of the purified constellation state.

    Z = V_A * sum_k lambda_k^{3/2} / lambda_{k+1}^{1/2}, strictly smaller
    than the Gaussian benchmark sqrt(V_A^2 + 2 V_A).
    """
    if not alpha > 0.0:
        raise DomainError(f"alpha must be positive, got {alpha!r}")
    v_a = 2.0 * alpha * alpha
    return v_a * lambda_ratio_sum(lambda_weights(alpha))
