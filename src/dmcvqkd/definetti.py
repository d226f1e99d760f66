"""Reduction from general to collective attacks for two-mode protocols.

Closed-form ingredients: the symmetric-subspace dimension under a photon
cutoff K, the cutoff-truncation error, the volume prefactor T(n, eta), the
cutoff K that the energy test certifies, and the final security-parameter
blowup.  The energy test itself operates on per-mode energies in
shot-noise units.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, RegimeError


def symmetric_dim(K: int) -> int:
    """Dimension C(K+4, 4) of the two-pair symmetric subspace at cutoff K.

    Exact integer; satisfies the recurrence
    symmetric_dim(K) = symmetric_dim(K-1) * (K+4) / K.
    """
    if K < 0:
        raise DomainError(f"K must be >= 0, got {K!r}")
    return math.comb(K + 4, 4)


def key_reduction_bits(K: int) -> int:
    """Key bits sacrificed by the reduction: ceil(2 log2 symmetric_dim(K)).

    Computed in exact integer arithmetic as the bit length of dim^2 - 1.
    """
    dim = symmetric_dim(K)
    return (dim * dim - 1).bit_length()


def truncation_epsilon(n: int, K: int, eta: float) -> float:
    """Failure probability of imposing the cutoff K on n modes.

    2 (N+K)^7 / N^3 * exp(-2 N^3 / ((N+K)^2 ln 2)) with N = n - 5,
    valid for K <= (eta/(1-eta)) (n-5); the result is clamped to [0, 1].
    Evaluated in log space to survive large n.
    """
    if n < 6:
        raise DomainError(f"n must be >= 6, got {n!r}")
    if K < 0:
        raise DomainError(f"K must be >= 0, got {K!r}")
    if not 0.0 <= eta < 1.0:
        raise DomainError(f"eta must be in [0, 1), got {eta!r}")
    big_n = n - 5
    if K > (eta / (1.0 - eta)) * big_n:
        raise RegimeError(
            f"K={K} exceeds (eta/(1-eta))(n-5)="
            f"{(eta / (1.0 - eta)) * big_n:.6g}"
        )
    log_val = (
        math.log(2.0)
        + 7.0 * math.log(big_n + K)
        - 3.0 * math.log(big_n)
        - 2.0 * big_n ** 3 / ((big_n + K) ** 2 * math.log(2.0))
    )
    if log_val >= 0.0:
        return 1.0
    if log_val < -745.0:  # below double-precision underflow
        return 0.0
    return math.exp(log_val)


def volume_T(n: int, eta: float) -> float:
    """Volume prefactor T(n, eta) = (n-1)(n-2)^2(n-3) / (12 (1-eta)^4).

    The integer part is one correctly rounded int/int division.  It stays
    below K^4/12 at K = n/(1-eta).
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n!r}")
    if not 0.0 <= eta < 1.0:
        raise DomainError(f"eta must be in [0, 1), got {eta!r}")
    return ((n - 1) * (n - 2) ** 2 * (n - 3) / 12) / (1.0 - eta) ** 4


def photon_cutoff(n: int, k: int, d_a: float, d_b: float, eps: float) -> int:
    """Certified photon-number cutoff K after an energy test on k modes.

    K = max{1, n (d_A + d_B) (1 + 2 sqrt(ln(8/eps)/(2n)) + ln(8/eps)/n)
                            / (1 - 2 sqrt(ln(8/eps)/(2k)))},
    ceiled to an integer.  Requires k > 2 ln(8/eps).
    """
    if n < 1 or k < 1:
        raise DomainError(f"n, k must be >= 1, got {n!r}, {k!r}")
    if d_a < 0 or d_b < 0:
        raise DomainError(f"thresholds must be >= 0, got {d_a!r}, {d_b!r}")
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must be in (0, 1), got {eps!r}")
    big_l = math.log(8.0 / eps)
    den = 1.0 - 2.0 * math.sqrt(big_l / (2.0 * k))
    if den <= 0.0:
        raise RegimeError(
            f"k={k} must exceed 2 ln(8/eps) = {2.0 * big_l:.6g}"
        )
    num = 1.0 + 2.0 * math.sqrt(big_l / (2.0 * n)) + big_l / n
    k_real = n * (d_a + d_b) * num / den
    return max(1, math.ceil(k_real))


def general_attack_epsilon(eps_collective: float, K: int) -> float:
    """Security parameter against general attacks: (2 + K^4/6) eps.

    This is the whole composition the package implements:
    eps_general = (2 + K^4/6) eps_collective, with K the photon cutoff of
    the energy test.  Neither the energy test's own failure probability
    (the eps_test of `make_reduction_report`) nor `truncation_epsilon` is
    added.  The bound is vacuous when the result is >= 1, that is once
    K > (6/eps_collective)^(1/4), about 280 at eps_collective = 1e-9.
    """
    if not 0.0 < eps_collective < 1.0:
        raise DomainError(
            f"eps_collective must be in (0, 1), got {eps_collective!r}"
        )
    if K < 1:
        raise DomainError(f"K must be >= 1, got {K!r}")
    prefactor = 2.0 + int(K) ** 4 / 6
    return prefactor * eps_collective


def energy_test(alice_energies, bob_energies, k_test: int, d_a: float,
                d_b: float) -> bool:
    """Pass iff both per-side totals over the k_test modes stay within
    k_test * d_a and k_test * d_b.

    Inputs are per-mode state energies (for heterodyne records, use
    (x^2 + p^2)/2 - 1, i.e. after removing the one-vacuum-unit offset).
    """
    if k_test < 1:
        raise DomainError(f"k_test must be >= 1, got {k_test!r}")
    a = np.asarray(alice_energies, dtype=float)
    b = np.asarray(bob_energies, dtype=float)
    if a.shape != (k_test,) or b.shape != (k_test,):
        raise DimensionMismatch(
            f"expected {k_test} energies per side, got"
            f" {a.shape} and {b.shape}"
        )
    return bool(a.sum() <= k_test * d_a and b.sum() <= k_test * d_b)


@dataclass(frozen=True)
class ReductionReport:
    """General-attack reduction summary for one run."""

    n_modes: int
    k_test: int
    d_a: float
    d_b: float
    eta: float
    K: int
    t_n_eta: float
    eps_collective: float
    eps_general: float
    key_reduction: int

    CSV_HEADER = (
        "n", "k", "d_A", "d_B", "eta", "K", "T_n_eta",
        "eps_collective", "eps_general", "key_reduction",
    )


def make_reduction_report(
    n_modes: int,
    k_test: int,
    d_a: float,
    d_b: float,
    eps_test: float,
    eps_collective: float,
) -> ReductionReport:
    """Compose the reduction numbers for a run of n_modes protocol modes,
    certified by an energy test on k_test modes per side with per-mode
    thresholds d_a, d_b and failure probability eps_test.

    eta sits on the truncation-validity boundary: the rounded K/(K + n - 5),
    stepped up by ulps until `truncation_epsilon` accepts the cutoff K.
    """
    K = photon_cutoff(n_modes, k_test, d_a, d_b, eps_test)
    big_n = max(n_modes - 5, 1)
    eta = K / (K + big_n)
    while eta < 1.0 and K > (eta / (1.0 - eta)) * big_n:
        eta = math.nextafter(eta, 1.0)
    return ReductionReport(
        n_modes=int(n_modes),
        k_test=int(k_test),
        d_a=float(d_a),
        d_b=float(d_b),
        eta=float(eta),
        K=int(K),
        t_n_eta=volume_T(n_modes, eta),
        eps_collective=float(eps_collective),
        eps_general=general_attack_epsilon(eps_collective, K),
        key_reduction=key_reduction_bits(K),
    )
