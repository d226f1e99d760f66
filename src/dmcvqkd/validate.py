"""Monte Carlo validation of the concentration bounds.

Each row measures the empirical violation frequency of one claimed tail
bound and compares it against the claimed probability plus three binomial
standard errors.  Sampling models:

- chi-square rows draw the statistic directly;
- half-split rows use the exact sphere-uniform representation of a random
  symmetric split (a Beta-distributed norm fraction);
- paired-vector rows (lemma3, lemma4, pe-theorem) model i.i.d.
  bivariate-normal entries, under which a coordinate half-split is
  distributed like a uniformly random split (exchangeability), matching the
  rotation-symmetrized setting.  They never build the vectors: a half's
  (||X||^2, ||Y||^2, <X,Y>) is a 2x2 Wishart matrix, drawn exactly from two
  chi-squares and one normal per trial (`_wishart2`), and the two halves
  are independent, so whole-vector statistics are sums of the halves'.
  These rows judge the draws with the shipped `pe.inner_product_bounds`,
  `pe.cross_half_bounds` and `pe.gamma_estimates`, called on whole arrays;
- the estimator-chain row simulates the honest channel end to end.

All draws are chunked with counter-based substreams keyed by
(seed, row index, chunk index), so results are reproducible for a given
seed regardless of scheduling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import pe
from .errors import ValidityRange
from .modulation import correlation_z

_CHUNK = 4096


@dataclass(frozen=True)
class BoundRow:
    """One validated bound: claimed vs observed violation frequency."""

    lemma: str
    k: int
    param: float  # epsilon or exponent x, per the lemma's parametrization
    claimed: float
    observed: float
    trials: int
    verdict: str  # "ok" | "violated" | "regime-error"

    CSV_HEADER = ("lemma", "k", "epsilon_or_x", "claimed", "observed",
                  "trials", "verdict")


def _verdict(claimed: float, observed: float, trials: int) -> str:
    se = math.sqrt(max(claimed * (1.0 - claimed), 0.0) / trials)
    return "ok" if observed <= claimed + 3.0 * se else "violated"


def _rng(seed, row: int, chunk: int) -> np.random.Generator:
    word = ((row & 0xFFFFFFFF) << 32) | (chunk & 0xFFFFFFFF)
    return np.random.Generator(
        np.random.Philox(key=(int(seed) & (2**64 - 1), word))
    )


def _chunks(trials: int):
    done = 0
    idx = 0
    while done < trials:
        size = min(_CHUNK, trials - done)
        yield idx, size
        done += size
        idx += 1


def lemma1_violations(seed, row: int, k: int, x: float, trials: int) -> tuple:
    """Observed upper/lower tail violation counts for chi-square(k)."""
    up_thr, lo_thr = pe.chi2_tail_thresholds(k, x)
    up = lo = 0
    for ci, size in _chunks(trials):
        u = _rng(seed, row, ci).chisquare(k, size)
        up += int(np.count_nonzero(u - k >= up_thr))
        lo += int(np.count_nonzero(k - u >= lo_thr))
    return up, lo


def lemma2_violations(seed, row: int, k: int, epsilon: float,
                      trials: int) -> int:
    """Interval violations for the norm of a random symmetric half.

    The norm fraction of a uniformly random half (k modes out of 2k) of a
    fixed-norm vector is Beta(k, k); sampled via two chi-squares.
    """
    norm_x2 = 2.0 * 2.0 * k  # a fixed reference norm (value irrelevant)
    lower, upper = pe.projection_bounds(norm_x2, k, epsilon)
    bad = 0
    for ci, size in _chunks(trials):
        g = _rng(seed, row, ci)
        u = g.chisquare(2 * k, size)
        v = g.chisquare(2 * k, size)
        half = norm_x2 * u / (u + v)
        bad += int(np.count_nonzero((half < lower) | (half > upper)))
    return bad


def _wishart2(g: np.random.Generator, dof: int, size: int, sx: float,
              sy: float, r: float) -> tuple:
    """(sum x^2, sum y^2, sum x*y) over `dof` i.i.d. bivariate-normal pairs.

    Entries have standard deviations sx, sy and correlation r.  Exact
    Bartlett decomposition of the 2x2 Wishart matrix (Smith & Hocking 1972,
    Applied Statistics AS 53): with c1^2 ~ chi2(dof), c2^2 ~ chi2(dof - 1),
    z ~ N(0, 1) and s = sqrt(1 - r^2), the statistics are sx^2 c1^2,
    sy^2 ((r c1 + s z)^2 + s^2 c2^2) and sx sy c1 (r c1 + s z).
    """
    c1sq = g.chisquare(dof, size)
    c2sq = g.chisquare(dof - 1, size)
    z = g.standard_normal(size)
    s = math.sqrt(1.0 - r * r)
    c1 = np.sqrt(c1sq)
    t = r * c1 + s * z
    return (sx * sx * c1sq, sy * sy * (t * t + s * s * c2sq),
            sx * sy * c1 * t)


def lemma3_violations(seed, row: int, k: int, x: float, trials: int,
                      r: float = 0.6) -> tuple:
    """(two_sided, one_sided) violation counts for the split inner product.

    Vectors hold 2k modes (4k entries); halves are k modes each.
    """
    two = one = 0
    for ci, size in _chunks(trials):
        g = _rng(seed, row, ci)
        nx1, ny1, ip1 = _wishart2(g, 2 * k, size, 1.0, 1.0, r)
        nx2, ny2, ip2 = _wishart2(g, 2 * k, size, 1.0, 1.0, r)
        b = pe.inner_product_bounds(nx1 + nx2, ny1 + ny2, ip1 + ip2, k, x)
        two += int(np.count_nonzero((ip1 < b.lower) | (ip1 > b.upper)))
        one += int(np.count_nonzero(ip1 < b.one_sided_lower))
    return two, one


def lemma4_violations(seed, row: int, k: int, epsilon: float, trials: int,
                      r: float = 0.6, log_base: str = "natural") -> tuple:
    """(upper, lower, ip) violation counts for the cross-half bounds."""
    up = lo = ipv = 0
    for ci, size in _chunks(trials):
        g = _rng(seed, row, ci)
        nx1, ny1, ip1 = _wishart2(g, 2 * k, size, 1.0, 1.0, r)
        nx2, _, ip2 = _wishart2(g, 2 * k, size, 1.0, 1.0, r)
        b = pe.cross_half_bounds(nx1, ip1, k, epsilon, ny1, log_base)
        up += int(np.count_nonzero(nx2 > b.upper_other))
        lo += int(np.count_nonzero(nx2 < b.lower_other))
        ipv += int(np.count_nonzero(ip2 < b.ip_lower))
    return up, lo, ipv


def pe_theorem_violations(seed, row: int, k: int, eps_pe: float,
                          trials: int, alpha: float = 0.5, T: float = 0.6,
                          xi: float = 0.05,
                          log_base: str = "natural") -> int:
    """Count honest-channel runs where an estimator misses the true value.

    Bad event: gamma_a < V, gamma_b < Sigma_b, or gamma_c > sqrt(T) Z —
    the directions in which the worst-case estimators must err on the safe
    side.  Honest draws come straight from the joint record law (the
    symmetrization leaves that law invariant).
    """
    v_a = 2.0 * alpha * alpha
    v = v_a + 1.0
    sigma_b = T * v_a + 1.0 + T * xi
    z_bar = math.sqrt(T) * correlation_z(alpha)
    va2 = (v + 1.0) / 2.0
    vb2 = (sigma_b + 1.0) / 2.0
    rho = z_bar / 2.0
    r = rho / math.sqrt(va2 * vb2)
    bad = 0
    for ci, size in _chunks(trials):
        g = _rng(seed, row, ci)
        nx, ny, ip = _wishart2(g, 4 * k, size, math.sqrt(va2),
                               math.sqrt(vb2), r)
        g_a, g_b, g_c = pe.gamma_estimates(nx, ny, ip, k, eps_pe, log_base)
        bad += int(
            np.count_nonzero((g_a < v) | (g_b < sigma_b) | (g_c > z_bar))
        )
    return bad


def run_all(seed, trials: int, log_base: str = "natural") -> list:
    """All validation rows with their default parameters."""
    rows = []
    row_id = 0

    for x in (1.0, 2.0, 4.0):
        up, lo = lemma1_violations(seed, row_id, 100, x, trials)
        claimed = math.exp(-x)
        rows.append(BoundRow("lemma1-upper", 100, x, claimed, up / trials,
                             trials, _verdict(claimed, up / trials, trials)))
        rows.append(BoundRow("lemma1-lower", 100, x, claimed, lo / trials,
                             trials, _verdict(claimed, lo / trials, trials)))
        row_id += 1

    bad = lemma2_violations(seed, row_id, 100, 0.05, trials)
    rows.append(BoundRow("lemma2-interval", 100, 0.05, 2 * 0.05,
                         bad / trials, trials,
                         _verdict(0.1, bad / trials, trials)))
    row_id += 1

    two, one = lemma3_violations(seed, row_id, 200, 2.0, trials)
    c2 = 8.0 * math.exp(-2.0)
    c1 = 4.0 * math.exp(-2.0)
    rows.append(BoundRow("lemma3-two-sided", 200, 2.0, c2, two / trials,
                         trials, _verdict(c2, two / trials, trials)))
    rows.append(BoundRow("lemma3-one-sided", 200, 2.0, c1, one / trials,
                         trials, _verdict(c1, one / trials, trials)))
    row_id += 1

    up, lo, ipv = lemma4_violations(seed, row_id, 500, 0.05, trials)
    for name, cnt, claimed in (
        ("lemma4-norm-upper", up, 0.05),
        ("lemma4-norm-lower", lo, 0.05),
        ("lemma4-ip-lower", ipv, 4 * 0.05),
    ):
        rows.append(BoundRow(name, 500, 0.05, claimed, cnt / trials,
                             trials, _verdict(claimed, cnt / trials, trials)))
    row_id += 1

    # validity-edge probe: documented as a reported row, not a crash
    try:
        pe.cross_half_bounds(1.0, 0.0, 5, 1e-9, 1.0)
        edge_verdict = "ok"
    except ValidityRange:
        edge_verdict = "regime-error"
    rows.append(BoundRow("lemma4-validity-edge", 5, 1e-9, float("nan"),
                         float("nan"), 0, edge_verdict))
    row_id += 1

    pe_trials = min(trials, 20000)
    bad = pe_theorem_violations(seed, row_id, 500, 1e-3, pe_trials)
    rows.append(BoundRow("pe-theorem", 500, 1e-3, 1e-3, bad / pe_trials,
                         pe_trials,
                         _verdict(1e-3, bad / pe_trials, pe_trials)))
    return rows
