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
  chi-squares and one normal per trial (`channel.wishart2`, the sampler
  `simulate` draws its PE statistics with), and the two halves are
  independent, so whole-vector statistics are sums of the halves'.
  These rows judge the draws with the shipped `pe.inner_product_bounds`,
  `pe.cross_half_bounds` and `pe.gamma_estimates`, called on whole arrays;
  the pe-theorem row draws the honest channel's whole-vector W with the
  entry law `simulate` uses (`channel.gaussian_record_law`).

All draws are chunked with counter-based substreams keyed by
(seed, row index, chunk index), so results are reproducible for a given
seed regardless of scheduling: `run_all` runs the row families on several
threads, and the integer counts they return do not depend on which thread
ran them or when.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import pe
from .channel import gaussian_record_law, wishart2
from .errors import ValidityRange
from .modulation import honest_covariance
from .parallel import run_parts

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


def _row(lemma: str, k: int, param: float, claimed: float, count: int,
         trials: int) -> BoundRow:
    """The row of `count` violations in `trials` draws, with its verdict."""
    observed = count / trials
    se = math.sqrt(max(claimed * (1.0 - claimed), 0.0) / trials)
    verdict = "ok" if observed <= claimed + 3.0 * se else "violated"
    return BoundRow(lemma, k, param, claimed, observed, trials, verdict)


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


def lemma3_violations(seed, row: int, k: int, x: float, trials: int,
                      r: float = 0.6) -> tuple:
    """(two_sided, one_sided) violation counts for the split inner product.

    Vectors hold 2k modes (4k entries); halves are k modes each.
    """
    two = one = 0
    for ci, size in _chunks(trials):
        g = _rng(seed, row, ci)
        nx1, ny1, ip1 = wishart2(g, 2 * k, size, 1.0, 1.0, r)
        nx2, ny2, ip2 = wishart2(g, 2 * k, size, 1.0, 1.0, r)
        b = pe.inner_product_bounds(nx1 + nx2, ny1 + ny2, ip1 + ip2, k, x)
        two += int(np.count_nonzero((ip1 < b.lower) | (ip1 > b.upper)))
        one += int(np.count_nonzero(ip1 < b.one_sided_lower))
    return two, one


def lemma4_violations(seed, row: int, k: int, epsilon: float, trials: int,
                      r: float = 0.6) -> tuple:
    """(upper, lower, ip) violation counts for the cross-half bounds."""
    up = lo = ipv = 0
    for ci, size in _chunks(trials):
        g = _rng(seed, row, ci)
        nx1, ny1, ip1 = wishart2(g, 2 * k, size, 1.0, 1.0, r)
        nx2, _, ip2 = wishart2(g, 2 * k, size, 1.0, 1.0, r)
        b = pe.cross_half_bounds(nx1, ip1, k, epsilon, ny1)
        up += int(np.count_nonzero(nx2 > b.upper_other))
        lo += int(np.count_nonzero(nx2 < b.lower_other))
        ipv += int(np.count_nonzero(ip2 < b.ip_lower))
    return up, lo, ipv


def pe_theorem_violations(seed, row: int, k: int, eps_pe: float,
                          trials: int, alpha: float = 0.5, T: float = 0.6,
                          xi: float = 0.05) -> int:
    """Count honest-channel runs where an estimator misses the true value.

    Bad event: gamma_a < V, gamma_b < Sigma_b, or gamma_c > sqrt(T) Z —
    the directions in which the worst-case estimators must err on the safe
    side.  Honest draws come straight from the joint record law (the
    symmetrization leaves that law invariant).
    """
    v, sigma_b, z_bar = honest_covariance(alpha, T, xi)
    sx, sy, r = gaussian_record_law(alpha, T, xi)
    bad = 0
    for ci, size in _chunks(trials):
        g = _rng(seed, row, ci)
        nx, ny, ip = wishart2(g, 4 * k, size, sx, sy, r)
        g_a, g_b, g_c = pe.gamma_estimates(nx, ny, ip, k, eps_pe)
        bad += int(
            np.count_nonzero((g_a < v) | (g_b < sigma_b) | (g_c > z_bar))
        )
    return bad


def run_all(seed, trials: int, workers=None) -> list:
    """All validation rows with their default parameters.

    The row families are independent calls; they run on `workers` threads
    (None: every usable core), longest first, and the rows keep their
    order.
    """
    pe_trials = min(trials, 20000)
    # (family, seed, row index, k, x or epsilon, trials); row index 6 is
    # the validity-edge probe, which draws nothing
    calls = [
        (lemma3_violations, seed, 4, 200, 2.0, trials),
        (lemma4_violations, seed, 5, 500, 0.05, trials),
        (pe_theorem_violations, seed, 7, 500, 1e-3, pe_trials),
        (lemma2_violations, seed, 3, 100, 0.05, trials),
    ] + [(lemma1_violations, seed, row, 100, x, trials)
         for row, x in enumerate((1.0, 2.0, 4.0))]
    (two, one), (up4, lo4, ipv), bad_pe, bad2, *lemma1 = run_parts(
        lambda family, *args: family(*args), calls, workers)

    rows = []
    for x, (up, lo) in zip((1.0, 2.0, 4.0), lemma1):
        claimed = math.exp(-x)
        rows += [_row("lemma1-upper", 100, x, claimed, up, trials),
                 _row("lemma1-lower", 100, x, claimed, lo, trials)]
    rows += [
        _row("lemma2-interval", 100, 0.05, 2 * 0.05, bad2, trials),
        _row("lemma3-two-sided", 200, 2.0, 8.0 * math.exp(-2.0), two, trials),
        _row("lemma3-one-sided", 200, 2.0, 4.0 * math.exp(-2.0), one, trials),
        _row("lemma4-norm-upper", 500, 0.05, 0.05, up4, trials),
        _row("lemma4-norm-lower", 500, 0.05, 0.05, lo4, trials),
        _row("lemma4-ip-lower", 500, 0.05, 4 * 0.05, ipv, trials),
    ]

    # validity-edge probe: documented as a reported row, not a crash
    try:
        pe.cross_half_bounds(1.0, 0.0, 5, 1e-9, 1.0)
        edge_verdict = "ok"
    except ValidityRange:
        edge_verdict = "regime-error"
    rows.append(BoundRow("lemma4-validity-edge", 5, 1e-9, float("nan"),
                         float("nan"), 0, edge_verdict))

    rows.append(_row("pe-theorem", 500, 1e-3, 1e-3, bad_pe, pe_trials))
    return rows
