"""Error-correction accounting and the repetition-code mechanics.

The capacity is per binary symbol (one quadrature sign); a mode carries two
such symbols.  The leakage model prices reverse reconciliation at rate
R = beta * C_BIAWGN(s) per symbol plus the verification hash.

The repetition scheme is the disclosed-side-information construction: Bob
reveals all magnitudes and the in-block relative signs, keeping one secret
sign per block; Alice decodes that sign from her correlated values by a
matched-filter vote.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, DomainError
from .finitekey import toeplitz_hasher

# Trapezoid nodes for an expectation over Z ~ N(0, 1): step 0.1 on [-40, 40],
# Gaussian weights from math.exp (np.exp's bits follow the CPU) summing to 1
_Z = np.linspace(-40.0, 40.0, 801)
_W = np.array([math.exp(-0.5 * z * z) for z in _Z.tolist()])
_W /= _W.sum()


def snr(v_a: float, T: float, xi: float) -> float:
    """Per-symbol signal-to-noise ratio s = T V_A / (2 + T xi)."""
    if not 0.0 < T <= 1.0:
        raise DomainError(f"T must be in (0, 1], got {T!r}")
    if xi < 0.0:
        raise DomainError(f"xi must be >= 0, got {xi!r}")
    if v_a <= 0.0:
        raise DomainError(f"V_A must be > 0, got {v_a!r}")
    return T * v_a / (2.0 + T * xi)


def biawgn_capacity(s: float) -> float:
    """Capacity (bits/symbol) of the binary-input AWGN channel at SNR s.

    With +sqrt(s) sent through unit-variance noise, the log-likelihood
    ratio is 2x with x = s + sqrt(s) Z, Z ~ N(0, 1), and

        C ln 2 = ln 2 - E[ln(1 + e^(-2x))] = s - E[ln cosh x].

    For s <= 1 the second form runs as s - E[log1p(2 sinh^2(x/2))], for
    s > 1 the first as ln 2 - E[logaddexp(0, -2x)]; neither subtraction
    cancels by more than about a factor 3.  E is the trapezoid sum over
    801 fixed nodes, Z in [-40, 40] at step 0.1.  Both integrands are
    smooth, so the sum converges geometrically: against 30-digit mpmath
    on s in [1e-8, 1e6], and the series C ln 2 = s/2 - s^2/4 below, the
    relative error is at most 1.5e-15 (at s = 20).
    """
    if not 0.0 < s < math.inf:
        raise DomainError(f"s must be finite and > 0, got {s!r}")
    x = s + math.sqrt(s) * _Z
    if s <= 1.0:
        sh = np.sinh(0.5 * x)
        c = s - float((_W * np.log1p(2.0 * sh * sh)).sum())
    else:
        # -2x overflows to -inf for s above about 9e307, where the
        # logaddexp term is 0 as it should be
        with np.errstate(over="ignore"):
            c = math.log(2.0) - float((_W * np.logaddexp(0.0, -2.0 * x)).sum())
    c /= math.log(2.0)
    # the exact value lies strictly inside (0, 1); clip round-off
    # excursions back into the open interval so the strict bound survives
    # saturation (1 - C underflows below one ulp for s around 70)
    return min(max(c, 0.0), math.nextafter(1.0, 0.0))


def hash_length(eps_cor: float) -> int:
    """Verification-hash length ceil(log2(1/eps_cor)) in bits."""
    if not 0.0 < eps_cor < 1.0:
        raise DomainError(f"eps_cor must be in (0, 1), got {eps_cor!r}")
    return max(1, math.ceil(math.log2(1.0 / eps_cor)))


def leak_model(n_pairs: int, beta: float, s: float, eps_cor: float) -> float:
    """Bits disclosed during reconciliation of n_pairs quadrature pairs.

    Each pair (mode) carries two binary symbols corrected at rate
    R = beta * C_BIAWGN(s):

        leak = 2 n_pairs (1 - R) + ceil(log2(1/eps_cor)).
    """
    if n_pairs < 0:
        raise DomainError(f"n_pairs must be >= 0, got {n_pairs!r}")
    if not 0.0 < beta <= 1.0:
        raise DomainError(f"beta must be in (0, 1], got {beta!r}")
    rate = beta * biawgn_capacity(s)
    return 2.0 * n_pairs * (1.0 - rate) + hash_length(eps_cor)


class RepetitionSideInfo(NamedTuple):
    """Disclosed reconciliation data: all magnitudes, in-block sign products.

    sign_products[i, j] = sign(y_block_first) * sign(y_block_j+2) in
    {-1, +1}; the leading implicit entry of every block is +1 and is not
    stored or counted.
    """

    magnitudes: np.ndarray
    sign_products: np.ndarray


def _signs(values: np.ndarray) -> np.ndarray:
    # zeros count as positive, matching the quadrant tie-break
    return np.where(values >= 0.0, 1.0, -1.0)


def repetition_reconcile(y, k_rep: int):
    """Split Bob's values into blocks, keep one sign per block.

    Returns (y_hard, side_info, disclosed_bits): y_hard[i] in {-1, +1} is
    the sign of block i's first element; side_info carries the N
    magnitudes and the (k_rep - 1) * N / k_rep relative signs;
    disclosed_bits counts exactly those binary relative signs.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise DimensionMismatch(f"y must be 1-d, got shape {y.shape}")
    if k_rep < 1:
        raise DomainError(f"k_rep must be >= 1, got {k_rep!r}")
    if y.size == 0 or y.size % k_rep != 0:
        raise DimensionMismatch(
            f"length {y.size} not a positive multiple of k_rep={k_rep}"
        )
    blocks = y.reshape(-1, k_rep)
    signs = _signs(blocks)
    y_hard = signs[:, 0].copy()
    sign_products = signs[:, :1] * signs[:, 1:]
    side = RepetitionSideInfo(
        magnitudes=np.abs(y), sign_products=sign_products
    )
    disclosed = int(sign_products.size)
    return y_hard, side, disclosed


def repetition_decode(x, side_info: RepetitionSideInfo, k_rep: int) -> np.ndarray:
    """Alice's estimate of y_hard from her correlated values x.

    Matched-filter vote: for block i the statistic is
    sum_j x_ij * s_ij * |y_ij| with s_i1 = +1; its sign is the guess.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size % k_rep != 0:
        raise DimensionMismatch(
            f"x of shape {x.shape} incompatible with k_rep={k_rep}"
        )
    mags = side_info.magnitudes.reshape(-1, k_rep)
    if mags.shape[0] != x.size // k_rep:
        raise DimensionMismatch("side_info does not match the block count")
    full_signs = np.concatenate(
        [np.ones((mags.shape[0], 1)), side_info.sign_products], axis=1
    )
    stat = np.sum(x.reshape(-1, k_rep) * full_signs * mags, axis=1)
    return _signs(stat)


def repetition_bits(x, y, k_rep: int) -> tuple:
    """(bits_b, bits_a): Bob's and Alice's bit of every repetition block.

    x = (x_even, x_odd) and y = (y_even, y_odd) are Alice's and Bob's
    streams x_even[0], x_odd[0], x_even[1], ... given by their two halves,
    so neither stream is built.  A bit is 1 where the sign is negative.
    These are the bits (y_hard < 0) and (decoded < 0) of
    `repetition_reconcile` and `repetition_decode`, bit for bit, reduced in
    one pass without the side information.

    Bob's bit is the sign of the block's first value y_0.  Alice's matched
    filter sum_j (x_j s_0 s_j) |y_j| is s_0 sum_j fl(x_j y_j): every sign
    product is exact, and the pairwise row sum is the same for a common
    sign.  Only the sign of a zero term may differ, and a zero total counts
    positive either way.
    """
    (x_even, x_odd), (y_even, y_odd) = x, y
    products = np.empty((x_even.size, 2))
    np.multiply(x_even, y_even, out=products[:, 0])
    np.multiply(x_odd, y_odd, out=products[:, 1])
    sums = np.sum(products.reshape(-1, k_rep), axis=1)
    first = np.arange(0, 2 * x_even.size, k_rep)
    y_first = np.where(first % 2 == 0, y_even[first // 2], y_odd[first // 2])
    # `not >= 0` is _signs' tie-break: zeros count positive
    bits_b = ~(y_first >= 0.0)
    bits_a = ~(np.where(bits_b, -sums, sums) >= 0.0)
    return bits_b.view(np.uint8), bits_a.view(np.uint8)


def verify_hash(string_a, string_b, eps_cor: float, seed) -> bool:
    """Compare two-universal hashes of both strings.

    The hash is `finitekey.toeplitz_hasher(seed, ...)`, `seed` a seed or a
    key (seed, *s).  Equal strings pass for every seed; unequal strings
    pass with probability at most eps_cor over uniformly chosen seeds (hash
    length ceil(log2(1/eps_cor))).
    """
    a = np.asarray(string_a, dtype=np.uint8)
    b = np.asarray(string_b, dtype=np.uint8)
    if a.shape != b.shape:
        raise DimensionMismatch(f"length mismatch {a.shape} vs {b.shape}")
    if a.ndim != 1:
        raise DomainError(f"bits must be 1-d, got shape {a.shape}")
    hash_bits = toeplitz_hasher(seed, a.size,
                                min(hash_length(eps_cor), a.size))
    return bool(np.array_equal(hash_bits(a), hash_bits(b)))
