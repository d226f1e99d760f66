"""Composable finite-size key accounting and privacy amplification.

All entropies and lengths are in bits.  The length formula balances

    l = 2n [2 H_hat - f(region)] - leak_EC - Delta_AEP - Delta_ent

where n is the quadrature-pair count (the run holds 2n key modes and
4n raw key bits), H_hat is the empirical entropy per binary sub-symbol
(per quadrature sign; the 4-ary quadrant MLE entropy halves into it),
and f is the eavesdropper bound evaluated at the worst-case corner of
the parameter-estimation region.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LengthError, PrecisionLoss
from .gaussian import holevo_f


@dataclass(frozen=True)
class SecurityBudget:
    """Failure-probability budget of one run."""

    eps_pe: float
    eps_sm: float
    eps_ent: float
    eps_cor: float
    p_ec: float = 0.99
    eps_rob: float = 1e-2

    def __post_init__(self):
        for name in ("eps_pe", "eps_sm", "eps_ent", "eps_cor", "eps_rob"):
            val = getattr(self, name)
            if not 0.0 < val < 1.0:
                raise DomainError(f"{name} must be in (0, 1), got {val!r}")
        if not 0.0 < self.p_ec <= 1.0:
            raise DomainError(f"p_ec must be in (0, 1], got {self.p_ec!r}")
        if not self.eps_total < 1.0:
            raise DomainError(
                f"total epsilon {self.eps_total!r} must be below 1"
            )

    @property
    def eps_total(self) -> float:
        """Composed security parameter: exact sum of the four components."""
        return self.eps_pe + self.eps_sm + self.eps_ent + self.eps_cor


@dataclass(frozen=True)
class KeyLengthReport:
    """Key length with its full term decomposition (audit-identity exact)."""

    n_pairs: int
    modes: int
    raw_bits: int
    h_mle: float
    f_bits: float
    entropy_term: float
    holevo_term: float
    leak_ec: float
    delta_aep: float
    delta_ent: float
    eps_total: float
    l: float
    feasible: bool

    CSV_HEADER = (
        "n_pairs", "modes", "raw_bits", "h_mle", "f_bits", "entropy_term",
        "holevo_term", "leak_ec", "delta_aep", "delta_ent", "eps_total",
        "l", "feasible",
    )


def delta_aep(n: float, eps_sm: float, p_ec: float) -> float:
    """Finite-size penalty from the entropy accumulation step.

    sqrt(n) (16 + log2(2/eps_sm^2) + 8 sqrt(log2(2/eps_sm^2)))
    + 4 eps_sm / p_ec + log2(2/p_ec^2);  n is the i.i.d. subsystem count.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n!r}")
    if not 0.0 < eps_sm < 1.0:
        raise DomainError(f"eps_sm must be in (0, 1), got {eps_sm!r}")
    if not 0.0 < p_ec <= 1.0:
        raise DomainError(f"p_ec must be in (0, 1], got {p_ec!r}")
    t = 1.0 - 2.0 * math.log2(eps_sm)  # log2(2/eps^2)
    return (
        math.sqrt(n) * (16.0 + t + 8.0 * math.sqrt(t))
        + 4.0 * eps_sm / p_ec
        + (1.0 - 2.0 * math.log2(p_ec))
    )


def mle_entropy(counts) -> float:
    """Plug-in (MLE) entropy of the empirical quadrant distribution, bits.

    Negatively biased as an estimator of the true entropy; bounded by
    log2(#symbols) = 2 for the four quadrant symbols.
    """
    arr = np.asarray(counts, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise DomainError(f"counts must be a 1-d vector, got shape {arr.shape}")
    if np.any(arr < 0):
        raise DomainError("counts must be non-negative")
    total = float(arr.sum())
    if total < 1:
        raise DomainError("counts must sum to at least 1")
    p = arr / total
    nz = p[p > 0]
    return float(-np.sum(nz * np.log2(nz)))


def delta_ent(n_rounds: float, eps_ent: float) -> float:
    """Entropy-estimation penalty n t, in bits, for n observed symbols.

    t = log2(n) sqrt(2 ln(2/eps_ent) / n) sets McDiarmid's bound for the
    plug-in entropy, P(|H_hat - E H_hat| >= t) <= 2 exp(-n t^2 /
    (2 log2(n)^2)), to eps_ent (one symbol moves H_hat by at most
    2 log2(n)/n; Antos & Kontoyiannis, Random Structures & Algorithms 19,
    2001).  H_hat is biased low, so H >= H_hat - t with probability at
    least 1 - eps_ent.  PAPER.md holds only the abstract, so the
    supplement's own form of this term cannot be checked against it.
    """
    if n_rounds < 1:
        raise DomainError(f"n_rounds must be >= 1, got {n_rounds!r}")
    if not 0.0 < eps_ent < 1.0:
        raise DomainError(f"eps_ent must be in (0, 1), got {eps_ent!r}")
    log_n = math.log2(n_rounds)
    t = log_n * math.sqrt(2.0 * math.log(2.0 / eps_ent) / n_rounds)
    return n_rounds * t


def key_length(
    params,
    budget: SecurityBudget,
    h_mle: float,
    region,
    leak_ec: float,
) -> KeyLengthReport:
    """Secure key length for one run, with full term decomposition.

    `h_mle` is the empirical entropy per binary sub-symbol (one quadrature
    sign), in [0, 1]; a 4-ary quadrant entropy must be halved before being
    passed here.  `region` is the (Sigma_a_max, Sigma_b_max, Sigma_c_min)
    corner; penalties are evaluated at the 2n key modes.
    """
    n = int(params.n)
    if n < 1:
        raise DomainError(f"params.n must be >= 1, got {n!r}")
    if not 0.0 <= h_mle <= 1.0 + 1e-12:
        raise DomainError(
            f"h_mle must be a per-quadrature entropy in [0, 1], got {h_mle!r}"
        )
    if leak_ec < 0:
        raise DomainError(f"leak_ec must be >= 0, got {leak_ec!r}")
    f = holevo_f(region)
    modes = 2 * n
    entropy_term = 2.0 * n * (2.0 * h_mle)
    holevo_term = 2.0 * n * f
    d_aep = delta_aep(modes, budget.eps_sm, budget.p_ec)
    d_ent = delta_ent(modes, budget.eps_ent)
    l = entropy_term - holevo_term - leak_ec - d_aep - d_ent
    return KeyLengthReport(
        n_pairs=n,
        modes=modes,
        raw_bits=4 * n,
        h_mle=float(h_mle),
        f_bits=f,
        entropy_term=entropy_term,
        holevo_term=holevo_term,
        leak_ec=float(leak_ec),
        delta_aep=d_aep,
        delta_ent=d_ent,
        eps_total=budget.eps_total,
        l=l,
        feasible=l > 0.0,
    )


def universal_hash(bits, seed, out_len: int) -> np.ndarray:
    """Two-universal (Toeplitz-family) hash of a bit string.

    The Toeplitz diagonal is filled from a counter-based generator keyed by
    `seed` (big-endian bit expansion of the 64-bit words, so output is
    platform-independent).  Returns `out_len` bits as a uint8 array.
    """
    x = np.asarray(bits, dtype=np.uint8)
    if x.ndim != 1:
        raise DomainError(f"bits must be 1-d, got shape {x.shape}")
    return toeplitz_hasher(seed, x.size, out_len)(x)


def toeplitz_hasher(seed, n_in: int, out_len: int):
    """The function `universal_hash(bits, seed, out_len)` of n_in-bit strings.

    The Toeplitz bits are drawn and their spectrum taken once, so hashing
    two strings with one seed costs one transform of the seed, not two.
    """
    if out_len < 0 or out_len > n_in:
        raise LengthError(
            f"out_len must be in [0, {n_in}], got {out_len!r}"
        )
    t_len = n_in + out_len - 1
    size = 1 << max(t_len - 1, 0).bit_length()
    if out_len > 0:
        words = np.random.Philox(key=seed).random_raw((t_len + 63) // 64)
        tbits = np.unpackbits(words.astype(">u8").view(np.uint8))[:t_len]
        t_spectrum = np.fft.rfft(tbits, size)

    def hash_bits(bits) -> np.ndarray:
        x = np.asarray(bits, dtype=np.uint8)
        if x.shape != (n_in,):
            raise LengthError(f"bits have shape {x.shape}, expected "
                              f"({n_in},)")
        if np.any(x > 1):
            raise DomainError("bits must be 0/1 valued")
        if out_len == 0:
            return np.zeros(0, dtype=np.uint8)
        # out[i] = parity of sum_j x[j] * t[n_in - 1 + i - j]: a Toeplitz
        # form.  These entries of x * t take no wrap-around in a cyclic
        # convolution of any length >= t_len; a power of two keeps the FFT
        # fast at every size
        conv = np.fft.irfft(np.fft.rfft(x, size) * t_spectrum, size)
        seg = conv[n_in - 1 : n_in - 1 + out_len]
        # every entry is an integer count; a residual near 0.5 would round
        # to the wrong neighbour and flip its parity without a trace
        rounded = np.rint(seg)
        residual = float(np.max(np.abs(seg - rounded)))
        if residual >= 0.25:
            raise PrecisionLoss(
                f"FFT convolution of {n_in} x {t_len} bits is off an "
                f"integer by {residual:.3g}; its parities cannot be trusted"
            )
        return (rounded.astype(np.int64) & 1).astype(np.uint8)

    return hash_bits
