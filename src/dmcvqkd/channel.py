"""Monte Carlo simulation of the four-state protocol rounds.

Round roles
-----------
A run of n key, m decoy and k gaussian pairs holds 2n + 2m + 2k rounds, laid
out as three contiguous blocks in that order; the three block lengths are
the only record of which round has which role.

key      : Alice records the complex modulation amplitude (as its two
           quadrature components), Bob records a heterodyne outcome of the
           channel output.
decoy    : same channel, but Alice modulates with a centered Gaussian of the
           same variance V_A (used for disclosure-style diagnostics).
gaussian : both records are drawn from the joint heterodyne distribution of
           the purified (entanglement-based) protocol state; these rounds
           feed parameter estimation.

Units: every stored number is a heterodyne-style outcome, i.e. for a state
with quadrature variance v the record has variance (v + 1)/2 per entry
(signal plus one vacuum unit, halved by the balanced splitting).  The key
rounds' Alice record is the modulation itself: for quadrant q the mean of
bob_x is sqrt(T) * sqrt(2) * alpha * cos((2q+1) pi/4).

Randomness: a counter-based generator (Philox) keyed by the seed.  Each
round owns a fixed window of 8 64-bit words regardless of chunking or
worker count, so results are reproducible bit-for-bit under any
parallel schedule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain, repeat
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    DomainError,
    EmptySelection,
    InsufficientRounds,
)
from .modulation import CONSTELLATION_PHASES, honest_covariance
from .parallel import run_parts
from .rotations import OrthogonalTransform, _philox_uniforms

ROLE_KEY = 0
ROLE_DECOY = 1
ROLE_GAUSSIAN = 2
ROLE_NAMES = ("key", "decoy", "gaussian")

#: 64-bit words of randomness reserved per round
WORDS_PER_ROUND = 8
#: rounds generated per chunk (fixed; independent of worker count)
CHUNK_ROUNDS = 8192

CSV_HEADER = ("round", "role", "ax", "ap", "bx", "bp")
#: one batch.csv line; export_batch renders a whole chunk of them per call
_CSV_ROW = "%d,%s,%.17g,%.17g,%.17g,%.17g\r\n"


@dataclass(frozen=True)
class ProtocolParams:
    """Physical and protocol parameters of one run."""

    alpha: float
    T: float
    xi: float
    n: int  # the run holds 2n key modes (4n raw bits)
    m: int  # 2m decoy modes
    k: int  # 2k gaussian modes; each parameter-estimation half gets k

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ConfigError(f"alpha must be positive, got {self.alpha!r}")
        if not 0.0 < self.T <= 1.0:
            raise ConfigError(f"T must be in (0, 1], got {self.T!r}")
        if self.xi < 0.0:
            raise ConfigError(f"xi must be non-negative, got {self.xi!r}")
        for name in ("n", "m", "k"):
            val = getattr(self, name)
            if not isinstance(val, (int, np.integer)) or val < 0:
                raise ConfigError(f"{name} must be a non-negative int, got {val!r}")
        if self.n + self.m + self.k <= 0:
            raise ConfigError("at least one of n, m, k must be positive")

    @property
    def v_a(self) -> float:
        return 2.0 * self.alpha * self.alpha

    def with_xi(self, xi: float) -> "ProtocolParams":
        """Copy with the channel excess noise replaced (adversarial runs)."""
        return replace(self, xi=xi)


@dataclass
class QuadratureBatch:
    """Per-round quadrature records for both parties.

    The rounds form a key, a decoy and a gaussian block, in that order, of
    `counts` = (2n, 2m, 2k) rounds; `role_indices` gives each block as a
    slice of the four record arrays.
    """

    alice_x: np.ndarray
    alice_p: np.ndarray
    bob_x: np.ndarray
    bob_p: np.ndarray
    counts: tuple  # rounds per role, in ROLE_NAMES order

    def __post_init__(self):
        if len(self.counts) != 3 or min(self.counts) < 0:
            raise DomainError(f"counts must be 3 round counts >= 0, "
                              f"got {self.counts!r}")
        n = self.n_rounds
        for name in ("alice_x", "alice_p", "bob_x", "bob_p"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise DimensionMismatch(
                    f"{name} has shape {arr.shape}, expected ({n},)"
                )

    @property
    def n_rounds(self) -> int:
        return sum(self.counts)

    def role_indices(self, role: int) -> slice:
        """The block of one role (ROLE_KEY, ROLE_DECOY or ROLE_GAUSSIAN).

        This is the one place that turns `counts` into block edges.
        """
        if role not in (ROLE_KEY, ROLE_DECOY, ROLE_GAUSSIAN):
            raise DomainError(f"unknown role {role!r}")
        first = sum(self.counts[:role])
        return slice(first, first + self.counts[role])


class PESplit(NamedTuple):
    """Interleaved (x, p) vectors for the two PE halves, 2k entries each."""

    x1: np.ndarray
    y1: np.ndarray
    x2: np.ndarray
    y2: np.ndarray


def _round_uniforms(seed, start: int, count: int) -> np.ndarray:
    """Uniforms for rounds [start, start+count), shaped (count, 4).

    Round r always maps to Philox counter words [8r, 8r+8), so any chunking
    of the round range reproduces identical values.  Every role reads words
    0-3 of its window; words 4-7 are reserved.
    """
    u = _philox_uniforms(seed, count * WORDS_PER_ROUND,
                         start * WORDS_PER_ROUND)
    return u.reshape(count, WORDS_PER_ROUND)[:, :4]


def _box_muller(u1: np.ndarray, u2: np.ndarray):
    """Two independent standard normals from two uniforms in [0, 1)."""
    r = np.sqrt(-2.0 * np.log1p(-u1))
    ang = (2.0 * math.pi) * u2
    return r * np.cos(ang), r * np.sin(ang)


def _gaussian_cholesky(params: ProtocolParams):
    """Per-plane 2x2 Cholesky factors of the heterodyne record covariance.

    x-plane cov [[va, c], [c, vb]], p-plane [[va, -c], [-c, vb]] with
    va = (V + 1)/2, vb = (Sigma_b + 1)/2 and c = Z_bar/2 from the honest
    covariance (V, Sigma_b, Z_bar).
    """
    v, sigma_b, z_bar = honest_covariance(params.alpha, params.T, params.xi)
    l11 = math.sqrt((v + 1.0) / 2.0)
    l21 = z_bar / 2.0 / l11
    l22 = math.sqrt((sigma_b + 1.0) / 2.0 - l21 * l21)
    return l11, l21, l22


def _role_slices(batch: QuadratureBatch, start: int, stop: int):
    """(role, rows of the chunk, rows of the batch) for each role present.

    Each role's block meets the chunk [start, stop) in one slice.
    """
    for role in (ROLE_KEY, ROLE_DECOY, ROLE_GAUSSIAN):
        block = batch.role_indices(role)
        first, end = max(block.start, start), min(block.stop, stop)
        if first < end:
            yield role, slice(first - start, end - start), slice(first, end)


def _fill_chunk(batch: QuadratureBatch, params: ProtocolParams, seed,
                start: int, stop: int, amp_x, amp_p) -> None:
    """Generate rounds [start, stop) into the batch's record arrays."""
    u = _round_uniforms(seed, start, stop - start)
    sqrt_t = math.sqrt(params.T)
    sigma = math.sqrt((2.0 + params.T * params.xi) / 2.0)

    for role, rows, dst in _role_slices(batch, start, stop):
        if role == ROLE_GAUSSIAN:
            l11, l21, l22 = _gaussian_cholesky(params)
            w1, w2 = _box_muller(u[rows, 0], u[rows, 1])
            w3, w4 = _box_muller(u[rows, 2], u[rows, 3])
            ax = l11 * w1
            ap = l11 * w2
            # x-plane correlation +c, p-plane -c
            bx = l21 * w1 + l22 * w3
            bp = -l21 * w2 + l22 * w4
        else:
            if role == ROLE_KEY:
                q = np.minimum((4.0 * u[rows, 0]).astype(np.int64), 3)
                ax = amp_x[q]
                ap = amp_p[q]
                g1, g2 = _box_muller(u[rows, 1], u[rows, 2])
            else:
                s_mod = math.sqrt(params.v_a / 2.0)
                a1, a2 = _box_muller(u[rows, 0], u[rows, 1])
                g1, g2 = _box_muller(u[rows, 2], u[rows, 3])
                ax = s_mod * a1
                ap = s_mod * a2
            bx = sqrt_t * ax + sigma * g1
            bp = sqrt_t * ap + sigma * g2
        batch.alice_x[dst] = ax
        batch.alice_p[dst] = ap
        batch.bob_x[dst] = bx
        batch.bob_p[dst] = bp


def simulate_rounds(params: ProtocolParams, seed,
                    workers: Optional[int] = None) -> QuadratureBatch:
    """Simulate one protocol run and return the full quadrature record.

    The batch holds 2n key modes, 2m decoy modes and 2k gaussian modes of
    `params`, laid out in that block order.  One "round" of the batch is
    one mode: two quadratures per side.

    The output is a deterministic function of (params, seed): each chunk
    of CHUNK_ROUNDS rounds reads its own counter window, so `workers`
    (threads; None means every usable core) only affects wall-clock time.
    """
    counts = (2 * int(params.n), 2 * int(params.m), 2 * int(params.k))
    total = sum(counts)
    batch = QuadratureBatch(*(np.empty(total) for _ in range(4)), counts)

    s2a = math.sqrt(2.0) * params.alpha
    amp_x = np.array([s2a * math.cos(ph) for ph in CONSTELLATION_PHASES])
    amp_p = np.array([s2a * math.sin(ph) for ph in CONSTELLATION_PHASES])

    spans = [
        (batch, params, seed, a, min(a + CHUNK_ROUNDS, total), amp_x, amp_p)
        for a in range(0, total, CHUNK_ROUNDS)
    ]
    run_parts(_fill_chunk, spans, workers)
    return batch


def quadrant_bits(x, p) -> np.ndarray:
    """Two-bit quadrant value 2*[x >= 0] + [p >= 0] (zeros count positive).

    The four constellation quadrants map to 3, 1, 0, 2 in phase order, i.e.
    the first bit is the sign bit of x and the second the sign bit of p.
    """
    x = np.asarray(x)
    p = np.asarray(p)
    if x.shape != p.shape:
        raise DimensionMismatch(f"shape mismatch {x.shape} vs {p.shape}")
    return (2 * (x >= 0.0) + (p >= 0.0)).astype(np.uint8)


def interleave(xs, ps) -> np.ndarray:
    """The vector (xs[0], ps[0], xs[1], ps[1], ...) of two equal-size arrays."""
    v = np.empty(2 * xs.size)
    v[0::2] = xs
    v[1::2] = ps
    return v


def apply_symmetrization(batch: QuadratureBatch,
                         transform: OrthogonalTransform,
                         side: str) -> QuadratureBatch:
    """Rotate the gaussian-role records of one side; returns a new batch.

    The transform acts on the interleaved (x, p) vector of all gaussian
    rounds.  Alice's data gets R itself; Bob's gets the conjugated map
    S R S (sign flip of p entries before and after), which preserves the
    signed inner product sum(ax*bx - ap*bp) exactly.  The new batch holds
    rotated copies of that side's two arrays and shares the other side's;
    the input batch is never written.
    """
    if side not in ("alice", "bob"):
        raise DomainError(f"side must be 'alice' or 'bob', got {side!r}")
    g = batch.role_indices(ROLE_GAUSSIAN)
    size = g.stop - g.start
    if size == 0:
        raise EmptySelection("no gaussian-role rounds to symmetrize")
    if transform.dim != 2 * size:
        raise DimensionMismatch(
            f"transform dim {transform.dim} != 2 * {size} gaussian modes"
        )
    if side == "alice":
        names, rotate = ("alice_x", "alice_p"), transform.apply
    else:
        names, rotate = ("bob_x", "bob_p"), transform.apply_conjugate
    x, p = (getattr(batch, name).copy() for name in names)
    v = rotate(interleave(x[g], p[g]))
    x[g] = v[0::2]
    p[g] = v[1::2]
    return replace(batch, **dict(zip(names, (x, p))))


def split_pe_sets(batch: QuadratureBatch, k: int) -> PESplit:
    """Split the first 2k gaussian modes into two halves of k modes.

    Modes alternate between the halves (even ordinal -> half 1).  Each
    returned vector interleaves (x, p) and has 2k entries; X are Alice's,
    Y Bob's.  Raises InsufficientRounds when fewer than 2k gaussian modes
    exist.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k!r}")
    g = batch.role_indices(ROLE_GAUSSIAN)
    have = g.stop - g.start
    if have < 2 * k:
        raise InsufficientRounds(f"need 2k={2 * k} gaussian modes, have {have}")
    h1 = slice(g.start, g.start + 2 * k, 2)
    h2 = slice(g.start + 1, g.start + 2 * k, 2)
    return PESplit(
        x1=interleave(batch.alice_x[h1], batch.alice_p[h1]),
        y1=interleave(batch.bob_x[h1], batch.bob_p[h1]),
        x2=interleave(batch.alice_x[h2], batch.alice_p[h2]),
        y2=interleave(batch.bob_x[h2], batch.bob_p[h2]),
    )


def pe_statistics(halves: PESplit) -> tuple:
    """(||X||^2, ||Y||^2, <X, Y>) over both PE halves, as Python floats.

    The inner product is the signed sum(ax*bx - ap*bp) of the interleaved
    vectors.  Each half is summed on its own and the halves are then added,
    an order that `simulate`'s frozen pe.csv values depend on.
    """
    def signed_ip(a, b):
        return float(np.sum(a[0::2] * b[0::2]) - np.sum(a[1::2] * b[1::2]))

    norm_x2 = float(np.sum(halves.x1 ** 2) + np.sum(halves.x2 ** 2))
    norm_y2 = float(np.sum(halves.y1 ** 2) + np.sum(halves.y2 ** 2))
    ip_xy = signed_ip(halves.x1, halves.y1) + signed_ip(halves.x2, halves.y2)
    return norm_x2, norm_y2, ip_xy


def heterodyne_energy(x, p) -> np.ndarray:
    """Per-mode state energy estimate from a heterodyne record.

    (x^2 + p^2)/2 - 1: the raw power halves into mean photon number plus
    one vacuum unit, which is subtracted.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if x.shape != p.shape:
        raise DimensionMismatch(f"shape mismatch {x.shape} vs {p.shape}")
    return (x * x + p * p) / 2.0 - 1.0


def export_batch(batch: QuadratureBatch, path) -> None:
    """Write the batch as CSV with header round,role,ax,ap,bx,bp.

    Floats are printed with %.17g, so they read back exactly, and every
    line ends with CRLF, the line end of the csv module's default dialect.
    The rows are rendered CHUNK_ROUNDS at a time with one format call per
    chunk, so memory beyond the batch arrays stays bounded by the chunk.
    """
    total = batch.n_rounds
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        for start in range(0, total, CHUNK_ROUNDS):
            stop = min(start + CHUNK_ROUNDS, total)
            names = chain.from_iterable(
                repeat(ROLE_NAMES[role], part.stop - part.start)
                for role, part, _ in _role_slices(batch, start, stop)
            )
            rows = zip(
                range(start, stop),
                names,
                batch.alice_x[start:stop].tolist(),
                batch.alice_p[start:stop].tolist(),
                batch.bob_x[start:stop].tolist(),
                batch.bob_p[start:stop].tolist(),
            )
            values = tuple(chain.from_iterable(rows))
            fh.write(_CSV_ROW * (stop - start) % values)
