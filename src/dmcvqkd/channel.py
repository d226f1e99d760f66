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
           same variance V_A; the energy test reads these rounds.
gaussian : both records are drawn from the joint heterodyne distribution of
           the purified (entanglement-based) protocol state; these rounds
           feed parameter estimation.

Units: every stored number is a heterodyne-style outcome, i.e. for a state
with quadrature variance v the record has variance (v + 1)/2 per entry
(signal plus one vacuum unit, halved by the balanced splitting).  The key
rounds' Alice record is the modulation itself: for quadrant q the mean of
bob_x is sqrt(T) * sqrt(2) * alpha * cos((2q+1) pi/4).

Gaussian rounds: parameter estimation reads only the Gram matrix of the
4k-entry vectors X (Alice's records, interleaved x, p) and S Y (Bob's, with
the p entries negated): W = (||X||^2, ||Y||^2, <X, S Y>).  The pairs
(X_i, (S Y)_i) are i.i.d. bivariate normal, so W is a 2x2 Wishart matrix
with 4k degrees of freedom, drawn exactly from three variates (`wishart2`).
The rounds themselves are built only on request, as [X, S Y] = Q R with R
the upper Cholesky factor of W and Q a uniformly random orthonormal 4k x 2
frame, independent of R: that is the conditional law of the rows given W
(Muirhead, Aspects of Multivariate Statistical Theory, 1982, ch. 3), so the
rows have the i.i.d. law and their totals are W to rounding.

Key and decoy rounds: `round_records` is the one generator of their
records, for any range of rounds.  `simulate` takes W from `gaussian_gram`
(from `gaussian_rows` when it writes batch.csv) and only the k_test decoy
rounds its energy test reads from `round_records`, and streams the key
rounds through it chunk by chunk, reducing each chunk to its repetition
blocks' bits and dropping it, so a run holds 2 bytes per block instead of
32 per key round.  batch.csv is
written from the same two generators, a chunk of rounds at a time, with
the gaussian rows of `gaussian_rows`; `simulate_rounds` joins them into
one batch.

Randomness (spawn keys as in `parallel.stream`'s table): each role's key
or decoy rounds are cut into chunks of CHUNK_ROUNDS, counted from the
role's first round, and chunk c of role r draws from its own streams
(r, c, i).  Stream i = 0 gives each key round's quadrant, the top two bits
of one raw word; stream i = 1 gives the standard normals, round by round,
from numpy's ziggurat sampler (Marsaglia & Tsang, J. Stat. Softw. 5(8),
2000), two per key round and four per decoy round.  A round's record
therefore depends only on (seed, role, index in role), never on n, m, the
range asked for or the thread count, and the first rounds of a chunk are
the same draws whichever part of it is asked for.  The normals use only
IEEE arithmetic and libm's exp/log in the ziggurat's rare branches, no
vectorized transcendental kernel, so the records are the same bits
whichever SIMD extensions numpy uses.  The gaussian block draws from the
stream (ROLE_GAUSSIAN,).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DimensionMismatch, DomainError
from .modulation import CONSTELLATION_PHASES, record_covariance
from .parallel import stream
from .rotations import OrthogonalTransform

ROLE_KEY = 0
ROLE_DECOY = 1
ROLE_GAUSSIAN = 2
ROLE_NAMES = ("key", "decoy", "gaussian")
#: the four record arrays of a QuadratureBatch, in round_records' order
RECORD_NAMES = ("alice_x", "alice_p", "bob_x", "bob_p")

#: rounds per chunk of a role.  It fixes the random layout: chunk c of a
#: role has its own streams, so changing it changes every key and decoy
#: record.  It does not depend on the worker count.
CHUNK_ROUNDS = 8192


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
    `counts` rounds; `role_indices` gives each block as a slice of the four
    record arrays.
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
        for name in RECORD_NAMES:
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


def gaussian_record_law(alpha: float, T: float, xi: float) -> tuple:
    """(sx, sy, r): the law of a gaussian round's entry pair (X_i, (S Y)_i).

    The x plane has covariance [[va, c], [c, vb]] and the p plane
    [[va, -c], [-c, vb]], with (va, vb, c) = `record_covariance`; S negates
    the p entries of Bob's records, so every pair has standard deviations
    sx = sqrt(va), sy = sqrt(vb) and correlation r = c/(sx sy).
    """
    va, vb, c = record_covariance(alpha, T, xi)
    return math.sqrt(va), math.sqrt(vb), c / math.sqrt(va * vb)


def wishart2(g: np.random.Generator, dof: int, size, sx: float, sy: float,
             r: float) -> tuple:
    """(sum x^2, sum y^2, sum x*y) over `dof` i.i.d. bivariate-normal pairs.

    Entries have standard deviations sx, sy and correlation r; `size`
    draws are made at once (None: one, as scalars).  Exact Bartlett
    decomposition of the 2x2 Wishart matrix (Smith & Hocking 1972, Applied
    Statistics AS 53): with c1^2 ~ chi2(dof), c2^2 ~ chi2(dof - 1),
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


def round_records(params: ProtocolParams, seed, start: int,
                  stop: int) -> tuple:
    """(ax, ap, bx, bp): the records of key and decoy rounds [start, stop).

    Rounds [0, 2n) are key rounds and [2n, 2n + 2m) decoy rounds.  Each
    covered chunk (see the module docstring) is drawn only up to `stop`,
    into an output allocated before any draw, so a range costs its own
    rounds plus at most one chunk's prefix, and any split of a range gives
    the same values.  This is the package's one generator of those
    records: `simulate` streams the key rounds through it without keeping
    them, and batch.csv and `simulate_rounds` take their key and decoy
    rounds from it.
    """
    key_rounds = 2 * int(params.n)
    role_edges = (0, key_rounds, key_rounds + 2 * int(params.m))
    if not 0 <= start <= stop <= role_edges[-1]:
        raise DomainError(f"rounds [{start}, {stop}) are not key or decoy "
                          f"rounds of this run")
    out = np.empty((4, stop - start))
    s2a = math.sqrt(2.0) * params.alpha
    amp_x = np.array([s2a * math.cos(ph) for ph in CONSTELLATION_PHASES])
    amp_p = np.array([s2a * math.sin(ph) for ph in CONSTELLATION_PHASES])
    s_mod = math.sqrt(params.v_a / 2.0)
    sqrt_t = math.sqrt(params.T)
    sigma = math.sqrt((2.0 + params.T * params.xi) / 2.0)
    for role in (ROLE_KEY, ROLE_DECOY):
        first = role_edges[role]
        # the rounds [a, b) of the range, counted from the role's first
        a = max(start, first) - first
        b = min(stop, role_edges[role + 1]) - first
        if a >= b:
            continue
        for edge in range(a - a % CHUNK_ROUNDS, b, CHUNK_ROUNDS):
            chunk = edge // CHUNK_ROUNDS
            lo, hi = max(a - edge, 0), min(b - edge, CHUNK_ROUNDS)
            ax, ap, bx, bp = out[:, first + edge + lo - start:
                                 first + edge + hi - start]
            if role == ROLE_KEY:
                words = stream(seed, role, chunk, 0).bit_generator
                q = (words.random_raw(hi)[lo:] >> np.uint64(62)).astype(int)
                # q lies in [0, 4); "clip" writes out without a buffer
                np.take(amp_x, q, out=ax, mode="clip")
                np.take(amp_p, q, out=ap, mode="clip")
                g = stream(seed, role, chunk, 1).standard_normal((hi, 2))[lo:]
            else:
                g = stream(seed, role, chunk, 1).standard_normal((hi, 4))[lo:]
                np.multiply(s_mod, g[:, 0], out=ax)
                np.multiply(s_mod, g[:, 1], out=ap)
                g = g[:, 2:]
            np.multiply(sigma, g[:, 0], out=bx)
            np.multiply(sigma, g[:, 1], out=bp)
            bx += sqrt_t * ax
            bp += sqrt_t * ap
    return tuple(out)


def _gram(g: np.random.Generator, params: ProtocolParams) -> tuple:
    """W of the run's 2k gaussian modes, as Python floats (zeros for k = 0)."""
    if params.k == 0:
        return (0.0, 0.0, 0.0)
    sx, sy, r = gaussian_record_law(params.alpha, params.T, params.xi)
    return tuple(float(t) for t in wishart2(g, 4 * int(params.k), None,
                                            sx, sy, r))


def gaussian_gram(params: ProtocolParams, seed) -> tuple:
    """W of the run's gaussian modes, drawn without their rows: the W of
    `gaussian_rows(params, seed)`, which comes first from the gaussian
    block's generator."""
    return _gram(stream(seed, ROLE_GAUSSIAN), params)


def gaussian_rows(params: ProtocolParams, seed) -> tuple:
    """(W, (ax, ap, bx, bp)): W and the records of the 2k gaussian rounds.

    The rows are [X, S Y] = Q R (see the module docstring): Q is the
    Gram-Schmidt frame of two standard normal 4k-vectors, uniform on the
    orthonormal frames, and R = [[r11, r12], [0, r22]] with R^T R = W.
    """
    g = stream(seed, ROLE_GAUSSIAN)
    gram = _gram(g, params)
    if params.k == 0:
        return gram, tuple(np.empty(0) for _ in RECORD_NAMES)
    w_xx, w_yy, w_xy = gram
    r11 = math.sqrt(w_xx)
    r12 = w_xy / r11
    r22 = math.sqrt(w_yy - r12 * r12)
    q1, q2 = g.standard_normal((2, 4 * int(params.k)))
    # np.sum, not `@`: a BLAS dot may split a long vector across threads,
    # and its rounding would then depend on the thread count
    q1 /= math.sqrt(np.sum(q1 * q1))
    q2 -= np.sum(q1 * q2) * q1
    q2 /= math.sqrt(np.sum(q2 * q2))
    x = r11 * q1
    s_y = r12 * q1 + r22 * q2
    return gram, (x[0::2], x[1::2], s_y[0::2], -s_y[1::2])


def simulate_rounds(params: ProtocolParams, seed) -> QuadratureBatch:
    """Simulate one protocol run and return its quadrature record.

    The batch holds the 2n key, 2m decoy and 2k gaussian modes of
    `params`, laid out in that block order: the rounds of `round_records`
    followed by those of `gaussian_rows`, whose W is the draw of
    `gaussian_gram(params, seed)`.  One "round" of the batch is one mode:
    two quadratures per side.
    """
    gaussian = gaussian_rows(params, seed)[1]
    records = round_records(params, seed, 0, 2 * int(params.n + params.m))
    return QuadratureBatch(
        *(np.concatenate(pair) for pair in zip(records, gaussian)),
        (2 * int(params.n), 2 * int(params.m), 2 * int(params.k)))


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
        raise DimensionMismatch("no gaussian-role rounds to symmetrize")
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
    Y Bob's.  Raises DimensionMismatch when fewer than 2k gaussian modes
    exist.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k!r}")
    g = batch.role_indices(ROLE_GAUSSIAN)
    have = g.stop - g.start
    if have < 2 * k:
        raise DimensionMismatch(f"need 2k={2 * k} gaussian modes, have {have}")
    h1 = slice(g.start, g.start + 2 * k, 2)
    h2 = slice(g.start + 1, g.start + 2 * k, 2)
    return PESplit(
        x1=interleave(batch.alice_x[h1], batch.alice_p[h1]),
        y1=interleave(batch.bob_x[h1], batch.bob_p[h1]),
        x2=interleave(batch.alice_x[h2], batch.alice_p[h2]),
        y2=interleave(batch.bob_x[h2], batch.bob_p[h2]),
    )


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

