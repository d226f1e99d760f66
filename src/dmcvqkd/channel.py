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
records, for any range of rounds.  `simulate_rounds` writes its chunks into
a batch; `simulate` without batch.csv asks it for the decoy block only and
streams the key rounds through `round_records` chunk by chunk, reducing
each chunk to its repetition blocks' bits and dropping it, so a run holds
2 bytes per block instead of 32 per key round.

Randomness: counter-based generators (Philox) keyed by the seed.  Each key
or decoy round owns a fixed window of 4 64-bit words regardless of chunking
or worker count, and the gaussian block draws from its own key (seed, 3),
so results are reproducible bit-for-bit under any parallel schedule.
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
#: the four record arrays of a QuadratureBatch, in round_records' order
RECORD_NAMES = ("alice_x", "alice_p", "bob_x", "bob_p")

#: 64-bit words of randomness reserved per key or decoy round
WORDS_PER_ROUND = 4
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
    `counts` rounds; `role_indices` gives each block as a slice of the four
    record arrays.  `gram` is W = (||X||^2, ||Y||^2, <X, S Y>) over the
    run's 2k gaussian modes, which `simulate_rounds` draws whether or not
    the gaussian block holds their rows (None for a batch made otherwise).
    """

    alice_x: np.ndarray
    alice_p: np.ndarray
    bob_x: np.ndarray
    bob_p: np.ndarray
    counts: tuple  # rounds per role, in ROLE_NAMES order
    gram: Optional[tuple] = None

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


def _round_uniforms(seed, start: int, count: int) -> np.ndarray:
    """Uniforms for rounds [start, start+count), shaped (count, 4).

    Round r always maps to Philox counter words [4r, 4r+4), so any chunking
    of the round range reproduces identical values.  Key rounds read words
    0-2 of their window and decoy rounds words 0-3.
    """
    u = _philox_uniforms(seed, count * WORDS_PER_ROUND,
                         start * WORDS_PER_ROUND)
    return u.reshape(count, WORDS_PER_ROUND)


def _box_muller(u1: np.ndarray, u2: np.ndarray):
    """Two independent standard normals from two uniforms in [0, 1)."""
    r = np.sqrt(-2.0 * np.log1p(-u1))
    ang = (2.0 * math.pi) * u2
    return r * np.cos(ang), r * np.sin(ang)


def gaussian_record_law(alpha: float, T: float, xi: float) -> tuple:
    """(sx, sy, r): the law of a gaussian round's entry pair (X_i, (S Y)_i).

    The x plane has covariance [[va, c], [c, vb]] and the p plane
    [[va, -c], [-c, vb]], with va = (V + 1)/2, vb = (Sigma_b + 1)/2 and
    c = Z_bar/2 from the honest covariance (V, Sigma_b, Z_bar); S negates
    the p entries of Bob's records, so every pair has standard deviations
    sx = sqrt(va), sy = sqrt(vb) and correlation r = c/(sx sy).
    """
    v, sigma_b, z_bar = honest_covariance(alpha, T, xi)
    va2 = (v + 1.0) / 2.0
    vb2 = (sigma_b + 1.0) / 2.0
    return math.sqrt(va2), math.sqrt(vb2), z_bar / 2.0 / math.sqrt(va2 * vb2)


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


def _role_slices(batch: QuadratureBatch, start: int, stop: int):
    """(role, rows of the chunk, rows of the batch) for each role present.

    Each role's block meets the chunk [start, stop) in one slice.
    """
    for role in (ROLE_KEY, ROLE_DECOY, ROLE_GAUSSIAN):
        block = batch.role_indices(role)
        first, end = max(block.start, start), min(block.stop, stop)
        if first < end:
            yield role, slice(first - start, end - start), slice(first, end)


def round_records(params: ProtocolParams, seed, start: int,
                  stop: int) -> tuple:
    """(ax, ap, bx, bp): the records of key and decoy rounds [start, stop).

    Rounds [0, 2n) are key rounds and [2n, 2n + 2m) decoy rounds; round r
    reads its own Philox window, so any split of a range into chunks gives
    the same values.  This is the package's one generator of those records:
    `simulate_rounds` writes its chunks into a batch, and `simulate`
    streams the key rounds through it without keeping them.
    """
    u = _round_uniforms(seed, start, stop - start)
    sqrt_t = math.sqrt(params.T)
    sigma = math.sqrt((2.0 + params.T * params.xi) / 2.0)
    split = min(max(2 * int(params.n) - start, 0), stop - start)
    parts = []
    if split > 0:
        s2a = math.sqrt(2.0) * params.alpha
        amp_x = np.array([s2a * math.cos(ph) for ph in CONSTELLATION_PHASES])
        amp_p = np.array([s2a * math.sin(ph) for ph in CONSTELLATION_PHASES])
        key = u[:split]
        q = np.minimum((4.0 * key[:, 0]).astype(np.int64), 3)
        parts.append((amp_x[q], amp_p[q]) + _box_muller(key[:, 1], key[:, 2]))
    if split < stop - start:
        s_mod = math.sqrt(params.v_a / 2.0)
        decoy = u[split:]
        a1, a2 = _box_muller(decoy[:, 0], decoy[:, 1])
        parts.append((s_mod * a1, s_mod * a2)
                     + _box_muller(decoy[:, 2], decoy[:, 3]))
    if len(parts) == 1:
        ax, ap, g1, g2 = parts[0]
    else:  # the one chunk that holds the last key and first decoy rounds
        ax, ap, g1, g2 = (np.concatenate(pair) for pair in zip(*parts))
    return ax, ap, sqrt_t * ax + sigma * g1, sqrt_t * ap + sigma * g2


def _fill_chunk(batch: QuadratureBatch, params: ProtocolParams, seed,
                start: int, stop: int, first: int) -> None:
    """Write rounds [start, stop) into the batch, whose row 0 is round
    `first`."""
    rows = slice(start - first, stop - first)
    for name, values in zip(RECORD_NAMES,
                            round_records(params, seed, start, stop)):
        getattr(batch, name)[rows] = values


def _gram(g: np.random.Generator, params: ProtocolParams) -> tuple:
    """W of the run's 2k gaussian modes, as Python floats (zeros for k = 0)."""
    if params.k == 0:
        return (0.0, 0.0, 0.0)
    sx, sy, r = gaussian_record_law(params.alpha, params.T, params.xi)
    return tuple(float(t) for t in wishart2(g, 4 * int(params.k), None,
                                            sx, sy, r))


def _fill_gaussian(batch: QuadratureBatch, g: np.random.Generator) -> None:
    """Write the gaussian block as [X, S Y] = Q R (see the module docstring).

    Q is the Gram-Schmidt frame of two standard normal 4k-vectors, uniform
    on the orthonormal frames; R = [[r11, r12], [0, r22]] with R^T R = W.
    """
    w_xx, w_yy, w_xy = batch.gram
    r11 = math.sqrt(w_xx)
    r12 = w_xy / r11
    r22 = math.sqrt(w_yy - r12 * r12)
    q1, q2 = g.standard_normal((2, 2 * batch.counts[ROLE_GAUSSIAN]))
    # np.sum, not `@`: a BLAS dot may split a long vector across threads,
    # and its rounding would then depend on the thread count
    q1 /= math.sqrt(np.sum(q1 * q1))
    q2 -= np.sum(q1 * q2) * q1
    q2 /= math.sqrt(np.sum(q2 * q2))
    x = r11 * q1
    s_y = r12 * q1 + r22 * q2
    block = batch.role_indices(ROLE_GAUSSIAN)
    batch.alice_x[block] = x[0::2]
    batch.alice_p[block] = x[1::2]
    batch.bob_x[block] = s_y[0::2]
    batch.bob_p[block] = -s_y[1::2]


def simulate_rounds(params: ProtocolParams, seed,
                    workers: Optional[int] = None,
                    rows: bool = True) -> QuadratureBatch:
    """Simulate one protocol run and return its quadrature record.

    The batch holds the 2m decoy modes of `params` and, when `rows` is
    true, its 2n key modes and 2k gaussian modes, laid out in the block
    order key, decoy, gaussian.  One "round" of the batch is one mode: two
    quadratures per side.  Its `gram` is the gaussian modes' W and its
    decoy rounds are the same bits with or without the other rows;
    `simulate` streams the key rounds through `round_records` instead.

    The output is a deterministic function of (params, seed): each chunk
    of CHUNK_ROUNDS key and decoy rounds reads its own counter window and
    the gaussian block is drawn on the calling thread, so `workers`
    (threads; None means every usable core) only affects wall-clock time.
    """
    counts = (2 * int(params.n) if rows else 0, 2 * int(params.m),
              2 * int(params.k) if rows else 0)
    g = np.random.Generator(np.random.Philox(key=(seed, 3)))
    batch = QuadratureBatch(*(np.empty(sum(counts)) for _ in range(4)),
                            counts, _gram(g, params))

    first = 2 * int(params.n) - counts[ROLE_KEY]
    stop = 2 * int(params.n) + counts[ROLE_DECOY]
    spans = [
        (batch, params, seed, a, min(a + CHUNK_ROUNDS, stop), first)
        for a in range(first, stop, CHUNK_ROUNDS)
    ]
    run_parts(_fill_chunk, spans, workers)
    if counts[ROLE_GAUSSIAN]:
        _fill_gaussian(batch, g)
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
