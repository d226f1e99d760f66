"""Random orthogonal transforms built from layered pair rotations.

A transform on dimension d is a product of ceil(log2(d)) layers; layer l
rotates the disjoint index pairs (i, i XOR 2^l).  For d not a power of two
the index space is padded virtually to the next power of two and rotations
touching a padded slot are dropped, which keeps the map exactly orthogonal
on the real d coordinates.

Angles are drawn from a counter-based generator keyed by the seed, one
64-bit word per kept pair, in layer-major / index-minor order, so a
transform is reproducible from (dim, seed) alone.

Each layer is applied with one numpy gather/scatter.  This gives exactly
the result of rotating the pairs one at a time: the pairs within a layer
are disjoint, so no rotation reads a slot that another rotation of the
same layer writes, and each element goes through the same floating-point
operations in the same order as in a per-pair loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError


def kernel_name() -> str:
    """The pair-rotation kernel, always "numpy"; kept for benchmark records."""
    return "numpy"


def _rotate_pairs(v, lo, hi, c, s):
    """Apply disjoint 2x2 rotations in place.

    For each i: (v[lo[i]], v[hi[i]]) <- (c*a + s*b, -s*a + c*b) with
    a = v[lo[i]], b = v[hi[i]].
    """
    a = v[lo]
    b = v[hi]
    v[lo] = c * a + s * b
    v[hi] = (-s) * a + c * b


def words_to_uniforms(raw: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) from uint64 words: (word >> 11) * 2^-53.

    The shifted word fits in 53 bits, so converting it from int64 is exact
    and gives the same doubles as numpy's slower uint64 conversion.
    """
    return (raw >> np.uint64(11)).view(np.int64) * (2.0 ** -53)


def _philox_uniforms(seed, count: int) -> np.ndarray:
    """`count` uniforms in [0, 1) from a Philox stream keyed by `seed`."""
    bg = np.random.Philox(key=seed)
    return words_to_uniforms(bg.random_raw(count))


@dataclass(frozen=True)
class _Layer:
    lo: np.ndarray  # int64 indices, lower member of each pair
    hi: np.ndarray  # int64 indices, upper member
    cos: np.ndarray
    sin: np.ndarray


@dataclass(frozen=True)
class OrthogonalTransform:
    """Seeded random orthogonal matrix in factored (layered) form."""

    dim: int
    layers: tuple

    @classmethod
    def random(cls, dim: int, seed) -> "OrthogonalTransform":
        if dim < 1:
            raise DomainError(f"dim must be >= 1, got {dim!r}")
        if dim == 1:
            return cls(dim=1, layers=())
        n_layers = (dim - 1).bit_length()  # ceil(log2(dim))
        pair_lists = []
        total_pairs = 0
        for layer in range(n_layers):
            stride = 1 << layer
            i = np.arange(dim, dtype=np.int64)
            partner = i ^ stride
            keep = (partner > i) & (partner < dim)
            lo = i[keep]
            hi = partner[keep]
            pair_lists.append((lo, hi))
            total_pairs += lo.size
        u = _philox_uniforms(seed, total_pairs)
        layers = []
        pos = 0
        for lo, hi in pair_lists:
            theta = (2.0 * math.pi) * u[pos : pos + lo.size]
            pos += lo.size
            layers.append(
                _Layer(lo=lo, hi=hi, cos=np.cos(theta), sin=np.sin(theta))
            )
        return cls(dim=dim, layers=tuple(layers))

    def _check(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.ndim != 1 or v.shape[0] != self.dim:
            raise DimensionMismatch(
                f"expected 1-d vector of length {self.dim}, got shape {v.shape}"
            )
        return v.copy()

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Return R v.  Does not modify v."""
        out = self._check(v)
        for lay in self.layers:
            _rotate_pairs(out, lay.lo, lay.hi, lay.cos, lay.sin)
        return out

    def apply_conjugate(self, v: np.ndarray) -> np.ndarray:
        """Return (S R S) v where S flips the sign of odd (p) entries.

        For interleaved (x, p) data this is the transform the measuring side
        applies so that signed inner products with the modulating side are
        preserved: <A', S B'> = <R A, S (S R S) B> = <A, S B>.  It equals the
        inverse of the conjugated inverse rotation, i.e. applying it to
        measured data undoes the p-sign flip the channel conjugation
        introduces.
        """
        out = self._check(v)
        out[1::2] *= -1.0
        out = self.apply(out)
        out[1::2] *= -1.0
        return out
