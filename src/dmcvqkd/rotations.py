"""Random orthogonal transforms built from layered pair rotations.

A transform on dimension d is a product of ceil(log2(d)) layers; layer l
rotates the disjoint index pairs (i, i XOR 2^l).  For d not a power of two
the index space is padded virtually to the next power of two and rotations
touching a padded slot are dropped, which keeps the map exactly orthogonal
on the real d coordinates.

Angles are listed one per kept pair, in layer-major / index-minor order,
and drawn in chunks of _ANGLE_CHUNK: chunk c of the transform keyed
(seed, s) draws its uniforms from `parallel.stream(seed, s, c)`.  A
transform is therefore reproducible from (dim, seed, s) alone, and the
chunks are built on any number of threads with the same bits.

A layer with stride s = 2^l is applied on reshaped views of the vector:
the first 2s * (d // 2s) entries, viewed as (blocks, 2, s), pair row 0 of
each block with row 1, and one slice pair covers the partial last block.
The views list the pairs in the same index-minor order as the angles.
This gives exactly the result of rotating the pairs one at a time: the
pairs within a layer are disjoint, so no rotation reads a slot that
another rotation of the same layer writes, and each element goes through
the same floating-point operations (c*a + s*b and (-s)*a + c*b) as in a
per-pair loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError
from .parallel import run_parts, stream


def kernel_name() -> str:
    """The pair-rotation kernel, always "numpy"; kept for benchmark records."""
    return "numpy"


#: angles per chunk; each chunk has its own stream, so changing it changes
#: every transform.  It does not depend on the worker count.
_ANGLE_CHUNK = 8192


def _angles(seed, chunk: int, cos: np.ndarray, sin: np.ndarray) -> None:
    """cos and sin of chunk `chunk`'s angles, written in place."""
    part = slice(chunk * _ANGLE_CHUNK, (chunk + 1) * _ANGLE_CHUNK)
    cos, sin = cos[part], sin[part]
    theta = (2.0 * math.pi) * stream(seed, chunk).random(cos.size)
    np.cos(theta, out=cos)
    np.sin(theta, out=sin)


#: strides up to this one are rotated in column-major order (`_Layer.rotate`)
_COLUMN_MAJOR_MAX = 4


def _layer_shape(dim: int, stride: int) -> tuple:
    """(full blocks of 2*stride entries, pairs in the partial last block)."""
    blocks, rest = divmod(dim, 2 * stride)
    return blocks, max(rest - stride, 0)


@dataclass(frozen=True)
class _Layer:
    dim: int
    stride: int
    cos: np.ndarray  # one angle per pair, in increasing order of `lo`
    sin: np.ndarray

    @property
    def lo(self) -> np.ndarray:
        """int64 lower members of the pairs (i with i < i ^ stride < dim)."""
        i = np.arange(self.dim, dtype=np.int64)
        return i[((i & self.stride) == 0) & (i + self.stride < self.dim)]

    def rotate(self, v: np.ndarray) -> None:
        """Rotate the layer's pairs of v in place."""
        s = self.stride
        blocks, tail = _layer_shape(self.dim, s)
        full = blocks * s
        if blocks:
            view = v[: 2 * full].reshape(blocks, 2, s)
            # numpy loops over the last axis innermost; for a few columns
            # the column-major order gives it the long loops instead
            _rotate(view[:, 0, :], view[:, 1, :],
                    self.cos[:full].reshape(blocks, s),
                    self.sin[:full].reshape(blocks, s),
                    "F" if s <= _COLUMN_MAJOR_MAX else "K")
        if tail:
            start = 2 * full
            _rotate(v[start : start + tail], v[start + s : start + s + tail],
                    self.cos[full:], self.sin[full:])


def _rotate(a, b, c, s, order: str = "K") -> None:
    """(a, b) <- (c*a + s*b, (-s)*a + c*b) on disjoint views, in place.

    b gets c*b - s*a, which is (-s)*a + c*b bit for bit: negation is exact
    and IEEE addition is commutative.  `order` is the ufuncs' iteration
    order; each element gets the same operations in any order.
    """
    new_a = np.multiply(c, a, order=order)
    tmp = np.multiply(s, b, order=order)
    np.add(new_a, tmp, out=new_a, order=order)
    np.multiply(s, a, out=tmp, order=order)
    np.multiply(b, c, out=b, order=order)
    np.subtract(b, tmp, out=b, order=order)
    a[...] = new_a


@dataclass(frozen=True)
class OrthogonalTransform:
    """Seeded random orthogonal matrix in factored (layered) form."""

    dim: int
    layers: tuple

    @classmethod
    def random(cls, dim: int, seed: tuple) -> "OrthogonalTransform":
        """The transform of dim and the key `seed` = (seed, s).

        Its angle chunk c draws from spawn key (s, c), a length no other
        draw's spawn key has, so a transform shares no stream with any
        other draw of the seed.  The angles are built on every usable core,
        with the same bits for any count.  The layers hold views of one cos
        and one sin array.
        """
        if dim < 1:
            raise DomainError(f"dim must be >= 1, got {dim!r}")
        if not (isinstance(seed, tuple) and len(seed) == 2):
            raise DomainError(f"seed must be a key (seed, s), got {seed!r}")
        strides = [1 << layer for layer in range((dim - 1).bit_length())]
        counts = []
        for stride in strides:
            blocks, tail = _layer_shape(dim, stride)
            counts.append(blocks * stride + tail)
        total = sum(counts)
        cos, sin = np.empty(total), np.empty(total)
        chunks = -(-total // _ANGLE_CHUNK)
        run_parts(_angles, [(seed, c, cos, sin) for c in range(chunks)])
        layers = []
        pos = 0
        for stride, count in zip(strides, counts):
            layers.append(_Layer(dim=dim, stride=stride,
                                 cos=cos[pos : pos + count],
                                 sin=sin[pos : pos + count]))
            pos += count
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
            lay.rotate(out)
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
