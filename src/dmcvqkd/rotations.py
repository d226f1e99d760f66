"""Random orthogonal transforms built from layered pair rotations.

A transform on dimension d is a product of ceil(log2(d)) layers; layer l
rotates the disjoint index pairs (i, i XOR 2^l).  For d not a power of two
the index space is padded virtually to the next power of two and rotations
touching a padded slot are dropped, which keeps the map exactly orthogonal
on the real d coordinates.

Angles are listed one per kept pair, in layer-major / index-minor order,
and drawn in chunks of _ANGLE_CHUNK: chunk c of the transform keyed
(seed, s) draws its uniforms from `parallel.stream(seed, s, c)`.  Each
angle is uniform on the circle, and its cos and sin come from a pair of
uniforms by von Neumann's rejection method (`_angles`), with + - * / and
no transcendental function.  A transform is therefore reproducible from
(dim, seed, s) alone, with the same bits on any CPU and any C library,
and the chunks are built on any number of threads with the same bits.

A layer with stride s = 2^l is applied on reshaped views of the vector:
the first 2s * (d // 2s) entries, viewed as (blocks, 2, s), pair row 0 of
each block with row 1, and one slice pair covers the partial last block.
The views list the pairs in the same index-minor order as the angles.
This gives exactly the result of rotating the pairs one at a time: the
pairs within a layer are disjoint, so no rotation reads a slot that
another rotation of the same layer writes, and each element goes through
the same floating-point operations (c*a + s*b and (-s)*a + c*b) as in a
per-pair loop.  The views are rotated in place.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError
from .parallel import run_parts, stream


def kernel_name() -> str:
    """The pair-rotation kernel, always "numpy"; kept for benchmark records."""
    return "numpy"


#: angles per chunk; each chunk has its own stream, so changing it changes
#: every transform.  It does not depend on the worker count.
_ANGLE_CHUNK = 65536
#: most candidate points drawn at a time; it changes no angle
_BATCH = 32768


def _angles(seed, chunk: int, cos: np.ndarray, sin: np.ndarray) -> None:
    """cos and sin of chunk `chunk`'s angles, written in place.

    The angles are von Neumann's: the chunk's stream, read as consecutive
    uniform pairs (u, v), gives the points (x, y) = (2u - 1, 2v - 1), and
    the angles are those of the first points inside the unit disc, minus
    its centre.  Such a point is uniform on that disc, so twice its polar
    angle is uniform on the circle, with cos (x - y)(x + y)/r and sin
    2xy/r at r = x*x + y*y.  Every step is an exactly rounded IEEE
    operation, so the bits depend on no math library and no SIMD kernel.
    The points are drawn in batches of at most _BATCH, each no larger than
    the angles still missing are likely to need.
    """
    part = slice(chunk * _ANGLE_CHUNK, (chunk + 1) * _ANGLE_CHUNK)
    cos, sin = cos[part], sin[part]
    gen = stream(seed, chunk)
    points, radii = np.empty(2 * _BATCH), np.empty(_BATCH)
    done = 0
    while done < cos.size:
        need = cos.size - done
        # a point is inside with probability pi/4 > 3/4
        batch = min(_BATCH, need + need // 3 + 64)
        xy = gen.random(out=points[: 2 * batch])
        xy *= 2.0
        xy -= 1.0  # exact: 2u is a multiple of 2^-52 in [0, 2)
        r = np.multiply(xy[0::2], xy[0::2], out=radii[:batch])
        r += xy[1::2] * xy[1::2]
        inside = np.flatnonzero((r > 0.0) & (r < 1.0))[:need]
        # each (x, y) pair is one complex128, so one take moves both
        z = xy.view(np.complex128).take(inside)
        x, y, r = z.real, z.imag, r.take(inside)
        c = cos[done : done + inside.size]
        s = sin[done : done + inside.size]
        np.multiply(x, y, out=s)
        s *= 2.0
        s /= r
        np.subtract(x, y, out=c)
        x += y
        c *= x
        c /= r
        done += inside.size


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
    sb = np.multiply(s, b, order=order)
    sa = np.multiply(s, a, order=order)
    np.multiply(c, a, out=a, order=order)
    np.add(a, sb, out=a, order=order)
    np.multiply(b, c, out=b, order=order)
    np.subtract(b, sa, out=b, order=order)


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
        """A float64 copy of v, which must be a vector of length dim."""
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
        introduces.  Does not modify v.
        """
        out = self._check(v)
        out[1::2] *= -1.0
        for lay in self.layers:
            lay.rotate(out)
        out[1::2] *= -1.0
        return out
