"""Seeded layered pair rotations: orthogonality, determinism, bit identity."""

import hashlib

import numpy as np
import pytest

from dmcvqkd.errors import DimensionMismatch, DomainError
from dmcvqkd.rotations import OrthogonalTransform, kernel_name

from oracles import dense_matrix, layer_pairs, rotate_pair_by_pair


@pytest.mark.parametrize("dim", [1, 2, 3, 7, 8, 16, 40, 129])
def test_matrix_is_orthogonal(dim):
    rot = OrthogonalTransform.random(dim, seed=(11, dim))
    mat = dense_matrix(rot)
    np.testing.assert_allclose(mat.T @ mat, np.eye(dim), atol=1e-12)


def test_apply_matches_dense_matrix():
    rng = np.random.default_rng(5)
    rot = OrthogonalTransform.random(33, seed=77)
    mat = dense_matrix(rot)
    for _ in range(5):
        v = rng.normal(size=33)
        np.testing.assert_allclose(rot.apply(v), mat @ v, atol=1e-12)


def test_inverse_round_trip():
    # R^T, taken from the dense matrix, undoes R from either side
    rng = np.random.default_rng(6)
    rot = OrthogonalTransform.random(50, seed=(1, 2))
    v = rng.normal(size=50)
    mat = dense_matrix(rot)
    np.testing.assert_allclose(mat.T @ rot.apply(v), v, atol=1e-12)
    np.testing.assert_allclose(rot.apply(mat.T @ v), v, atol=1e-12)


def test_norm_preserved():
    rng = np.random.default_rng(7)
    rot = OrthogonalTransform.random(1000, seed=3)
    v = rng.normal(size=1000)
    assert np.linalg.norm(rot.apply(v)) == pytest.approx(
        np.linalg.norm(v), rel=1e-12
    )


def test_same_seed_same_transform():
    a = OrthogonalTransform.random(64, seed=(9, 9))
    b = OrthogonalTransform.random(64, seed=(9, 9))
    v = np.arange(64, dtype=float)
    np.testing.assert_array_equal(a.apply(v), b.apply(v))
    c = OrthogonalTransform.random(64, seed=(9, 10))
    assert not np.array_equal(a.apply(v), c.apply(v))


def test_conjugate_preserves_signed_inner_product():
    # the measuring side applies S R S so that sum(x_a x_b - p_a p_b) is
    # invariant for interleaved (x, p) vectors
    rng = np.random.default_rng(8)
    dim = 128
    rot = OrthogonalTransform.random(dim, seed=(21, 0))
    a = rng.normal(size=dim)
    b = rng.normal(size=dim)

    def signed_ip(u, w):
        return float(np.sum(u[0::2] * w[0::2]) - np.sum(u[1::2] * w[1::2]))

    before = signed_ip(a, b)
    after = signed_ip(rot.apply(a), rot.apply_conjugate(b))
    assert after == pytest.approx(before, rel=1e-9, abs=1e-9)


def test_conjugate_round_trip():
    # S R S is orthogonal: its transpose S R^T S undoes it
    rng = np.random.default_rng(9)
    rot = OrthogonalTransform.random(34, seed=5)
    v = rng.normal(size=34)
    flip = np.where(np.arange(34) % 2 == 1, -1.0, 1.0)
    conj_t = flip[:, None] * dense_matrix(rot).T * flip[None, :]
    np.testing.assert_allclose(conj_t @ rot.apply_conjugate(v), v, atol=1e-12)


def test_apply_does_not_mutate_input():
    rot = OrthogonalTransform.random(8, seed=1)
    v = np.ones(8)
    rot.apply(v)
    np.testing.assert_array_equal(v, np.ones(8))


def test_dimension_checks():
    rot = OrthogonalTransform.random(8, seed=1)
    with pytest.raises(DimensionMismatch):
        rot.apply(np.ones(9))
    with pytest.raises(DomainError):
        OrthogonalTransform.random(0, seed=1)


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 256, 257, 1000, 40001])
def test_kernel_agrees_with_pure_python(dim):
    # the strided views of each layer must match a per-pair scalar loop
    # over independently derived pairs bit for bit, plain and conjugated
    rng = np.random.default_rng(10)
    rot = OrthogonalTransform.random(dim, seed=(4, 2))
    v = rng.normal(size=dim)
    np.testing.assert_array_equal(rot.apply(v),
                                  rotate_pair_by_pair(rot.layers, v))
    flip = np.where(np.arange(dim) % 2 == 1, -1.0, 1.0)
    np.testing.assert_array_equal(
        rot.apply_conjugate(v),
        flip * rotate_pair_by_pair(rot.layers, flip * v))


@pytest.mark.parametrize("dim", [2, 3, 5, 256, 257, 1000])
def test_layer_index_properties_list_the_pairs(dim):
    rot = OrthogonalTransform.random(dim, seed=3)
    for layer, lay in enumerate(rot.layers):
        pairs = np.array(layer_pairs(dim, layer), dtype=np.int64)
        assert lay.lo.dtype == np.int64
        np.testing.assert_array_equal(lay.lo, pairs[:, 0])
        np.testing.assert_array_equal(lay.lo + lay.stride, pairs[:, 1])


def _sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def test_transform_bytes_are_frozen():
    # any change to the angle stream, the layer order or the operation
    # order changes these bytes
    rot = OrthogonalTransform.random(40000, (1, 1))
    v = np.random.default_rng(2024).normal(size=40000)
    assert _sha256(rot.apply(v)) == \
        "e01339bfe56e6d54c6d3835303cb78c50c20f9ff71f1a92865aa73b345c93499"
    assert _sha256(rot.apply_conjugate(v)) == \
        "a175af5336e57493d1afadd0ce103eb64eabd44315aa50f04fb3bf68ca2ea6eb"


# (dim, seed) -> sha256 of apply(v) and apply_conjugate(v), v as above;
# 40000 holds 298432 angles and 40001 holds 298437, so their angle words
# split unevenly over 2 and 3 threads
TRANSFORM_PINS = {
    40000: ("e01339bfe56e6d54c6d3835303cb78c50c20f9ff71f1a92865aa73b345c93499",
            "a175af5336e57493d1afadd0ce103eb64eabd44315aa50f04fb3bf68ca2ea6eb"),
    40001: ("4999c8f09f46d78559905cbf788995a24f0f3acc60cadf2205ba4705eb8668b2",
            "40991c3ab96f9f24f2d7a44d96d4d4421bbe506da9b88d625b7c3bc03bb3187a"),
}


@pytest.mark.parametrize("dim", sorted(TRANSFORM_PINS))
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_transform_bytes_do_not_depend_on_workers(dim, workers):
    rot = OrthogonalTransform.random(dim, (1, 1), workers=workers)
    assert sum(lay.cos.size for lay in rot.layers) % 8 == \
        {40000: 0, 40001: 5}[dim]
    v = np.random.default_rng(2024).normal(size=dim)
    assert (_sha256(rot.apply(v)), _sha256(rot.apply_conjugate(v))) == \
        TRANSFORM_PINS[dim]


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 9])
def test_small_transforms_do_not_depend_on_workers(dim):
    # fewer angle words than threads: the parts start on Philox blocks of
    # 4 words, so some threads get none
    one = OrthogonalTransform.random(dim, 8, workers=1)
    three = OrthogonalTransform.random(dim, 8, workers=3)
    assert len(one.layers) == len(three.layers)
    for a, b in zip(one.layers, three.layers):
        assert a.cos.tobytes() == b.cos.tobytes()
        assert a.sin.tobytes() == b.sin.tobytes()


def test_kernel_name_reported():
    assert kernel_name() == "numpy"
