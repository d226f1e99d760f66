"""Seeded layered pair rotations: orthogonality, determinism, bit identity."""

import numpy as np
import pytest

from dmcvqkd.errors import DimensionMismatch, DomainError
from dmcvqkd.rotations import OrthogonalTransform, kernel_name

from oracles import dense_matrix, rotate_pair_by_pair


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


@pytest.mark.parametrize("dim", [2, 3, 257, 1000])
def test_kernel_agrees_with_pure_python(dim):
    # the one gather/scatter per layer must match a per-pair scalar loop
    # bit for bit, plain and conjugated
    rng = np.random.default_rng(10)
    rot = OrthogonalTransform.random(dim, seed=(4, 2))
    v = rng.normal(size=dim)
    np.testing.assert_array_equal(rot.apply(v),
                                  rotate_pair_by_pair(rot.layers, v))
    flip = np.where(np.arange(dim) % 2 == 1, -1.0, 1.0)
    np.testing.assert_array_equal(
        rot.apply_conjugate(v),
        flip * rotate_pair_by_pair(rot.layers, flip * v))


def test_kernel_name_reported():
    assert kernel_name() == "numpy"
