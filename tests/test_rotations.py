"""Seeded layered pair rotations: orthogonality, determinism, bit identity."""

import functools
import hashlib
import warnings

import numpy as np
import pytest

from dmcvqkd import rotations
from dmcvqkd.errors import DimensionMismatch, DomainError
from dmcvqkd.parallel import run_parts
from dmcvqkd.rotations import OrthogonalTransform, kernel_name

from oracles import dense_matrix, layer_pairs, rotate_pair_by_pair


@pytest.mark.parametrize("dim", [1, 2, 3, 7, 8, 16, 40, 129])
def test_matrix_is_orthogonal(dim):
    rot = OrthogonalTransform.random(dim, seed=(11, dim))
    mat = dense_matrix(rot)
    np.testing.assert_allclose(mat.T @ mat, np.eye(dim), atol=1e-12)


def test_apply_matches_dense_matrix():
    rng = np.random.default_rng(5)
    rot = OrthogonalTransform.random(33, seed=(77, 1))
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
    rot = OrthogonalTransform.random(1000, seed=(3, 1))
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
    rot = OrthogonalTransform.random(34, seed=(5, 1))
    v = rng.normal(size=34)
    flip = np.where(np.arange(34) % 2 == 1, -1.0, 1.0)
    conj_t = flip[:, None] * dense_matrix(rot).T * flip[None, :]
    np.testing.assert_allclose(conj_t @ rot.apply_conjugate(v), v, atol=1e-12)


def test_apply_does_not_mutate_input():
    rot = OrthogonalTransform.random(8, seed=(1, 1))
    v = np.ones(8)
    rot.apply(v)
    np.testing.assert_array_equal(v, np.ones(8))


def test_dimension_checks():
    rot = OrthogonalTransform.random(8, seed=(1, 1))
    with pytest.raises(DimensionMismatch):
        rot.apply(np.ones(9))
    with pytest.raises(DomainError):
        OrthogonalTransform.random(0, seed=(1, 1))


@pytest.mark.parametrize("seed", [5, (5,), (5, 1, 2)], ids=repr)
def test_random_takes_only_a_key_with_one_spawn_entry(seed):
    # angle chunk c of the key (seed, s) draws from spawn key (s, c), and
    # no other draw's spawn key has length 2: a plain seed would draw
    # chunk 2 from the gaussian block's (2,), and (5, 1, 2) chunk 1 from
    # decoy chunk 2's (1, 2, 1)
    with pytest.raises(DomainError, match="seed must be a key"):
        OrthogonalTransform.random(64, seed)


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
    rot = OrthogonalTransform.random(dim, seed=(3, 1))
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
        "64246d0e321bdeab0077b488de9aa74c83b98eb781c666b9d20564ad24304736"
    assert _sha256(rot.apply_conjugate(v)) == \
        "ef3ce8ff2b9991b0f0493c2679238f9bd0b358a8bcf77417a7a6e87bcffea943"


# (dim, seed) -> sha256 of apply(v) and apply_conjugate(v), v as above;
# 40000 holds 298432 angles and 40001 holds 298437, 37 chunks each, so
# their chunks split unevenly over 2 and 3 threads
TRANSFORM_PINS = {
    40000: ("64246d0e321bdeab0077b488de9aa74c83b98eb781c666b9d20564ad24304736",
            "ef3ce8ff2b9991b0f0493c2679238f9bd0b358a8bcf77417a7a6e87bcffea943"),
    40001: ("b43189abd5a9784bf6d02c352a798fe45b95eea6e1333ca0f30decc8ccda2041",
            "5473b6a73d9dbe74eb4b69a5eb39115073a563a1bbfe46cff2e25587e0f22527"),
}


@pytest.mark.parametrize("dim", sorted(TRANSFORM_PINS))
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_transform_bytes_do_not_depend_on_workers(dim, workers, monkeypatch):
    monkeypatch.setattr(rotations, "run_parts",
                        functools.partial(run_parts, workers=workers))
    rot = OrthogonalTransform.random(dim, (1, 1))
    # 36 whole chunks of 8192 angles and a partial one
    assert sum(lay.cos.size for lay in rot.layers) - 36 * 8192 == \
        {40000: 3520, 40001: 3525}[dim]
    v = np.random.default_rng(2024).normal(size=dim)
    assert (_sha256(rot.apply(v)), _sha256(rot.apply_conjugate(v))) == \
        TRANSFORM_PINS[dim]


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 9])
def test_small_transforms_do_not_depend_on_workers(dim, monkeypatch):
    # one angle chunk, fewer than the threads: some threads get none
    built = {}
    for workers in (1, 3):
        monkeypatch.setattr(rotations, "run_parts",
                            functools.partial(run_parts, workers=workers))
        built[workers] = OrthogonalTransform.random(dim, (8, 1))
    one, three = built[1], built[3]
    assert len(one.layers) == len(three.layers)
    for a, b in zip(one.layers, three.layers):
        assert a.cos.tobytes() == b.cos.tobytes()
        assert a.sin.tobytes() == b.sin.tobytes()


def test_angles_are_the_chunk_streams_uniforms():
    # chunk c of the transform keyed (seed, s) takes its angles 2 pi u from
    # the uniforms of SFC64 on SeedSequence(seed, spawn_key=(s, c)), in
    # layer-major order; 40001 has 37 chunks, the last one partial
    for seed, s in ((1, 1), (7, 3)):
        rot = OrthogonalTransform.random(40001, (seed, s))
        cos = np.concatenate([lay.cos for lay in rot.layers])
        sin = np.concatenate([lay.sin for lay in rot.layers])
        u = np.concatenate([np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(seed, spawn_key=(s, c)))).random(
                min(8192, cos.size - 8192 * c))
            for c in range(-(-cos.size // 8192))])
        theta = 2.0 * np.pi * u
        assert cos.tobytes() == np.cos(theta).tobytes()
        assert sin.tobytes() == np.sin(theta).tobytes()


def test_seeds_near_2_to_the_64_give_distinct_transforms():
    # a seed of 2**63 or more must reach the stream as an integer: as a
    # float64, 2**63 and 2**63 + 1024 would share their angles, and the
    # cast of 2**64 - 2 warns
    v = np.arange(64, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outs = {OrthogonalTransform.random(64, (seed, 1)).apply(v).tobytes()
                for seed in (2**63, 2**63 + 1024, 2**64 - 2, 2**64 - 1)}
    assert len(outs) == 4


def test_kernel_name_reported():
    assert kernel_name() == "numpy"
