"""Protocol-round simulator: layout, statistics, determinism, round-trips."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from dmcvqkd import cli
from dmcvqkd.channel import (
    CHUNK_ROUNDS,
    ROLE_GAUSSIAN,
    ROLE_KEY,
    WORDS_PER_ROUND,
    ProtocolParams,
    QuadratureBatch,
    _round_uniforms,
    apply_symmetrization,
    empirical_sigma,
    export_batch,
    heterodyne_energy,
    pe_statistics,
    quadrant_bits,
    simulate_rounds,
    split_pe_sets,
)
from dmcvqkd.errors import (
    ConfigError,
    DomainError,
    EmptySelection,
    InsufficientRounds,
)
from dmcvqkd.modulation import correlation_z
from dmcvqkd.pe import calibrate_deltas, gamma_estimates, pe_decision
from dmcvqkd.rotations import OrthogonalTransform, _philox_uniforms
from oracles import export_batch_rows, import_batch

PARAMS = ProtocolParams(alpha=0.5, T=0.5, xi=0.05, n=400, m=300, k=500)


def test_layout_and_counts():
    batch = simulate_rounds(PARAMS, seed=42)
    # role codes: 0 key, 1 decoy, 2 gaussian
    assert np.bincount(batch.roles).tolist() == [800, 600, 1000]
    assert batch.n_rounds == 2 * (400 + 300 + 500)
    # block order: key, decoy, gaussian
    assert np.all(batch.roles[:800] == batch.roles[0])
    assert np.all(batch.roles[800:1400] == batch.roles[800])
    assert np.all(batch.roles[1400:] == batch.roles[1400])


def test_key_modes_use_exact_symbol_amplitudes():
    batch = simulate_rounds(PARAMS, seed=42)
    idx = batch.role_indices(ROLE_KEY)
    # per-quadrature key amplitudes are exactly +-alpha
    np.testing.assert_allclose(np.abs(batch.alice_x[idx]), 0.5, atol=0)
    np.testing.assert_allclose(np.abs(batch.alice_p[idx]), 0.5, atol=0)
    # all four sign combinations occur
    quads = quadrant_bits(batch.alice_x[idx], batch.alice_p[idx])
    assert set(np.unique(quads)) == {0, 1, 2, 3}


def test_deterministic_across_workers_and_reruns():
    a = simulate_rounds(PARAMS, seed=7, workers=1)
    b = simulate_rounds(PARAMS, seed=7, workers=4)
    c = simulate_rounds(PARAMS, seed=7, workers=1)
    for name in ("alice_x", "alice_p", "bob_x", "bob_p", "roles"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        np.testing.assert_array_equal(getattr(a, name), getattr(c, name))
    d = simulate_rounds(PARAMS, seed=8)
    assert not np.array_equal(a.bob_x, d.bob_x)


def test_counts_override():
    batch = simulate_rounds(replace(PARAMS, n=5, m=0, k=3), seed=1)
    assert np.bincount(batch.roles).tolist() == [10, 0, 6]
    with pytest.raises(ConfigError):
        replace(PARAMS, n=0, m=0, k=0)


def test_role_indices_take_role_codes():
    batch = simulate_rounds(replace(PARAMS, n=5, m=0, k=3), seed=1)
    assert batch.role_indices(ROLE_GAUSSIAN).tolist() == list(range(10, 16))
    # a role name would compare unequal to every uint8 code and select
    # nothing; it is rejected instead
    with pytest.raises(DomainError):
        batch.role_indices("key")


def test_key_mode_output_moments():
    # Bob's key-mode record: N(sqrt(T) a, (2 + T xi)/2) per quadrature,
    # positively correlated with Alice's symbol in both quadratures
    params = ProtocolParams(alpha=0.5, T=0.5, xi=0.05, n=60000, m=0, k=0)
    batch = simulate_rounds(params, seed=11)
    idx = batch.role_indices(ROLE_KEY)
    rt = math.sqrt(params.T)
    noise = batch.bob_x[idx] - rt * batch.alice_x[idx]
    var_expected = (2.0 + params.T * params.xi) / 2.0
    assert np.mean(noise) == pytest.approx(0.0, abs=0.02)
    assert np.var(noise) == pytest.approx(var_expected, rel=0.02)
    noise_p = batch.bob_p[idx] - rt * batch.alice_p[idx]
    assert np.var(noise_p) == pytest.approx(var_expected, rel=0.02)
    # residuals pass a normality check at alpha=1e-3
    assert stats.normaltest(noise).pvalue > 1e-3


def test_gaussian_mode_second_moments():
    params = ProtocolParams(alpha=0.5, T=0.5, xi=0.05, n=0, m=0, k=120000)
    batch = simulate_rounds(params, seed=12)
    sig = empirical_sigma(batch)
    v_a = params.v_a
    # heterodyne records carry one extra vacuum unit per quadrature
    assert sig.a == pytest.approx(v_a + 2.0, rel=0.02)
    assert sig.b == pytest.approx(
        params.T * (v_a + params.xi) + 2.0, rel=0.02
    )
    assert sig.c == pytest.approx(
        math.sqrt(params.T) * correlation_z(params.alpha), rel=0.05
    )


def test_quadrant_bits_convention():
    x = np.array([1.0, 1.0, -1.0, -1.0, 0.0])
    p = np.array([1.0, -1.0, 1.0, -1.0, 0.0])
    np.testing.assert_array_equal(quadrant_bits(x, p), [3, 2, 1, 0, 3])


def test_heterodyne_energy_vacuum_offset():
    # a pure vacuum record has mean energy 0 after the offset
    e = heterodyne_energy(np.array([math.sqrt(2.0)]), np.array([0.0]))
    np.testing.assert_allclose(e, [0.0], atol=1e-15)


def test_split_pe_sets_shapes_and_content():
    batch = simulate_rounds(PARAMS, seed=13)
    split = split_pe_sets(batch, 500)
    for v in split:
        assert v.shape == (1000,)
    gauss = batch.role_indices(ROLE_GAUSSIAN)
    # half 1 holds the even-ordinal gaussian modes, interleaved (x, p)
    assert split.x1[0] == batch.alice_x[gauss[0]]
    assert split.x1[1] == batch.alice_p[gauss[0]]
    assert split.x2[0] == batch.alice_x[gauss[1]]
    assert split.y1[2] == batch.bob_x[gauss[2]]
    with pytest.raises(InsufficientRounds):
        split_pe_sets(batch, 501)


def test_pe_statistics_match_a_per_mode_loop():
    batch = simulate_rounds(PARAMS, seed=13)
    halves = split_pe_sets(batch, 500)
    norm_x2 = norm_y2 = ip_xy = 0.0
    ip_scale = 0.0  # sum of |terms|, for the tolerance
    for x, y in ((halves.x1, halves.y1), (halves.x2, halves.y2)):
        for i in range(0, x.size, 2):
            ax, ap = float(x[i]), float(x[i + 1])
            bx, bp = float(y[i]), float(y[i + 1])
            norm_x2 += ax * ax + ap * ap
            norm_y2 += bx * bx + bp * bp
            ip_xy += ax * bx - ap * bp
            ip_scale += abs(ax * bx) + abs(ap * bp)
    got = pe_statistics(halves)
    assert all(type(v) is float for v in got)
    # float64 sums of 2000 terms in another order: within 2000 ulps of the
    # sum of absolute terms
    for value, ref, scale in zip(got, (norm_x2, norm_y2, ip_xy),
                                 (norm_x2, norm_y2, ip_scale)):
        assert abs(value - ref) <= 2000 * 2.0 ** -52 * scale


def test_empirical_sigma_requires_rounds():
    batch = simulate_rounds(replace(PARAMS, n=5, m=3, k=0), seed=1)
    with pytest.raises(EmptySelection):
        empirical_sigma(batch)


def test_symmetrization_preserves_empirical_sigma():
    # rotating Alice by R and Bob by the conjugated transform leaves the
    # summary statistics of the gaussian block (nearly) unchanged
    batch = simulate_rounds(PARAMS, seed=14)
    before = empirical_sigma(batch)
    rot = OrthogonalTransform.random(2 * 1000, seed=(14, 1))
    rotated = apply_symmetrization(batch, rot, "alice")
    rotated = apply_symmetrization(rotated, rot, "bob")
    after = empirical_sigma(rotated)
    assert after.a == pytest.approx(before.a, rel=1e-12)
    assert after.b == pytest.approx(before.b, rel=1e-12)
    assert after.c == pytest.approx(before.c, rel=1e-9, abs=1e-9)
    # non-gaussian rounds untouched
    key = batch.role_indices(ROLE_KEY)
    np.testing.assert_array_equal(rotated.alice_x[key], batch.alice_x[key])


@pytest.mark.parametrize("xi_actual", [None, 0.5])
def test_pe_statistics_do_not_need_the_symmetrization(xi_actual):
    # at the default config, honest and attacked: the statistics `simulate`
    # takes from the unrotated batch agree with those of the rotated batch
    # within a few ulp, and give the same PE verdict
    cfg = cli.RunConfig(xi_actual=xi_actual)
    budget = cli.resolve_budget(cfg)
    params = cli._protocol_params(cfg)
    xi_true = cfg.xi if xi_actual is None else xi_actual
    batch = simulate_rounds(params.with_xi(xi_true), cfg.seed)
    rot = OrthogonalTransform.random(4 * cfg.k, (cfg.seed, 1))
    rotated = apply_symmetrization(batch, rot, "alice")
    rotated = apply_symmetrization(rotated, rot, "bob")
    deltas = calibrate_deltas(cfg.alpha, cfg.T, cfg.xi, cfg.k, budget.eps_pe,
                              budget.eps_rob)

    def estimate(b):
        values = pe_statistics(split_pe_sets(b, cfg.k))
        gammas = gamma_estimates(*values, cfg.k, budget.eps_pe)
        region = pe_decision(gammas, params.v_a + 1.0, cfg.T, cfg.xi, deltas,
                             budget.eps_pe)
        return values + tuple(empirical_sigma(b)), region.verdict

    plain, verdict = estimate(batch)
    after, verdict_after = estimate(rotated)
    for got, want in zip(after, plain):
        assert abs(got - want) <= 4 * np.finfo(float).eps * abs(want)
    assert verdict == verdict_after == ("pass" if xi_actual is None
                                        else "abort")


@pytest.mark.parametrize("seed, start, count", [
    (0, 0, 1), (12345, 0, CHUNK_ROUNDS), (12345, CHUNK_ROUNDS, 100),
    (12345, 3 * CHUNK_ROUNDS + 17, 2 * CHUNK_ROUNDS - 5),
    ((7, 1), 999, 4097), (2 ** 63, 5, 0),
])
def test_uniforms_match_the_uint64_conversion(seed, start, count):
    # the int64 conversion gives the doubles of the plain uint64 formula,
    # and a round's uniforms do not depend on where its chunk starts
    bg = np.random.Philox(key=seed)
    raw = bg.random_raw((start + count) * WORDS_PER_ROUND)
    want = (raw >> np.uint64(11)) * 2.0 ** -53
    want = want.reshape(-1, WORDS_PER_ROUND)[start:, :4]
    got = _round_uniforms(seed, start, count)
    assert got.dtype == want.dtype and got.shape == (count, 4)
    assert got.tobytes() == want.tobytes()
    assert _philox_uniforms(seed, raw.size).tobytes() == \
        ((raw >> np.uint64(11)) * 2.0 ** -53).tobytes()


def test_export_import_round_trip(tmp_path):
    batch = simulate_rounds(replace(PARAMS, n=20, m=10, k=30), seed=15)
    path = tmp_path / "batch.csv"
    export_batch(batch, path)
    back = import_batch(path)
    for name in ("alice_x", "alice_p", "bob_x", "bob_p", "roles"):
        np.testing.assert_array_equal(getattr(back, name), getattr(batch, name))


def assert_export_matches_reference(batch, tmp_path):
    export_batch(batch, tmp_path / "chunked.csv")
    export_batch_rows(batch, tmp_path / "rows.csv")
    got = (tmp_path / "chunked.csv").read_bytes()
    assert got == (tmp_path / "rows.csv").read_bytes()
    return got


def test_export_bytes_match_reference_across_chunks(tmp_path):
    batch = simulate_rounds(replace(PARAMS, n=5000, m=1000, k=3000), seed=16)
    assert batch.n_rounds > CHUNK_ROUNDS
    assert batch.n_rounds % CHUNK_ROUNDS != 0
    assert_export_matches_reference(batch, tmp_path)


def test_export_bytes_match_reference_on_extreme_values(tmp_path):
    big = 1.7976931348623157e308
    values = np.array([-0.0, 5e-324, big, -big, math.nan, math.inf, -math.inf,
                       0.1, 1.0 / 3.0, -2.0 / 3.0, 123456789.01234567, 1e-300])
    n = values.size
    roles = np.array([2, 0, 1, 0, 2, 1, 1, 2, 0, 0, 2, 1], dtype=np.uint8)
    batch = QuadratureBatch(values, values[::-1].copy(), np.roll(values, 3),
                            np.roll(values, 7), roles)
    text = assert_export_matches_reference(batch, tmp_path).decode()
    assert text.count("\r\n") == n + 1
    assert "\r\n0,gaussian,-0,1e-300,-0.66666666666666663,inf\r\n" in text
    assert "4.9406564584124654e-324" in text and ",nan" in text
    assert "-1.7976931348623157e+308" in text


def test_export_of_empty_batch_is_header_only(tmp_path):
    empty = np.zeros(0)
    batch = QuadratureBatch(empty, empty, empty, empty,
                            np.zeros(0, dtype=np.uint8))
    got = assert_export_matches_reference(batch, tmp_path)
    assert got == b"round,role,ax,ap,bx,bp\r\n"


def test_batch_shape_validation():
    with pytest.raises(Exception):
        QuadratureBatch(
            np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(2),
            np.zeros(3, dtype=np.uint8),
        )


def test_protocol_params_validation():
    with pytest.raises(ConfigError):
        ProtocolParams(alpha=0.5, T=1.5, xi=0.0, n=1, m=1, k=1)
    with pytest.raises(ConfigError):
        ProtocolParams(alpha=0.5, T=0.5, xi=-0.1, n=1, m=1, k=1)
    p = ProtocolParams(alpha=0.5, T=0.5, xi=0.01, n=1, m=1, k=1)
    assert p.with_xi(0.1).xi == 0.1 and p.xi == 0.01
