"""Protocol-round simulator: layout, statistics, determinism, round-trips."""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from dmcvqkd import cli
from dmcvqkd.channel import (
    CHUNK_ROUNDS,
    ROLE_DECOY,
    ROLE_GAUSSIAN,
    ROLE_KEY,
    ProtocolParams,
    QuadratureBatch,
    apply_symmetrization,
    gaussian_gram,
    gaussian_rows,
    heterodyne_energy,
    quadrant_bits,
    round_records,
    simulate_rounds,
    split_pe_sets,
)
from dmcvqkd.errors import ConfigError, DimensionMismatch, DomainError
from dmcvqkd.modulation import honest_covariance
from dmcvqkd.parallel import stream
from dmcvqkd.pe import calibrate_deltas, gamma_estimates, pe_decision
from dmcvqkd.rotations import OrthogonalTransform
from oracles import (
    box_muller_gaussian_totals,
    pe_statistics,
    role_codes,
)

PARAMS = ProtocolParams(alpha=0.5, T=0.5, xi=0.05, n=400, m=300, k=500)
RECORDS = ("alice_x", "alice_p", "bob_x", "bob_p")


def per_mode_statistics(batch, k):
    """(||X||^2, ||Y||^2, <X, Y>) over the 2k PE modes, per mode."""
    return tuple(t / (2 * k) for t in pe_statistics(split_pe_sets(batch, k)))


def test_layout_and_counts():
    batch = simulate_rounds(PARAMS, seed=42)
    assert batch.counts == (800, 600, 1000)
    assert batch.n_rounds == 2 * (400 + 300 + 500)
    # role codes: 0 key, 1 decoy, 2 gaussian, in that block order; exactly
    # the key rounds carry Alice's +-alpha symbol amplitudes
    roles = role_codes(batch.counts)
    assert np.bincount(roles).tolist() == [800, 600, 1000]
    assert np.all(np.diff(roles) >= 0)
    symbol = np.isclose(np.abs(batch.alice_x), 0.5, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(symbol, roles == 0)


def test_key_modes_use_exact_symbol_amplitudes():
    batch = simulate_rounds(PARAMS, seed=42)
    idx = batch.role_indices(ROLE_KEY)
    # per-quadrature key amplitudes are exactly +-alpha
    np.testing.assert_allclose(np.abs(batch.alice_x[idx]), 0.5, atol=0)
    np.testing.assert_allclose(np.abs(batch.alice_p[idx]), 0.5, atol=0)
    # all four sign combinations occur
    quads = quadrant_bits(batch.alice_x[idx], batch.alice_p[idx])
    assert set(np.unique(quads)) == {0, 1, 2, 3}


def test_deterministic_across_reruns():
    a = simulate_rounds(PARAMS, seed=7)
    c = simulate_rounds(PARAMS, seed=7)
    for name in RECORDS:
        np.testing.assert_array_equal(getattr(a, name), getattr(c, name))
    assert a.counts == c.counts == (800, 600, 1000)
    d = simulate_rounds(PARAMS, seed=8)
    assert not np.array_equal(a.bob_x, d.bob_x)


def test_round_records_are_the_batch_rows_for_any_split():
    # 2n = 10000 key and 2m = 6000 decoy rounds, taken in ranges that
    # cross the key/decoy edge and CHUNK_ROUNDS
    params = replace(PARAMS, n=5000, m=3000)
    batch = simulate_rounds(params, seed=17)
    edges = (0, 1, 128, 4097, 9999, 10001, 14000, 16000)
    for start, stop in zip(edges, edges[1:]):
        for name, values in zip(RECORDS,
                                round_records(params, 17, start, stop)):
            np.testing.assert_array_equal(values,
                                          getattr(batch, name)[start:stop])


@pytest.mark.parametrize("params, start", [
    (PARAMS, 3), (PARAMS, 800), (PARAMS, 1400),
    (replace(PARAMS, n=0, m=0), 0),
], ids=["key", "key-decoy-edge", "end", "no-key-or-decoy"])
def test_round_records_of_an_empty_range_are_empty(params, start):
    # an empty range, at any edge and when the run has no key or decoy
    # rounds at all, gives four empty float64 records
    records = round_records(params, 1, start, start)
    assert len(records) == 4
    for values in records:
        assert values.dtype == np.float64 and values.shape == (0,)


def test_a_round_does_not_depend_on_n_or_m():
    # a round's record depends only on (seed, role, index in role): the
    # first 20000 key rounds are the same for n = 10000 and n = 30000, and
    # the first decoy rounds the same for any n and m
    short, long_ = (replace(PARAMS, n=n, m=m)
                    for n, m in ((10_000, 300), (30_000, 9000)))
    for got, want in zip(round_records(short, 5, 0, 20_000),
                         round_records(long_, 5, 0, 20_000)):
        np.testing.assert_array_equal(got, want)
    for got, want in zip(round_records(short, 5, 20_000, 20_600),
                         round_records(long_, 5, 60_000, 60_600)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("edges", [
    (0, CHUNK_ROUNDS - 1, CHUNK_ROUNDS, CHUNK_ROUNDS + 1, 20_000, 30_000),
    (0, 1, 2, 2 * CHUNK_ROUNDS, 20_000, 20_001, 20_000 + CHUNK_ROUNDS,
     30_000),
    (3, 8191, 16385, 19999, 28193, 29999),
], ids=["chunk-edges", "role-edges", "odd"])
def test_every_split_of_a_range_gives_the_same_records(edges):
    # 2n = 20000 key and 2m = 10000 decoy rounds: each part is drawn on its
    # own, and the parts together are the records of the whole range
    params = replace(PARAMS, n=10_000, m=5000)
    whole = np.array(round_records(params, 9, edges[0], edges[-1]))
    parts = np.concatenate([np.array(round_records(params, 9, a, b))
                            for a, b in zip(edges, edges[1:])], axis=1)
    assert whole.shape == (4, edges[-1] - edges[0])
    assert whole.tobytes() == parts.tobytes()


def test_round_records_refuse_rounds_outside_the_run():
    for start, stop in ((-1, 3), (5, 4), (0, 1401), (1401, 1401)):
        with pytest.raises(DomainError):
            round_records(PARAMS, 1, start, stop)


#: every spawn key a run draws from (the table of `parallel.stream`): key
#: and decoy chunks, the gaussian block, the verification and
#: privacy-amplification hashes, the chunks of a transform keyed (seed, 1)
#: and the validate row families
SPAWN_KEYS = (
    [(role, chunk, use) for role in (ROLE_KEY, ROLE_DECOY)
     for chunk in (0, 1, 2) for use in (0, 1)]
    + [(ROLE_GAUSSIAN,), (6,), (8,)]
    + [(1, chunk) for chunk in (0, 1, 2)]
    + [(row,) for row in (0, 3, 4, 5, 7)]
)


def test_streams_differ_by_seed_role_chunk_and_use():
    # every spawn key of the package, at seeds from both ends of
    # [0, 2^64), starts a different sequence of words
    assert len(set(SPAWN_KEYS)) == len(SPAWN_KEYS)
    keys = [(seed, *spawn) for seed in (0, 1, 2**63, 2**64 - 1)
            for spawn in SPAWN_KEYS]
    starts = {tuple(stream(*key).bit_generator.random_raw(2)) for key in keys}
    assert len(starts) == len(keys)
    # a key given as a tuple (seed, *s) puts s in front of the spawn key
    assert stream((5, 1), 2).random(3).tobytes() == \
        stream(5, 1, 2).random(3).tobytes()
    # neighbouring chunks of a role hold different normals
    params = replace(PARAMS, n=CHUNK_ROUNDS, m=1)
    bx = round_records(params, 3, 0, 2 * CHUNK_ROUNDS)[2]
    assert not np.any(bx[:CHUNK_ROUNDS] == bx[CHUNK_ROUNDS:])


def test_a_simulate_run_draws_only_the_listed_spawn_keys(tmp_path,
                                                        monkeypatch):
    # a run whose key and decoy rounds span two chunks each, with
    # batch.csv, and a transform of two angle chunks keyed (seed, 1)
    drawn = []
    seed_sequence = np.random.SeedSequence

    def recorded(seed, spawn_key=()):
        drawn.append((seed, tuple(spawn_key)))
        return seed_sequence(seed, spawn_key=spawn_key)

    monkeypatch.setattr(np.random, "SeedSequence", recorded)
    cfg = {"n": CHUNK_ROUNDS, "m": CHUNK_ROUNDS, "k": 500,
           "k_test": 2 * CHUNK_ROUNDS, "seed": 77}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["simulate", "--batch-csv", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == cli.EXIT_NO_KEY
    OrthogonalTransform.random(12000, (77, 1))  # 79312 angles
    assert {seed for seed, _ in drawn} == {77}
    used = {spawn for _, spawn in drawn}
    want = {(ROLE_KEY, chunk, use) for chunk in (0, 1) for use in (0, 1)}
    want |= {(ROLE_DECOY, 0, 1), (ROLE_DECOY, 1, 1), (ROLE_GAUSSIAN,), (6,),
             (1, 0), (1, 1)}
    assert used == want
    assert used <= set(SPAWN_KEYS)


def test_gaussian_block_keeps_seeds_near_2_to_the_64_apart():
    # as float64 keys these seeds would collide in pairs and draw the same W
    grams = {gaussian_gram(PARAMS, seed)
             for seed in (2**63, 2**63 + 1024, 2**64 - 2, 2**64 - 1)}
    assert len(grams) == 4


def test_round_records_have_the_protocol_law():
    # 2n = 120000 key rounds over 15 chunks and 2m = 60000 decoy rounds:
    # quadrants uniform (chi-square test), Bob's noise (b - sqrt(T) a)/sigma
    # with mean 0 and variance 1 within 5 SE, decoy Alice variance V_A/2
    params = replace(PARAMS, n=60_000, m=30_000)
    key, decoy = 2 * params.n, 2 * params.m
    ax, ap, bx, bp = round_records(params, 2024, 0, key + decoy)
    counts = np.bincount(quadrant_bits(ax[:key], ap[:key]), minlength=4)
    assert stats.chisquare(counts).pvalue > 1e-3
    sigma = math.sqrt((2.0 + params.T * params.xi) / 2.0)
    rt = math.sqrt(params.T)
    for a, b in ((ax, bx), (ap, bp)):
        z = (b - rt * a) / sigma
        assert abs(np.mean(z)) < 5 / math.sqrt(z.size)
        # the variance of a unit normal's sample variance is 2/N
        assert abs(np.var(z) - 1.0) < 5 * math.sqrt(2.0 / z.size)
        alice = a[key:]
        v = params.v_a / 2.0
        assert abs(np.mean(alice * alice) - v) < 5 * v * math.sqrt(2.0 / decoy)


def test_round_record_bytes_are_frozen():
    # key rounds 8000-19999 cross the edge of the first two chunks, and
    # decoy rounds 0-7999 follow; any change to the streams, their keys or
    # the arithmetic changes these bytes
    params = replace(PARAMS, n=10_000, m=5000)
    records = np.array(round_records(params, 12345, 8000, 28_000))
    assert hashlib.sha256(records.tobytes()).hexdigest() == \
        "cd05afe03b8862e0b68ff9ed2543e0486267d8026e0e7c910ac18b874dd5a5c1"


def test_counts_override():
    batch = simulate_rounds(replace(PARAMS, n=5, m=0, k=3), seed=1)
    assert np.bincount(role_codes(batch.counts)).tolist() == [10, 0, 6]
    with pytest.raises(ConfigError):
        replace(PARAMS, n=0, m=0, k=0)


def test_role_indices_take_role_codes():
    # each role's block is a slice, empty blocks included, and the slices
    # tile the batch in key, decoy, gaussian order
    for counts in ((10, 0, 6), (0, 4, 0), (0, 0, 2), (6, 4, 2), (0, 0, 0)):
        empty = np.zeros(sum(counts))
        batch = QuadratureBatch(empty, empty, empty, empty, counts)
        blocks = [batch.role_indices(r)
                  for r in (ROLE_KEY, ROLE_DECOY, ROLE_GAUSSIAN)]
        starts = np.cumsum((0,) + counts)
        assert blocks == [slice(a, b) for a, b in zip(starts, starts[1:])]
    # a role name is rejected, not taken for a code
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
    a, b, c = per_mode_statistics(batch, params.k)
    v_a = params.v_a
    # heterodyne records carry one extra vacuum unit per quadrature
    assert a == pytest.approx(v_a + 2.0, rel=0.02)
    assert b == pytest.approx(params.T * (v_a + params.xi) + 2.0, rel=0.02)
    z = honest_covariance(params.alpha, 1.0, 0.0)[2]
    assert c == pytest.approx(math.sqrt(params.T) * z, rel=0.05)


def _record_moments(alpha, T, xi):
    """(va, vb, c): record variances and x-plane covariance of a gaussian
    mode, from the honest covariance (V, Sigma_b, Z_bar)."""
    v, sigma_b, z_bar = honest_covariance(alpha, T, xi)
    return (v + 1.0) / 2.0, (sigma_b + 1.0) / 2.0, z_bar / 2.0


def _gram_draws(params, seeds) -> np.ndarray:
    """The W of one run per seed, one row each."""
    return np.array([gaussian_gram(params, seed) for seed in seeds])


@pytest.mark.parametrize("xi_actual", [None, 0.5], ids=["default", "xi0.5"])
def test_gram_has_the_law_of_the_per_mode_generator(xi_actual):
    # W against the per-mode Box-Muller generator it replaced, at the
    # default config, honest and attacked: a two-sample KS test on each
    # total, and the exact Wishart means 4k (va, vb, c) within 5 SE
    cfg = cli.RunConfig(xi_actual=xi_actual)
    xi_true = cfg.xi if xi_actual is None else xi_actual
    params = cli._protocol_params(cfg).with_xi(xi_true)
    va, vb, c = _record_moments(cfg.alpha, cfg.T, xi_true)
    dof = 4 * cfg.k
    drawn = _gram_draws(params, range(2000))
    oracle = box_muller_gaussian_totals(va, vb, c, 2 * cfg.k, 200, (7, 21))
    means = (dof * va, dof * vb, dof * c)
    variances = (2 * dof * va * va, 2 * dof * vb * vb,
                 dof * (va * vb + c * c))
    for i, (mean, var) in enumerate(zip(means, variances)):
        assert stats.ks_2samp(drawn[:, i], oracle[:, i]).pvalue > 1e-3
        assert abs(drawn[:, i].mean() - mean) <= \
            5.0 * math.sqrt(var / len(drawn))


def test_gram_norm_x_has_an_exact_chi2_tail():
    # ||X||^2 / va ~ chi2(4k) at the default config: a one-sample KS test,
    # and each 1% tail within 5 binomial SE
    cfg = cli.RunConfig()
    va, _, _ = _record_moments(cfg.alpha, cfg.T, cfg.xi)
    dof = 4 * cfg.k
    u = _gram_draws(cli._protocol_params(cfg), range(10_000, 14_000))[:, 0]
    u = u / va
    assert stats.kstest(u, stats.chi2(dof).cdf).pvalue > 1e-3
    se = math.sqrt(0.01 * 0.99 * u.size)
    for beyond in (u > stats.chi2.isf(0.01, dof),
                   u < stats.chi2.ppf(0.01, dof)):
        assert abs(np.count_nonzero(beyond) - 0.01 * u.size) <= 5.0 * se


@pytest.mark.parametrize("xi_actual", [None, 0.5], ids=["default", "xi0.5"])
def test_gaussian_rows_reproduce_the_gram(xi_actual):
    # the Q R rows give back W to rounding; building them changes neither
    # W nor the decoy rounds, and the batch holds them as drawn
    cfg = cli.RunConfig(xi_actual=xi_actual)
    xi_true = cfg.xi if xi_actual is None else xi_actual
    params = cli._protocol_params(cfg).with_xi(xi_true)
    gram = gaussian_gram(params, cfg.seed)
    rows_gram, rows = gaussian_rows(params, cfg.seed)
    full = simulate_rounds(params, cfg.seed)
    assert full.counts == (2 * cfg.n, 2 * cfg.m, 2 * cfg.k)
    assert gram == rows_gram
    assert all(type(total) is float for total in gram)
    decoys = full.role_indices(ROLE_DECOY)
    for name, values in zip(RECORDS, round_records(
            params, cfg.seed, decoys.start, decoys.stop)):
        assert values.tobytes() == getattr(full, name)[decoys].tobytes()
    gaussian = full.role_indices(ROLE_GAUSSIAN)
    for name, values in zip(RECORDS, rows):
        assert values.tobytes() == getattr(full, name)[gaussian].tobytes()
    totals = pe_statistics(split_pe_sets(full, cfg.k))
    for got, want in zip(totals, gram):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_gaussian_row_entries_have_the_record_law():
    # one mode of the Q R rows across 2000 runs: Alice's x and Bob's x
    # are N(0, va) and N(0, vb), and Bob's x (p) has covariance +c (-c)
    # with Alice's x (p)
    params = replace(PARAMS, n=0, m=0, k=50)
    va, vb, c = _record_moments(params.alpha, params.T, params.xi)
    runs = [simulate_rounds(params, seed) for seed in range(2000)]
    ax, ap, bx, bp = (np.array([getattr(b, name)[3] for b in runs])
                      for name in RECORDS)
    assert stats.kstest(ax / math.sqrt(va), "norm").pvalue > 1e-3
    assert stats.kstest(bx / math.sqrt(vb), "norm").pvalue > 1e-3
    se = math.sqrt((va * vb + c * c) / len(runs))
    assert abs(np.mean(ax * bx) - c) <= 5.0 * se
    assert abs(np.mean(ap * bp) + c) <= 5.0 * se


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
    first = batch.role_indices(ROLE_GAUSSIAN).start
    # half 1 holds the even-ordinal gaussian modes, interleaved (x, p)
    assert split.x1[0] == batch.alice_x[first]
    assert split.x1[1] == batch.alice_p[first]
    assert split.x2[0] == batch.alice_x[first + 1]
    assert split.y1[2] == batch.bob_x[first + 2]
    assert split.y2[-1] == batch.bob_p[first + 999]
    with pytest.raises(DimensionMismatch):
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


def test_symmetrization_preserves_pe_statistics():
    # rotating Alice by R and Bob by the conjugated transform leaves the
    # summary statistics of the gaussian block (nearly) unchanged
    batch = simulate_rounds(PARAMS, seed=14)
    before = per_mode_statistics(batch, PARAMS.k)
    rot = OrthogonalTransform.random(2 * 1000, seed=(14, 1))
    rotated = apply_symmetrization(batch, rot, "alice")
    rotated = apply_symmetrization(rotated, rot, "bob")
    after = per_mode_statistics(rotated, PARAMS.k)
    assert after[0] == pytest.approx(before[0], rel=1e-12)
    assert after[1] == pytest.approx(before[1], rel=1e-12)
    assert after[2] == pytest.approx(before[2], rel=1e-9, abs=1e-9)
    # non-gaussian rounds untouched
    key = batch.role_indices(ROLE_KEY)
    np.testing.assert_array_equal(rotated.alice_x[key], batch.alice_x[key])


@pytest.mark.parametrize("side", ["alice", "bob"])
def test_symmetrization_rotates_a_copy_of_one_side(side):
    batch = simulate_rounds(PARAMS, seed=14)
    before = [getattr(batch, name).tobytes() for name in RECORDS]
    rot = OrthogonalTransform.random(2 * 1000, seed=(14, 1))
    out = apply_symmetrization(batch, rot, side)
    # the input batch is bit-identical afterwards
    assert [getattr(batch, name).tobytes() for name in RECORDS] == before
    g = batch.role_indices(ROLE_GAUSSIAN)
    for name in RECORDS:
        new, old = getattr(out, name), getattr(batch, name)
        if name.startswith(side):
            assert not np.shares_memory(new, old)
            assert new[: g.start].tobytes() == old[: g.start].tobytes()
            assert not np.array_equal(new[g], old[g])
        else:
            assert new is old
    assert out.counts == batch.counts


@pytest.mark.parametrize("xi_actual", [None, 0.5])
def test_pe_statistics_do_not_need_the_symmetrization(xi_actual):
    # at the default config, honest and attacked: the statistics of the
    # built rows agree with those of the rotated rows within a few ulp, the
    # W that `simulate` draws agrees with both to rounding, and all three
    # give the same PE verdict
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

    def estimate(values):
        gammas = gamma_estimates(*values, cfg.k, budget.eps_pe)
        region = pe_decision(gammas, params.v_a + 1.0, cfg.T, cfg.xi, deltas,
                             budget.eps_pe)
        return values, region.verdict

    drawn, verdict_drawn = estimate(
        gaussian_gram(params.with_xi(xi_true), cfg.seed))
    plain, verdict = estimate(pe_statistics(split_pe_sets(batch, cfg.k)))
    after, verdict_after = estimate(
        pe_statistics(split_pe_sets(rotated, cfg.k)))
    for got, want in zip(after, plain):
        assert abs(got - want) <= 4 * np.finfo(float).eps * abs(want)
    for got, want in zip(after, drawn):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    assert verdict_drawn == verdict == verdict_after == (
        "pass" if xi_actual is None else "abort")


def test_batch_shape_validation():
    three = np.zeros(3)
    with pytest.raises(DimensionMismatch):
        QuadratureBatch(three, three, three, np.zeros(2), (1, 1, 1))
    # every array must be as long as the blocks together
    for counts in ((1, 1, 2), (1, 1, 0), (0, 0, 0)):
        with pytest.raises(DimensionMismatch):
            QuadratureBatch(three, three, three, three, counts)
    for counts in ((3,), (1, 1, 1, 0), (4, -2, 1)):
        with pytest.raises(DomainError):
            QuadratureBatch(three, three, three, three, counts)


def test_protocol_params_validation():
    with pytest.raises(ConfigError):
        ProtocolParams(alpha=0.5, T=1.5, xi=0.0, n=1, m=1, k=1)
    with pytest.raises(ConfigError):
        ProtocolParams(alpha=0.5, T=0.5, xi=-0.1, n=1, m=1, k=1)
    p = ProtocolParams(alpha=0.5, T=0.5, xi=0.01, n=1, m=1, k=1)
    assert p.with_xi(0.1).xi == 0.1 and p.xi == 0.01
