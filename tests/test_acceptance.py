"""Acceptance checks: one test per release criterion, run with -v for a
one-line verdict each.

Every check is self-contained: independent oracles live in oracles.py and
tolerances, grids and runtime budgets are stated inline.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from dmcvqkd import cli
from dmcvqkd.channel import ProtocolParams, gaussian_gram, simulate_rounds
from dmcvqkd.definetti import (
    general_attack_epsilon,
    photon_cutoff,
    symmetric_dim,
    volume_T,
)
from dmcvqkd.finitekey import key_length
from dmcvqkd.gaussian import symplectic_eigenvalues
from dmcvqkd.modulation import honest_covariance, lambda_weights
from dmcvqkd.pe import calibrate_deltas, gamma_estimates, pe_decision
from dmcvqkd.reconciliation import biawgn_capacity
from dmcvqkd.validate import run_all

from oracles import (
    audit_key_length,
    composition_key_length,
    dense_conditional_nu,
    dense_symplectic_pair,
    fock_modulation_oracle,
    gaussian_capacity,
    mc_biawgn_capacity,
)

BENIGN = cli.RunConfig(
    alpha=0.5, T=0.5, xi=0.01, beta=0.95,
    n=100_000_000, m=1000, k=2_000_000_000,
    eps_pe=1e-10, eps_sm=1e-10, eps_ent=1e-10, eps_cor=1e-10,
    p_ec=0.99, eps_rob=1e-2,
)


def _chain(**overrides):
    cfg = dataclasses.replace(BENIGN, **overrides) if overrides else BENIGN
    budget = cli.resolve_budget(cfg)
    return cli._keyrate_chain(cfg, budget, cli._deltas(cfg, budget))


def test_criterion_01_symplectic_closed_form_vs_dense_oracle():
    # 1000 random physical covariances (z^2 <= 0.98 (x-1)(y-1)); closed-form
    # joint and conditional eigenvalues vs dense 4x4 |eig(i Omega Gamma)|,
    # 1e-9 relative; budget 5 s
    start = time.perf_counter()
    rng = np.random.default_rng(20250825)
    worst = 0.0
    for _ in range(1000):
        x = 1.0 + rng.uniform(0.01, 9.0)
        y = 1.0 + rng.uniform(0.01, 9.0)
        zmax = math.sqrt(0.98 * (x - 1.0) * (y - 1.0))
        z = rng.uniform(-zmax, zmax)
        spec = symplectic_eigenvalues((x, y, z))
        big, small = dense_symplectic_pair(x, y, z)
        worst = max(
            worst,
            abs(spec.nu1 - big) / big,
            abs(spec.nu2 - small) / small,
            abs(spec.nu3 - dense_conditional_nu(x, y, z))
            / dense_conditional_nu(x, y, z),
        )
    assert worst <= 1e-9
    assert time.perf_counter() - start < 5.0


def test_criterion_02_modulation_constants_vs_fock_oracle():
    # sum(lambda) = 1 within 1e-12 at 1000 alphas; lambda_k and Z vs the
    # truncated-Fock-space diagonalization within 1e-8 on [0.05, 1.5];
    # budget 30 s
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for alpha in rng.uniform(0.02, 2.5, size=1000):
        assert abs(sum(lambda_weights(float(alpha))) - 1.0) <= 1e-12
    for alpha in np.linspace(0.05, 1.5, 30):
        lam_oracle, z_oracle = fock_modulation_oracle(float(alpha))
        lam = lambda_weights(float(alpha))
        np.testing.assert_allclose(lam, lam_oracle, rtol=1e-8, atol=1e-12)
        z = honest_covariance(float(alpha), 1.0, 0.0)[2]
        assert z == pytest.approx(z_oracle, rel=1e-8)
    assert time.perf_counter() - start < 30.0


def test_criterion_03_concentration_bounds_monte_carlo():
    # every tail bound at 1.5e5 trials: chi-square (k=100, x in {1,2,4}),
    # norm split (k=100, eps=0.05), inner product (k=200, x=2, one- and
    # two-sided), cross half (k=500, eps=0.05); observed violation rate
    # <= claimed + 3 binomial SE; budget 5 min
    start = time.perf_counter()
    rows = run_all(seed=20250825, trials=150_000)
    checked = 0
    for r in rows:
        if r.lemma == "lemma4-validity-edge":
            continue  # probes outside the stated validity range
        var = max(r.claimed * (1.0 - r.claimed), 0.0)
        slack = 3.0 * math.sqrt(var / r.trials)
        assert r.observed <= r.claimed + slack, r
        assert r.verdict == "ok", r
        checked += 1
    assert checked == 13
    assert time.perf_counter() - start < 300.0


def test_criterion_04_pe_robustness_and_soundness():
    # honest channel (T=0.6, xi=0.05, alpha=0.5, k=1e4, eps_pe=eps_rob=1e-2)
    # aborts at most 1% of 1000 seeded runs; 10x noise aborts >= 99%;
    # the statistics are each run's Wishart draw W, as `simulate` takes
    # them, without the gaussian rows; budget 10 min
    start = time.perf_counter()
    k = 10_000
    params = ProtocolParams(alpha=0.5, T=0.6, xi=0.05, n=1, m=1, k=k)
    deltas = calibrate_deltas(0.5, 0.6, 0.05, k, 1e-2, 1e-2)

    def one_run(seed, xi_true):
        gammas = gamma_estimates(*gaussian_gram(params.with_xi(xi_true), seed),
                                 k, 1e-2)
        return pe_decision(gammas, 1.5, 0.6, 0.05, deltas, 1e-2).passed

    runs = 1000
    honest_aborts = sum(not one_run(3_000_000 + i, 0.05) for i in range(runs))
    assert honest_aborts / runs <= 1e-2, f"{honest_aborts} honest aborts"
    attacked_aborts = sum(not one_run(4_000_000 + i, 0.5) for i in range(runs))
    assert attacked_aborts / runs >= 0.99, f"{attacked_aborts} detections"
    assert time.perf_counter() - start < 600.0


def test_criterion_05_key_length_audit_and_monotonicity():
    # the reported length reproduces its stored decomposition exactly; it
    # grows with T and with the certified correlation floor, shrinks with
    # leakage; the alpha sweep peaks strictly inside [0.3, 0.9]; an
    # independent recomputation agrees; budget 1 min
    start = time.perf_counter()
    rep = _chain()
    assert audit_key_length(rep)
    assert rep.l == 1325284.039480323
    oracle_l = composition_key_length(
        0.5, 0.5, 0.01, 0.95, 100_000_000, 2_000_000_000,
        1e-10, 1e-10, 1e-10, 1e-10, 0.99, 1e-2,
    )
    assert rep.l == pytest.approx(oracle_l, rel=1e-6)

    t_grid = [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    t_reports = [_chain(T=t) for t in t_grid]
    assert all(audit_key_length(r) for r in t_reports)
    t_lengths = [r.l for r in t_reports]
    assert all(a < b for a, b in zip(t_lengths, t_lengths[1:]))

    params = ProtocolParams(alpha=0.5, T=0.5, xi=0.01,
                            n=100_000_000, m=1000, k=2_000_000_000)
    budget = cli.resolve_budget(BENIGN)
    corner = (1.5009811602015506, 1.2558850065017988, 0.7685409749444306)
    leak_lengths = [
        key_length(params, budget, 1.0, corner, leak).l
        for leak in (3.0e8, 3.5e8, 4.0e8)
    ]
    assert all(a > b for a, b in zip(leak_lengths, leak_lengths[1:]))

    z_lengths = [
        key_length(params, budget, 1.0, (corner[0], corner[1], z), 3.5e8).l
        for z in (0.2, 0.45, 0.7, 0.7685409749444306)
    ]
    assert all(a < b for a, b in zip(z_lengths, z_lengths[1:]))

    a_grid = [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    a_lengths = [_chain(alpha=a).l for a in a_grid]
    peak = int(np.argmax(a_lengths))
    assert 0 < peak < len(a_grid) - 1
    assert a_lengths[peak] > a_lengths[0] and a_lengths[peak] > a_lengths[-1]
    assert time.perf_counter() - start < 60.0


def test_criterion_06_binary_input_capacity():
    # C(1) = 0.486 +- 0.001 against a 1e7-sample Monte Carlo oracle;
    # C < C_Gauss and C < 1 bit across s in [1e-2, 1e2]; budget 1 min
    start = time.perf_counter()
    c1 = biawgn_capacity(1.0)
    assert c1 == pytest.approx(0.486, abs=1e-3)
    assert c1 == pytest.approx(mc_biawgn_capacity(1.0, 10_000_000, 42),
                               abs=1e-3)
    for s in np.logspace(-2, 2, 41):
        c_b = biawgn_capacity(float(s))
        assert c_b < gaussian_capacity(float(s))
        assert c_b < 1.0
    assert time.perf_counter() - start < 60.0


def test_criterion_07_reduction_formulas():
    # symmetric-subspace dimension recurrence exact through K = 1e4; the
    # general-attack epsilon prefactor is exact; T(n, eta) <= K^4/12 at
    # K = n/(1-eta); the photon cutoff's inflation K/(n (d_A + d_B)) is >= 1
    # with limit 1; budget 10 s
    start = time.perf_counter()
    prev = symmetric_dim(0)
    for K in range(1, 10_001):
        cur = symmetric_dim(K)
        assert cur * K == prev * (K + 4)
        prev = cur

    from fractions import Fraction

    for K in (1, 7, 20, 1000):
        for eps in (1e-10, 1e-6):
            val = general_attack_epsilon(eps, K)
            assert val == (2.0 + float(Fraction(K ** 4, 6))) * eps

    for n in (10, 100, 10_000, 10 ** 6, 10 ** 8):
        for eta in (0.0, 0.3, 0.7, 0.9, 1.0 - 1e-6):
            assert volume_T(n, eta) <= (n / (1.0 - eta)) ** 4 / 12.0

    prev_g = float("inf")
    for j in range(6, 15):
        g = photon_cutoff(10 ** j, 10 ** j, 0.5, 0.5, 1e-10) / 10 ** j
        assert g >= 1.0
        assert g <= prev_g
        prev_g = g
    assert prev_g - 1.0 < 1e-3  # limit 1 as n = k -> infinity
    assert time.perf_counter() - start < 10.0


def test_criterion_08_simulation_determinism(tmp_path):
    # a fixed seed gives byte-identical transcripts across reruns and
    # across worker counts {1, 4}; budget 2 min
    import json

    start = time.perf_counter()
    base = {
        "alpha": 0.5, "T": 0.6, "xi": 0.05,
        "n": 512, "m": 100, "k": 2000,
        "k_rep": 64, "k_test": 150, "seed": 20250825,
    }
    outs = []
    for name, workers in (("r1", 1), ("r2", 1), ("r4", 4)):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(dict(base, workers=workers)))
        out = tmp_path / name
        cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                  "--batch-csv"])
        outs.append(out)
    names = ("transcript.csv", "batch.csv", "pe.csv", "ec.csv",
             "energy.csv", "keylength.csv", "reduction.csv", "key.csv")
    for name in names:
        ref = (outs[0] / name).read_bytes()
        assert (outs[1] / name).read_bytes() == ref, f"{name} rerun differs"
        assert (outs[2] / name).read_bytes() == ref, f"{name} workers differ"
    assert time.perf_counter() - start < 120.0


def test_criterion_09_sign_flip_rate_matches_gaussian_tail():
    # at (T, xi, alpha) = (0.5, 0.05, 0.5) over 1e6 key modes the per-value
    # sign-flip rate matches Q(sqrt(T) alpha / sigma) within 3 SE;
    # budget 1 min
    from scipy.stats import norm

    start = time.perf_counter()
    params = ProtocolParams(alpha=0.5, T=0.5, xi=0.05, n=500_000, m=0, k=0)
    batch = simulate_rounds(params, seed=99)
    sigma = math.sqrt((2.0 + params.T * params.xi) / 2.0)
    predicted = float(norm.sf(math.sqrt(params.T) * params.alpha / sigma))
    flips = np.concatenate([
        (batch.alice_x >= 0.0) != (batch.bob_x >= 0.0),
        (batch.alice_p >= 0.0) != (batch.bob_p >= 0.0),
    ])
    observed = float(np.mean(flips))
    se = math.sqrt(predicted * (1.0 - predicted) / flips.size)
    assert abs(observed - predicted) <= 3.0 * se
    assert time.perf_counter() - start < 60.0
