"""Reduction from general to collective attacks: cutoff, volume, epsilon."""

import random
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

from dmcvqkd.definetti import (
    ReductionReport,
    energy_test,
    general_attack_epsilon,
    key_reduction_bits,
    make_reduction_report,
    photon_cutoff,
    symmetric_dim,
    truncation_epsilon,
    volume_T,
)
from dmcvqkd.errors import DimensionMismatch, DomainError, RegimeError

from oracles import audit_reduction


def test_symmetric_dim_reference():
    assert symmetric_dim(0) == 1
    assert symmetric_dim(1) == 5
    assert symmetric_dim(4) == 70
    assert key_reduction_bits(4) == 13  # ceil(2 log2 70) = 13


def test_symmetric_dim_recurrence():
    # dim(K) = dim(K-1) * (K+4) / K, exactly, in integers
    prev = symmetric_dim(0)
    for K in range(1, 400):
        cur = symmetric_dim(K)
        assert cur * K == prev * (K + 4)
        prev = cur


def test_key_reduction_bits_exact_ceiling():
    for K in (1, 3, 10, 100):
        dim = symmetric_dim(K)
        bits = key_reduction_bits(K)
        assert 2 ** bits >= dim * dim > 2 ** (bits - 1)


def test_truncation_epsilon_against_high_precision():
    import mpmath as mp

    mp.mp.dps = 50
    val = truncation_epsilon(200, 300, 0.7)
    N, K = mp.mpf(195), mp.mpf(300)
    oracle = 2 * (N + K) ** 7 / N ** 3 * mp.e ** (
        -2 * N ** 3 / ((N + K) ** 2 * mp.log(2))
    )
    assert val == pytest.approx(float(oracle), rel=1e-12, abs=0.0)
    assert val == pytest.approx(2.3547467196215343e-26, rel=1e-12, abs=0.0)


def test_truncation_epsilon_clamps():
    # a vacuous bound is reported as exactly 1, underflow as exactly 0
    assert truncation_epsilon(10, 100, 0.96) == 1.0
    assert truncation_epsilon(500, 120, 0.25) == 0.0


def test_truncation_epsilon_regime():
    # validity boundary K = (eta/(1-eta))(n-5) is accepted...
    truncation_epsilon(20, 5, 0.25)
    # ...anything beyond raises
    with pytest.raises(RegimeError):
        truncation_epsilon(20, 6, 0.25)
    with pytest.raises(DomainError):
        truncation_epsilon(5, 1, 0.5)


def test_truncation_epsilon_monotone_in_cutoff():
    # raising the certified cutoff can only increase the failure bound
    vals = [truncation_epsilon(200, K, 0.9) for K in (100, 300, 600, 1200)]
    assert vals == sorted(vals)


def test_volume_prefactor():
    assert volume_T(5, 0.0) == 6.0  # (4 * 9 * 2) / 12, exact
    assert volume_T(100_000_000, 1e-6) == pytest.approx(
        8.333366000080687e+30, rel=1e-14)
    # the quartic bound K^4/12 at K = n/(1-eta) dominates the exact value
    for n, eta in [(5, 0.0), (10, 0.0), (1000, 0.3), (10 ** 6, 0.9),
                   (100_000_000, 1e-6)]:
        assert volume_T(n, eta) <= (n / (1.0 - eta)) ** 4 / 12.0


def test_integer_parts_are_the_exact_rationals_rounded_once():
    # int/int division rounds correctly, as Fraction.__float__ does; n and K
    # log-uniform up to 1e18 (beyond 2(n + m + k) at the n, m, k cap) and
    # 1e75
    rng = random.Random(32)
    for _ in range(2000):
        n = int(10 ** rng.uniform(0.8, 18))
        assert volume_T(n, 0.0) == float(
            Fraction((n - 1) * (n - 2) ** 2 * (n - 3), 12))
        K = int(10 ** rng.uniform(0, 75))
        assert general_attack_epsilon(0.5, K) == \
            (2.0 + float(Fraction(K ** 4, 6))) * 0.5


def test_photon_cutoff_frozen():
    assert photon_cutoff(10 ** 8, 10 ** 9, 3.0, 3.0, 1e-10) == 600559879
    with pytest.raises(RegimeError):
        photon_cutoff(10 ** 8, 40, 3.0, 3.0, 1e-10)
    # cutoff scales linearly with the threshold sum, roughly with n
    assert photon_cutoff(10 ** 8, 10 ** 9, 6.0, 6.0, 1e-10) == pytest.approx(
        2 * 600559879, rel=1e-6
    )


def test_general_attack_epsilon_exact_prefactor():
    val = general_attack_epsilon(1e-10, 20)
    assert val == pytest.approx(2.666866666666667e-06, rel=1e-15, abs=0.0)
    # the prefactor's K^4/6 is the exact rational, rounded once
    assert val == (2.0 + float(Fraction(20 ** 4, 6))) * 1e-10
    # a vacuous bound is returned as its value, >= 1
    assert general_attack_epsilon(1e-3, 20) >= 1.0


def test_energy_test_decisions():
    cfg = (4, 1.0, 2.0)  # k_test, d_a, d_b
    ok_a = np.array([0.5, 0.5, 0.5, 0.5])
    ok_b = np.array([1.0, 1.0, 1.0, 1.0])
    assert energy_test(ok_a, ok_b, *cfg)
    # totals compared against k_test * d, not per-mode maxima
    spiky = np.array([3.5, 0.0, 0.0, 0.0])
    assert energy_test(spiky, ok_b, *cfg)
    assert not energy_test(ok_a + 1.0, ok_b, *cfg)
    assert not energy_test(ok_a, ok_b + 2.0, *cfg)
    with pytest.raises(DimensionMismatch):
        energy_test(ok_a[:3], ok_b, *cfg)
    with pytest.raises(DomainError):
        energy_test([], [], 0, 1.0, 2.0)


def test_make_reduction_report_frozen():
    rep = make_reduction_report(200_000_000, 1000, 1.0, 1.0, 1e-10, 4e-10)
    assert rep.K == 515773559
    assert rep.eta == pytest.approx(0.7205820278182561, rel=1e-14, abs=0.0)
    assert rep.eps_general == pytest.approx(4.7178598823434603e+24, rel=1e-12)
    assert rep.key_reduction == 223
    assert audit_reduction(rep)
    # here eta sits exactly at the truncation-validity boundary
    assert rep.eta == rep.K / (rep.K + 200_000_000 - 5)
    assert len(astuple(rep)) == len(ReductionReport.CSV_HEADER)


@pytest.mark.parametrize("n_modes, d", [
    (200_000_000, 1.0), (6_225_516_713, 1.958), (54_768, 0.3825), (6, 1.0),
    (1000, 1e-9), (10 ** 12, 7.0),
])
def test_make_reduction_report_eta_admits_the_cutoff(n_modes, d):
    # eta is the rounded boundary K/(K + n - 5), or the first float above
    # it at which truncation_epsilon accepts the cutoff
    rep = make_reduction_report(n_modes, 1000, d, d, 1e-10, 4e-10)
    truncation_epsilon(rep.n_modes, rep.K, rep.eta)
    big_n = n_modes - 5
    below = np.nextafter(rep.eta, 0.0)
    assert rep.eta == rep.K / (rep.K + big_n) or \
        rep.K > (below / (1.0 - below)) * big_n
