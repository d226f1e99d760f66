"""Reduction from general to collective attacks: cutoff, volume, epsilon."""

from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

from dmcvqkd.definetti import (
    EnergyTestConfig,
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
    assert val == pytest.approx(float(oracle), rel=1e-12)
    assert val == pytest.approx(2.3547467196215343e-26, rel=1e-12)


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
    assert val == pytest.approx(2.666866666666667e-06, rel=1e-15)
    # prefactor is evaluated as an exact rational before the product
    assert val == (2.0 + float(Fraction(20 ** 4, 6))) * 1e-10
    # a vacuous bound is returned as its value, >= 1
    assert general_attack_epsilon(1e-3, 20) >= 1.0


def test_energy_test_decisions():
    cfg = EnergyTestConfig(k_test=4, d_a=1.0, d_b=2.0, eps_test=1e-10)
    ok_a = np.array([0.5, 0.5, 0.5, 0.5])
    ok_b = np.array([1.0, 1.0, 1.0, 1.0])
    assert energy_test(ok_a, ok_b, cfg)
    # totals compared against k_test * d, not per-mode maxima
    spiky = np.array([3.5, 0.0, 0.0, 0.0])
    assert energy_test(spiky, ok_b, cfg)
    assert not energy_test(ok_a + 1.0, ok_b, cfg)
    assert not energy_test(ok_a, ok_b + 2.0, cfg)
    with pytest.raises(DimensionMismatch):
        energy_test(ok_a[:3], ok_b, cfg)


def test_make_reduction_report_frozen():
    cfg = EnergyTestConfig(k_test=1000, d_a=1.0, d_b=1.0, eps_test=1e-10)
    rep = make_reduction_report(200_000_000, cfg, 4e-10)
    assert rep.K == 515773559
    assert rep.eta == pytest.approx(0.7205820278182561, rel=1e-14)
    assert rep.eps_general == pytest.approx(4.7178598823434603e+24, rel=1e-12)
    assert rep.key_reduction == 223
    assert audit_reduction(rep)
    # default eta sits at the truncation-validity boundary K/(K + n - 5)
    assert rep.eta == rep.K / (rep.K + 200_000_000 - 5)
    assert len(astuple(rep)) == len(ReductionReport.CSV_HEADER)


def test_make_reduction_report_explicit_eta():
    cfg = EnergyTestConfig(k_test=1000, d_a=1.0, d_b=1.0, eps_test=1e-10)
    rep = make_reduction_report(200_000_000, cfg, 4e-10, eta=0.9)
    assert rep.eta == 0.9
    assert rep.K == 515773559  # cutoff independent of eta
