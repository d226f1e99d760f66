"""Finite-size key length: penalties, audit identity, hashing."""

from dataclasses import astuple

import numpy as np
import pytest

from dmcvqkd import cli
from dmcvqkd.channel import ProtocolParams
from dmcvqkd.errors import DomainError, LengthError, PrecisionLoss
from dmcvqkd.finitekey import (
    KeyLengthReport,
    SecurityBudget,
    delta_aep,
    delta_ent,
    key_length,
    mle_entropy,
    universal_hash,
)
from dmcvqkd.reconciliation import leak_model, snr

from oracles import audit_key_length

BENIGN_BUDGET = SecurityBudget(
    eps_pe=1e-10, eps_sm=1e-10, eps_ent=1e-10, eps_cor=1e-10,
    p_ec=0.99, eps_rob=1e-2,
)
# worst-case covariance corner from the calibrated thresholds at
# alpha=0.5, T=0.5, xi=0.01, k=2e9 (see test_pe_bounds)
BENIGN_REGION = (1.5009811602015506, 1.2558850065017988, 0.7685409749444306)


def test_delta_aep_frozen():
    assert delta_aep(1e8, 1e-10, 0.99) == pytest.approx(
        1491354.5285808183, rel=1e-13
    )


def test_delta_aep_scaling():
    # the penalty grows like sqrt(n) plus lower-order terms
    r = delta_aep(4e8, 1e-10, 0.99) / delta_aep(1e8, 1e-10, 0.99)
    assert 1.9 < r < 2.1
    assert delta_aep(1e8, 1e-12, 0.99) > delta_aep(1e8, 1e-10, 0.99)
    assert delta_aep(1e8, 1e-10, 0.5) > delta_aep(1e8, 1e-10, 0.99)


def test_mle_entropy_reference_points():
    assert mle_entropy([25, 25, 25, 25]) == pytest.approx(2.0, abs=1e-14)
    assert mle_entropy([10, 10]) == pytest.approx(1.0, abs=1e-14)
    assert mle_entropy([7, 0, 0, 0]) == 0.0
    assert mle_entropy([3, 1]) < 1.0
    with pytest.raises(DomainError):
        mle_entropy([5])
    with pytest.raises(DomainError):
        mle_entropy([1, -1])
    with pytest.raises(DomainError):
        mle_entropy([0, 0])


def test_delta_ent_frozen_both_modes():
    assert delta_ent(2e8, 1e-10, "paper") == pytest.approx(
        45624975479.378265, rel=1e-13
    )
    assert delta_ent(2e8, 1e-10, "derived") == pytest.approx(
        2685965.170322137, rel=1e-13
    )
    # the stated form carries an extra sqrt(n)-order factor
    assert delta_ent(2e8, 1e-10, "paper") > 1e4 * delta_ent(
        2e8, 1e-10, "derived"
    )
    with pytest.raises(DomainError):
        delta_ent(2e8, 1e-10, "bogus")


def test_key_length_benign_frozen():
    params = ProtocolParams(
        alpha=0.5, T=0.5, xi=0.01, n=100_000_000, m=1000, k=2_000_000_000,
    )
    s = snr(params.v_a, params.T, params.xi)
    leak = leak_model(2 * params.n, 0.95, s, BENIGN_BUDGET.eps_cor)
    rep = key_length(
        params, BENIGN_BUDGET, 1.0, BENIGN_REGION, leak,
        delta_ent_mode="derived",
    )
    assert rep.l == pytest.approx(1325284.0394804422, rel=1e-9)
    assert rep.feasible
    assert rep.f_bits == pytest.approx(0.13041110041935633, rel=1e-12)
    assert rep.leak_ec == pytest.approx(367797437.33192605, rel=1e-12)
    assert rep.delta_aep == pytest.approx(2109093.3744001277, rel=1e-12)
    assert rep.delta_ent == pytest.approx(2685965.170322137, rel=1e-12)
    assert rep.modes == 2 * params.n and rep.raw_bits == 4 * params.n


def test_key_length_audit_identity_exact():
    params = ProtocolParams(alpha=0.5, T=0.5, xi=0.01, n=50_000, m=10, k=10)
    rep = key_length(params, BENIGN_BUDGET, 0.99, BENIGN_REGION, 1000.0)
    # the identity is on the stored floats, bit-exact, not approximate
    assert audit_key_length(rep)


def test_key_length_infeasible_reported_not_clamped():
    params = ProtocolParams(alpha=0.5, T=0.001, xi=0.01, n=10_000, m=10, k=10)
    region = (1.5, 1.0015, 0.03)
    rep = key_length(params, BENIGN_BUDGET, 1.0, region, 5000.0)
    assert rep.l < 0.0 and not rep.feasible
    assert audit_key_length(rep)


def test_key_length_csv_row_matches_header():
    params = ProtocolParams(alpha=0.5, T=0.5, xi=0.01, n=100, m=10, k=10)
    rep = key_length(params, BENIGN_BUDGET, 1.0, BENIGN_REGION, 10.0)
    row = [cli._cell(v) for v in astuple(rep)]
    assert len(row) == len(KeyLengthReport.CSV_HEADER)
    assert row[-1] in (0, 1)


def test_key_length_input_guards():
    params = ProtocolParams(alpha=0.5, T=0.5, xi=0.01, n=100, m=10, k=10)
    with pytest.raises(DomainError):
        key_length(params, BENIGN_BUDGET, 1.5, BENIGN_REGION, 10.0)
    with pytest.raises(DomainError):
        key_length(params, BENIGN_BUDGET, 1.0, BENIGN_REGION, -1.0)


def test_security_budget_composition():
    assert BENIGN_BUDGET.eps_total == pytest.approx(4e-10, rel=1e-15)
    with pytest.raises(DomainError):
        SecurityBudget(eps_pe=0.0, eps_sm=1e-10, eps_ent=1e-10, eps_cor=1e-10)
    with pytest.raises(DomainError):
        SecurityBudget(eps_pe=0.5, eps_sm=0.5, eps_ent=0.5, eps_cor=0.5)


def test_universal_hash_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2, size=4096).astype(np.uint8)
    h1 = universal_hash(bits, (3, 4), 64)
    h2 = universal_hash(bits, (3, 4), 64)
    np.testing.assert_array_equal(h1, h2)
    assert h1.shape == (64,) and h1.dtype == np.uint8
    assert set(np.unique(h1)) <= {0, 1}
    h3 = universal_hash(bits, (3, 5), 64)
    assert not np.array_equal(h1, h3)


def test_universal_hash_is_gf2_linear():
    # Toeplitz hashing is linear over GF(2): H(a xor b) = H(a) xor H(b)
    rng = np.random.default_rng(21)
    a = rng.integers(0, 2, size=1000).astype(np.uint8)
    b = rng.integers(0, 2, size=1000).astype(np.uint8)
    ha = universal_hash(a, 99, 40)
    hb = universal_hash(b, 99, 40)
    hab = universal_hash(a ^ b, 99, 40)
    np.testing.assert_array_equal(hab, ha ^ hb)


def test_universal_hash_matches_dense_toeplitz():
    # reconstruct the same diagonal stream and apply the dense matrix:
    # out[i] = parity of sum_j x[j] t[n-1+i-j]
    n_in, out_len, seed = 300, 37, (8, 1)
    rng = np.random.default_rng(22)
    x = rng.integers(0, 2, size=n_in).astype(np.uint8)
    t_len = n_in + out_len - 1
    bg = np.random.Philox(key=seed)
    words = bg.random_raw((t_len + 63) // 64)
    tbits = np.unpackbits(words.astype(">u8").view(np.uint8))[:t_len]
    dense = np.zeros((out_len, n_in), dtype=np.int64)
    for i in range(out_len):
        for j in range(n_in):
            dense[i, j] = tbits[n_in - 1 + i - j]
    expected = (dense @ x.astype(np.int64)) & 1
    np.testing.assert_array_equal(
        universal_hash(x, seed, out_len), expected.astype(np.uint8)
    )


def test_universal_hash_direct_and_fft_paths_agree():
    # above ~4M input*output bit products the implementation switches to
    # an FFT convolution; both paths must agree exactly
    rng = np.random.default_rng(23)
    bits = rng.integers(0, 2, size=3000).astype(np.uint8)
    direct = universal_hash(bits, 5, 1300)          # 3.9e6 products
    fft = universal_hash(bits, 5, 1500)             # 4.5e6 products
    np.testing.assert_array_equal(direct[:1300], fft[:1300])


def test_universal_hash_fft_precision_loss_is_loud(monkeypatch):
    # an FFT error below 0.25 still rounds to the right integers; one at
    # 0.4 could round to the wrong neighbour, so it must raise instead
    import scipy.signal

    fftconvolve = scipy.signal.fftconvolve
    rng = np.random.default_rng(23)
    bits = rng.integers(0, 2, size=3000).astype(np.uint8)
    direct = universal_hash(bits, 5, 1300)
    monkeypatch.setattr(scipy.signal, "fftconvolve",
                        lambda a, b: fftconvolve(a, b) + 0.2)
    np.testing.assert_array_equal(universal_hash(bits, 5, 1500)[:1300], direct)
    monkeypatch.setattr(scipy.signal, "fftconvolve",
                        lambda a, b: fftconvolve(a, b) + 0.4)
    with pytest.raises(PrecisionLoss):
        universal_hash(bits, 5, 1500)


def test_universal_hash_length_edges():
    bits = np.ones(16, dtype=np.uint8)
    assert universal_hash(bits, 0, 0).size == 0
    assert universal_hash(bits, 0, 16).size == 16
    with pytest.raises(LengthError):
        universal_hash(bits, 0, 17)
    with pytest.raises(DomainError):
        universal_hash(np.array([0, 2], dtype=np.uint8), 0, 1)
