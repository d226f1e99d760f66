"""Binary-input capacities, leakage model and the repetition inner code."""

import math

import numpy as np
import pytest

from dmcvqkd.errors import DimensionMismatch, DomainError
from dmcvqkd.reconciliation import (
    biawgn_capacity,
    hash_length,
    leak_model,
    repetition_bits,
    repetition_decode,
    repetition_reconcile,
    snr,
    verify_hash,
)

from oracles import (
    biawgn_capacity_array,
    biawgn_capacity_mp,
    biawgn_capacity_trapezoid,
    gaussian_capacity,
    repetition_block_error,
)

# the golden sweep's T grid on the benign config (alpha 0.5, xi 0.01)
GOLDEN_SWEEP_SNRS = [snr(0.5, T, 0.01)
                     for T in (0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)]


def test_snr_frozen():
    assert snr(0.5, 0.5, 0.05) == pytest.approx(0.1234567901234568,
                                                rel=1e-14, abs=0.0)
    # definition: T * (V_A/2) over the per-quadrature noise (2 + T xi)/2
    assert snr(0.5, 0.5, 0.0) == pytest.approx(0.125, rel=1e-14, abs=0.0)


def test_gaussian_capacity_reference():
    assert gaussian_capacity(1.0) == pytest.approx(0.5, rel=1e-14, abs=0.0)
    assert gaussian_capacity(3.0) == pytest.approx(1.0, rel=1e-14, abs=0.0)


def test_biawgn_capacity_frozen():
    assert biawgn_capacity(1.0) == pytest.approx(0.48594415413293524,
                                                 rel=1e-12, abs=0.0)


# against 30-digit mpmath the worst relative error is 1.5e-15, at s = 20
CAPACITY_RTOL = 4e-15


@pytest.mark.parametrize("s", [1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.5, 1.0, 2.0,
                               5.0, 20.0, 50.0, 1e3, 1e6])
def test_biawgn_capacity_matches_mpmath(s):
    assert biawgn_capacity(s) == pytest.approx(biawgn_capacity_mp(s),
                                               rel=CAPACITY_RTOL, abs=0.0)


@pytest.mark.parametrize(
    "s", [float(s) for s in np.logspace(-300, -8, 30)] + [1e-30, 1e-12])
def test_biawgn_capacity_at_small_snr_matches_the_series(s):
    # C ln 2 = s/2 - s^2/4 + O(s^3), exact to double precision here;
    # adaptive quadrature returned 2.13e-14 at s = 1e-30, where C = 7.2e-31
    series = (s / 2.0 - s * s / 4.0) / math.log(2.0)
    assert biawgn_capacity(s) == pytest.approx(series, rel=CAPACITY_RTOL,
                                               abs=0.0)


@pytest.mark.parametrize(
    "s", [float(s) for s in np.logspace(-6, math.log10(200.0), 52)]
    + GOLDEN_SWEEP_SNRS + [1.0])
def test_biawgn_capacity_matches_the_array_form_bit_for_bit(s):
    # pins the nodes and the form that golden.json froze; a change to
    # either shows here before it shows as a digest mismatch
    assert biawgn_capacity(s) == biawgn_capacity_trapezoid(s)


@pytest.mark.parametrize(
    "s", [float(s) for s in np.logspace(-6, math.log10(200.0), 52)
          if s >= 1e-4] + GOLDEN_SWEEP_SNRS + [1.0])
def test_biawgn_capacity_agrees_with_quadrature(s):
    # quad's tolerance is 1e-10 relative; below s = 1e-4 its absolute
    # tolerance, 1e-10 on an entropy of several bits, no longer meets it
    assert biawgn_capacity(s) == pytest.approx(biawgn_capacity_array(s),
                                               rel=1e-10, abs=0.0)


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_biawgn_capacity_rejects_non_positive_and_non_finite_snr(s):
    with pytest.raises(DomainError, match="s must be finite and > 0"):
        biawgn_capacity(s)


def test_biawgn_capacity_invariants():
    prev = 0.0
    for s in np.logspace(-2, 2, 25):
        c_g, c_b = gaussian_capacity(float(s)), biawgn_capacity(float(s))
        assert 0.0 < c_b <= 1.0
        assert c_b < c_g
        assert c_b >= prev  # non-decreasing in SNR
        prev = c_b
    # strictly increasing below saturation
    for s in np.logspace(-2, 1, 13):
        assert biawgn_capacity(float(s) * 1.1) > biawgn_capacity(float(s))
    # binary input saturates at 1 bit
    assert biawgn_capacity(100.0) > 0.9999
    assert biawgn_capacity(1.7e308) == math.nextafter(1.0, 0.0)
    # and is capacity-achieving in the low-SNR limit
    assert biawgn_capacity(1e-3) / gaussian_capacity(1e-3) > 0.999


def test_hash_length():
    assert hash_length(1e-10) == 34
    assert hash_length(0.6) == 1
    with pytest.raises(DomainError):
        hash_length(0.0)


def test_leak_model_frozen_and_structure():
    s = snr(0.5, 0.5, 0.01)
    leak = leak_model(200_000_000, 0.95, s, 1e-10)
    assert leak == 367797437.33192617
    # leak = 2 n (1 - beta C_BI) + hash bits
    expected = 2 * 200_000_000 * (1 - 0.95 * biawgn_capacity(s)) + 34
    assert leak == pytest.approx(expected, rel=1e-14)
    assert leak_model(0, 0.95, s, 1e-10) == 34.0


def test_repetition_reconcile_reference_example():
    y_hard, side, disclosed = repetition_reconcile([2.0, -1.0, 3.0, 1.0], 2)
    np.testing.assert_array_equal(y_hard, [1.0, 1.0])
    np.testing.assert_array_equal(side.sign_products, [[-1.0], [1.0]])
    np.testing.assert_array_equal(side.magnitudes, [2.0, 1.0, 3.0, 1.0])
    assert disclosed == 2


def test_repetition_reconcile_length_checks():
    with pytest.raises(DimensionMismatch):
        repetition_reconcile([1.0, 2.0, 3.0], 2)
    with pytest.raises(DimensionMismatch):
        repetition_reconcile([], 2)


def test_repetition_decode_noiseless():
    rng = np.random.default_rng(30)
    y = rng.normal(size=512)
    y_hard, side, _ = repetition_reconcile(y, 8)
    decoded = repetition_decode(y, side, 8)
    np.testing.assert_array_equal(decoded, y_hard)


def test_repetition_decode_error_rate_matches_oracle():
    # Gaussian pair x = sqrt(s) y + w: block error is E[Q(sqrt(s U))]
    # with U chi-square(k_rep)
    s, k_rep, blocks = 0.5, 8, 20000
    rng = np.random.default_rng(31)
    y = rng.normal(size=blocks * k_rep)
    x = math.sqrt(s) * y + rng.normal(size=y.size)
    y_hard, side, _ = repetition_reconcile(y, k_rep)
    decoded = repetition_decode(x, side, k_rep)
    observed = float(np.mean(decoded != y_hard))
    predicted = repetition_block_error(s, k_rep)
    se = math.sqrt(predicted * (1.0 - predicted) / blocks)
    assert abs(observed - predicted) <= 3.0 * se
    assert predicted == pytest.approx(0.04025811897775182, rel=1e-10)


def reference_bits(x, y, k_rep):
    """(bits_b, bits_a) of the interleaved streams through the side-info
    path: Bob's block signs and Alice's matched-filter decisions."""
    y_hard, side, _ = repetition_reconcile(y, k_rep)
    decoded = repetition_decode(x, side, k_rep)
    return (y_hard < 0).astype(np.uint8), (decoded < 0).astype(np.uint8)


def fused_bits(x, y, k_rep):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return repetition_bits((x[0::2], x[1::2]), (y[0::2], y[1::2]), k_rep)


@pytest.mark.parametrize("k_rep", [1, 2, 3, 7, 24, 256, 1024])
def test_repetition_bits_are_the_reference_bits(k_rep):
    # 2000 blocks of a weakly correlated pair whose magnitudes span 16
    # decades, so the block sums round and some land near zero; an odd
    # k_rep starts every other block on a p entry
    rng = np.random.default_rng(40 + k_rep)
    size = 2000 * k_rep
    y = rng.normal(size=size) * 10.0 ** rng.uniform(-8, 8, size)
    x = 0.05 * y + rng.normal(size=size) * 10.0 ** rng.uniform(-8, 8, size)
    bits_b, bits_a = fused_bits(x, y, k_rep)
    want_b, want_a = reference_bits(x, y, k_rep)
    assert bits_b.dtype == bits_a.dtype == np.uint8
    np.testing.assert_array_equal(bits_b, want_b)
    np.testing.assert_array_equal(bits_a, want_a)
    # both decisions occur: the bits agree on some blocks, not on all
    assert 0 < np.count_nonzero(bits_a != bits_b) < bits_b.size


def test_repetition_bits_on_signed_zeros_and_p_entry_blocks():
    # k_rep = 3: blocks 1, 3 and 5 start on a p entry.  Block 0 starts on
    # -0.0, which counts positive; block 2 is all zeros and block 5's
    # products cancel exactly, so both statistics are zeros, which count
    # positive.  Block 4's sign depends on the order of its sum: numpy's
    # (-1 + 1e16) - 1e16 is 0, summed the other way round it is -1
    y = [-0.0, 1.0, -2.0, -1.0, 0.0, 3.0, 0.0, -0.0, -0.0, -0.5, 2.0, -2.0,
         1.0, 1.0, 1.0, -2.0, 3.0, -0.5]
    x = [1.0, -1.0, 0.5, 2.0, -3.0, 0.0, -0.0, 5.0, -5.0, 4.0, 1.0, 1.0,
         -1.0, 1e16, -1e16, 0.5, 1.0, 4.0]
    bits_b, bits_a = fused_bits(x, y, 3)
    assert bits_b.tolist() == [0, 1, 0, 1, 0, 1]
    assert bits_a.tolist() == [1, 0, 0, 0, 0, 0]
    for k_rep in (1, 2, 3, 6, 9, 18):
        for got, want in zip(fused_bits(x, y, k_rep),
                             reference_bits(x, y, k_rep)):
            np.testing.assert_array_equal(got, want)


def test_verify_hash():
    rng = np.random.default_rng(32)
    a = rng.integers(0, 2, size=2048).astype(np.uint8)
    assert verify_hash(a, a.copy(), 1e-10, seed=7)
    b = a.copy()
    b[100] ^= 1
    # a single-bit flip slips past a 34-bit hash with prob ~1e-10 only
    assert not verify_hash(a, b, 1e-10, seed=7)
    with pytest.raises(DimensionMismatch):
        verify_hash(a, a[:-1], 1e-10, seed=7)


def test_verify_hash_short_strings():
    # strings shorter than the hash length are compared at full length
    a = np.array([1, 0, 1], dtype=np.uint8)
    assert verify_hash(a, a.copy(), 1e-10, seed=3)
    b = np.array([1, 0, 0], dtype=np.uint8)
    assert not verify_hash(a, b, 1e-10, seed=3)
