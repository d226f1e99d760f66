"""Four-state constellation: ensemble weights, correlation, covariance."""

import math

import numpy as np
import pytest

from dmcvqkd.errors import DomainError
from dmcvqkd.gaussian import symplectic_eigenvalues
from dmcvqkd.modulation import (
    honest_covariance,
    lambda_ratio_sum_at,
    lambda_weights,
)

from oracles import fock_modulation_oracle

FROZEN_LAMBDA_HALF = (
    0.778927541306089,
    0.19470653367303586,
    0.024337788550227668,
    0.0020281364706474375,
)


def test_lambda_weights_frozen():
    w = lambda_weights(0.5)
    np.testing.assert_allclose(w, FROZEN_LAMBDA_HALF, rtol=1e-14)


def test_lambda_weights_sum_to_one():
    rng = np.random.default_rng(3)
    for alpha in rng.uniform(0.02, 2.5, size=200):
        w = lambda_weights(float(alpha))
        assert abs(sum(w) - 1.0) < 1e-12


def test_lambda_ratio_sum_frozen():
    assert lambda_ratio_sum_at(0.5) == pytest.approx(
        2.193088039590327, rel=1e-14, abs=0.0
    )


def test_lambda_ratio_sum_matches_the_roll_form_bit_for_bit():
    for alpha in np.geomspace(0.05, 50.0, 400):
        lam = lambda_weights(float(alpha))
        # the roll form in math, summed left to right
        rolled = 0.0
        for k in range(4):
            rolled += math.pow(lam[k], 1.5) / math.sqrt(lam[(k + 1) % 4])
        assert lambda_ratio_sum_at.__wrapped__(float(alpha)) == rolled


def test_cached_ratio_sum_is_the_uncached_sum_bit_for_bit():
    for alpha in np.geomspace(0.05, 1e3, 1000):
        want = lambda_ratio_sum_at.__wrapped__(float(alpha))
        assert lambda_ratio_sum_at(float(alpha)) == want
        assert lambda_ratio_sum_at(float(alpha)) == want  # from the cache


def test_cached_ratio_sum_rejects_bad_alpha_on_every_call():
    # an exception is not cached, so a repeated bad alpha raises again
    for alpha in (0.0, -0.3, 0.0, -0.3):
        with pytest.raises(DomainError):
            lambda_ratio_sum_at(alpha)
        with pytest.raises(DomainError):
            honest_covariance(alpha, 1.0, 0.0)


def trusted_z(alpha: float) -> float:
    """The trusted correlation Z: the honest Z_bar at T = 1, xi = 0."""
    return honest_covariance(alpha, 1.0, 0.0)[2]


def test_correlation_frozen():
    assert trusted_z(0.5) == pytest.approx(1.0965440197951635,
                                           rel=1e-14, abs=0.0)
    # Z_bar = sqrt(T) Z bit for bit at this T, next to V and Sigma_b
    assert honest_covariance(0.5, 0.6, 0.05) == (
        1.5, 1.33, math.sqrt(0.6) * 1.0965440197951635)


def test_correlation_z_below_epr_limit():
    # the discrete ensemble can never beat the Gaussian-modulated EPR value
    for alpha in (0.1, 0.3, 0.5, 0.8, 1.2):
        v_a = 2.0 * alpha * alpha
        epr = math.sqrt(v_a * v_a + 2.0 * v_a)
        assert 0.0 < trusted_z(alpha) < epr
    assert trusted_z(0.5) / math.sqrt(0.25 + 1.0) == pytest.approx(
        0.9807787874331442, rel=1e-12, abs=0.0
    )


@pytest.mark.parametrize("alpha", [0.05, 0.2, 0.5, 0.9, 1.5])
def test_weights_and_correlation_match_fock_oracle(alpha):
    lam_oracle, z_oracle = fock_modulation_oracle(alpha)
    w = lambda_weights(alpha)
    np.testing.assert_allclose(w, lam_oracle, rtol=1e-8, atol=1e-12)
    assert trusted_z(alpha) == pytest.approx(z_oracle, rel=1e-8)


def test_expected_covariance_is_physical():
    # honest-channel triple x = V_A + 1, y = T V_A + 1 + T xi,
    # z = sqrt(T) Z(alpha) at xi = 0.05
    for alpha in (0.1, 0.5, 1.0):
        v_a = 2.0 * alpha * alpha
        for T in (0.05, 0.5, 1.0):
            cov = honest_covariance(alpha, T, 0.05)
            assert cov[:2] == (v_a + 1.0, T * v_a + 1.0 + T * 0.05)
            assert cov[2] == pytest.approx(
                math.sqrt(T) * trusted_z(alpha), rel=1e-15, abs=0.0)
            assert symplectic_eigenvalues(cov).nu2 >= 1.0 - 1e-9


def test_lambda_weights_rejects_bad_alpha():
    with pytest.raises(DomainError):
        lambda_weights(0.0)
    with pytest.raises(DomainError):
        lambda_weights(-0.3)
