"""Four-state constellation: ensemble weights, correlation, covariance."""

import math

import numpy as np
import pytest

from dmcvqkd.errors import DomainError
from dmcvqkd.gaussian import symplectic_eigenvalues
from dmcvqkd.modulation import correlation_z, lambda_ratio_sum, lambda_weights

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
        assert abs(w.sum() - 1.0) < 1e-12


def test_lambda_ratio_sum_frozen():
    assert lambda_ratio_sum(lambda_weights(0.5)) == pytest.approx(
        2.193088039590327, rel=1e-14
    )


def test_correlation_frozen():
    assert correlation_z(0.5) == pytest.approx(1.0965440197951635, rel=1e-14)


def test_correlation_z_below_epr_limit():
    # the discrete ensemble can never beat the Gaussian-modulated EPR value
    for alpha in (0.1, 0.3, 0.5, 0.8, 1.2):
        v_a = 2.0 * alpha * alpha
        epr = math.sqrt(v_a * v_a + 2.0 * v_a)
        assert 0.0 < correlation_z(alpha) < epr
    assert correlation_z(0.5) / math.sqrt(0.25 + 1.0) == pytest.approx(
        0.9807787874331442, rel=1e-12
    )


@pytest.mark.parametrize("alpha", [0.05, 0.2, 0.5, 0.9, 1.5])
def test_weights_and_correlation_match_fock_oracle(alpha):
    lam_oracle, z_oracle = fock_modulation_oracle(alpha)
    w = lambda_weights(alpha)
    np.testing.assert_allclose(w, lam_oracle, rtol=1e-8, atol=1e-12)
    assert correlation_z(alpha) == pytest.approx(z_oracle, rel=1e-8)


def test_expected_covariance_is_physical():
    # honest-channel triple x = V_A + 1, y = T V_A + 1 + T xi,
    # z = sqrt(T) Z(alpha) at xi = 0.05
    for alpha in (0.1, 0.5, 1.0):
        v_a = 2.0 * alpha * alpha
        for T in (0.05, 0.5, 1.0):
            cov = (v_a + 1.0, T * v_a + 1.0 + T * 0.05,
                   math.sqrt(T) * correlation_z(alpha))
            assert symplectic_eigenvalues(cov).nu2 >= 1.0 - 1e-9


def test_lambda_weights_rejects_bad_alpha():
    with pytest.raises(DomainError):
        lambda_weights(0.0)
    with pytest.raises(DomainError):
        lambda_weights(-0.3)
