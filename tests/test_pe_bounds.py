"""Parameter-estimation estimators, thresholds and abort decision."""

import math

import numpy as np
import pytest
from scipy.special import chdtri

from dmcvqkd.errors import (
    DomainError,
    EpsilonTooSmall,
    RegimeError,
    ValidityRange,
)
from dmcvqkd.pe import (
    ConfidenceRegion,
    calibrate_deltas,
    chi2_tail_thresholds,
    cross_half_bounds,
    gamma_estimates,
    inner_product_bounds,
    pe_decision,
    projection_bounds,
)

# shared synthetic PE statistics: k modes per half, 2k entries per vector
STATS = dict(norm_x2=22000.0, norm_y2=24000.0, ip_xy=11000.0, k=10000)


def test_chi2_tail_thresholds_frozen():
    up, down = chi2_tail_thresholds(100.0, 4.0)
    assert up == 48.0 and down == 40.0
    with pytest.raises(DomainError):
        chi2_tail_thresholds(100.0, -1.0)


def test_chi2_tail_thresholds_are_actual_tail_bounds():
    # cross-check against the exact chi-square tail at a few points
    from scipy.stats import chi2

    for k, x in [(50, 1.0), (200, 3.0), (1000, 5.0)]:
        up, down = chi2_tail_thresholds(k, x)
        assert chi2.sf(k + up, df=k) <= math.exp(-x)
        assert chi2.cdf(k - down, df=k) <= math.exp(-x)


def test_projection_bounds_frozen():
    lower, upper = projection_bounds(100.0, 10000, 1e-2)
    assert lower == pytest.approx(47.4680118456985, rel=1e-13)
    assert upper == pytest.approx(52.877259266251706, rel=1e-13)
    assert lower < 50.0 < upper


def test_projection_bounds_epsilon_floor():
    # validity requires eps >= 2 exp(-k/2)
    with pytest.raises(EpsilonTooSmall):
        projection_bounds(1.0, 10, 1e-9)
    projection_bounds(1.0, 10, 2.0 * math.exp(-5.0) * 1.01)


def test_inner_product_bounds_frozen():
    b = inner_product_bounds(100.0, 120.0, 30.0, 10000, 4.0)
    assert b.lower == pytest.approx(4.66, rel=1e-12)
    assert b.upper == pytest.approx(25.34, rel=1e-12)
    assert b.one_sided_lower == pytest.approx(4.0, rel=1e-12)
    # the one-sided floor (prob 4e^-x) is looser than the two-sided lower
    # edge (prob 8e^-x) at equal x
    assert b.one_sided_lower <= b.lower


def test_inner_product_bounds_regime():
    with pytest.raises(DomainError):
        inner_product_bounds(1.0, 1.0, 0.0, 10, 6.0)  # x > k/2


def test_cross_half_bounds_frozen():
    b = cross_half_bounds(100.0, 30.0, 10000, 1e-2, 100.0)
    assert b.upper_other == pytest.approx(106.51049452287491, rel=1e-13)
    assert b.lower_other == pytest.approx(93.48950547712508, rel=1e-13)
    assert b.ip_lower == pytest.approx(16.979010954250164, rel=1e-13)


def test_cross_half_bounds_validity_range():
    with pytest.raises(ValidityRange):
        cross_half_bounds(1.0, 0.0, 10, 1e-3, 1.0)  # log(2/eps)/(2k) > 0.05


def test_gamma_estimates_frozen():
    g = gamma_estimates(epsilon_pe=1e-2, **STATS)
    assert g[0] == pytest.approx(0.19443242269750227, rel=1e-13)
    assert g[1] == pytest.approx(0.3030171883972752, rel=1e-13)
    assert g[2] == pytest.approx(-0.30403977775998814, rel=1e-13)


def test_gamma_estimates_are_conservative():
    # gamma_a inflates the raw second moment, gamma_c deflates the raw
    # correlation: the estimators err on the adversary's side
    g = gamma_estimates(epsilon_pe=1e-2, **STATS)
    k = STATS["k"]
    assert g[0] >= STATS["norm_x2"] / (2 * k) - 1.0
    assert g[1] >= STATS["norm_y2"] / (2 * k) - 1.0
    assert g[2] <= STATS["ip_xy"] / (2 * k)


def test_gamma_estimates_log_base():
    g_nat = gamma_estimates(epsilon_pe=1e-2, **STATS)
    g_lit = gamma_estimates(epsilon_pe=1e-2, log_base="paper-literal", **STATS)
    # log2 deviations are larger than ln ones
    assert g_lit[0] > g_nat[0]
    assert g_lit[2] < g_nat[2]
    with pytest.raises(DomainError):
        gamma_estimates(epsilon_pe=1e-2, log_base="log10", **STATS)


def test_gamma_estimates_regime_error():
    with pytest.raises(RegimeError):
        gamma_estimates(100.0, 100.0, 0.0, 50, 1e-6)


# (function, argument maker): the norm/inner-product arguments come from
# three statistic vectors; the rest are fixed scalars inside each bound's
# validity range
ARRAY_CALLS = [
    (projection_bounds, lambda nx, ny, ip: (nx, 10000, 1e-2)),
    (inner_product_bounds, lambda nx, ny, ip: (nx, ny, ip, 10000, 4.0)),
    (cross_half_bounds,
     lambda nx, ny, ip: (nx, ip, 10000, 1e-2, ny, "paper-literal")),
    (gamma_estimates, lambda nx, ny, ip: (nx, ny, ip, 10000, 1e-2)),
]


@pytest.mark.parametrize("fn, make_args", ARRAY_CALLS,
                         ids=[fn.__name__ for fn, _ in ARRAY_CALLS])
def test_bounds_accept_arrays_element_for_element(fn, make_args):
    g = np.random.default_rng(5)
    nx = 20000.0 + 200.0 * g.standard_normal(7)
    ny = 24000.0 + 200.0 * g.standard_normal(7)
    ip = 11000.0 + 200.0 * g.standard_normal(7)
    nx[0] = 0.0  # a zero norm is in the domain
    whole = fn(*make_args(nx, ny, ip))
    for i in range(nx.size):
        one = fn(*make_args(float(nx[i]), float(ny[i]), float(ip[i])))
        assert tuple(float(part[i]) for part in whole) == tuple(one)


NORM_CHECKED = [c for c in ARRAY_CALLS
                if c[0] in (projection_bounds, cross_half_bounds)]


@pytest.mark.parametrize("fn, make_args", NORM_CHECKED,
                         ids=[fn.__name__ for fn, _ in NORM_CHECKED])
def test_one_negative_norm_in_an_array_raises(fn, make_args):
    nx = np.array([100.0, 90.0, -1e-300, 120.0])
    with pytest.raises(DomainError):
        fn(*make_args(nx, nx, nx))


def test_calibrate_deltas_frozen():
    d = calibrate_deltas(0.5, 0.6, 0.05, 10000, 1e-2, 1e-2)
    assert d.delta_a == pytest.approx(0.27130572033429967, rel=1e-12)
    assert d.delta_b == pytest.approx(0.2528569313515674, rel=1e-12)
    assert d.delta_c == pytest.approx(1.8230967450055084, rel=1e-12)


def test_calibrate_deltas_shrink_with_k():
    small = calibrate_deltas(0.5, 0.6, 0.05, 10_000, 1e-2, 1e-2)
    big = calibrate_deltas(0.5, 0.6, 0.05, 160_000, 1e-2, 1e-2)
    assert big.delta_a < small.delta_a
    assert big.delta_b < small.delta_b
    assert big.delta_c < small.delta_c


def test_calibrate_deltas_tighten_with_eps_rob():
    loose = calibrate_deltas(0.5, 0.6, 0.05, 10_000, 1e-2, 1e-1)
    tight = calibrate_deltas(0.5, 0.6, 0.05, 10_000, 1e-2, 1e-3)
    # a smaller abort budget needs wider acceptance windows
    assert tight.delta_a > loose.delta_a
    assert tight.delta_c > loose.delta_c


@pytest.mark.parametrize("alpha, T, xi, k, eps_pe", [
    (0.5, 0.6, 0.05, 10_000, 1e-2),
    (0.5, 0.5, 0.01, 2_000_000_000, 1e-10),
])
def test_calibration_matches_the_estimator(alpha, T, xi, k, eps_pe):
    # the a/b offsets put the abort edge where the shipped estimator sends
    # the honest statistic's eps_rob/6 quantile: norm = (var + 1)/2 * U
    # with U at the upper quantile of chi2(4k)
    eps_rob = 1e-2
    d = calibrate_deltas(alpha, T, xi, k, eps_pe, eps_rob)
    v = 2.0 * alpha * alpha + 1.0
    sigma_b = T * (v - 1.0) + 1.0 + T * xi
    q = chdtri(4 * k, eps_rob / 6.0)
    g = gamma_estimates((v + 1.0) / 2.0 * q, (sigma_b + 1.0) / 2.0 * q, 0.0,
                        k, eps_pe)
    assert g[0] == pytest.approx(v + d.delta_a, rel=1e-12)
    assert g[1] == pytest.approx(sigma_b + d.delta_b, rel=1e-12)


def test_pe_decision_thresholds_and_verdicts():
    deltas = calibrate_deltas(0.5, 0.5, 0.01, 2_000_000_000, 1e-10, 1e-2)
    dec = pe_decision((0.6, 0.4, 0.9), 1.5, 0.5, 0.01, deltas)
    assert isinstance(dec, ConfidenceRegion)
    assert dec.sigma_a_max == pytest.approx(1.5009811602015506, rel=1e-12)
    assert dec.sigma_b_max == pytest.approx(1.2558850065017988, rel=1e-12)
    assert dec.sigma_c_min == pytest.approx(0.7685409749444306, rel=1e-12)
    assert dec.passed and dec.verdict == "pass"
    # violating any one threshold aborts
    assert pe_decision((1.6, 0.4, 0.9), 1.5, 0.5, 0.01, deltas).verdict == "abort"
    assert pe_decision((0.6, 1.3, 0.9), 1.5, 0.5, 0.01, deltas).verdict == "abort"
    assert pe_decision((0.6, 0.4, 0.5), 1.5, 0.5, 0.01, deltas).verdict == "abort"


def test_pe_decision_boundary_is_accepting():
    deltas = (0.1, 0.1, 0.1)
    probe = pe_decision((0.0, 0.0, 10.0), 1.5, 0.5, 0.01, deltas)
    edge = (probe.sigma_a_max, probe.sigma_b_max, probe.sigma_c_min)
    assert pe_decision(edge, 1.5, 0.5, 0.01, deltas).passed


def test_worst_case_covariance_clamps_negative_correlation():
    region = ConfidenceRegion(
        sigma_a_max=1.9, sigma_b_max=1.7, sigma_c_min=-2.2,
        epsilon_pe=1e-2, verdict="pass",
    )
    x, y, z = region.worst_case_covariance()
    assert (x, y, z) == (1.9, 1.7, 0.0)
    # and the clamped corner is the pessimum: any certified z is better
    from dmcvqkd.gaussian import holevo_f

    assert holevo_f((x, y, 0.5)) <= holevo_f((x, y, z))


def test_pe_decision_rejects_negative_deltas():
    with pytest.raises(DomainError):
        pe_decision((0.0, 0.0, 0.0), 1.5, 0.5, 0.01, (-0.1, 0.1, 0.1))
