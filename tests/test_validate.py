"""Monte Carlo self-checks of the concentration bounds."""

import math
from dataclasses import astuple

import numpy as np
import pytest
from scipy import stats

from dmcvqkd import cli, pe
from dmcvqkd.channel import wishart2
from dmcvqkd.modulation import honest_covariance
from dmcvqkd.validate import BoundRow, _rng, run_all

from oracles import draw_pair, pair_statistics

TRIALS = 4000


def _cells(row):
    """A row as bounds.csv prints it (nan cells compare equal as text)."""
    return [cli._cell(v) for v in astuple(row)]


def _pe_theorem_scaling(alpha=0.5, T=0.6, xi=0.05):
    """(sx, sy, r) of the honest-channel entries the pe-theorem row draws."""
    v_a = 2.0 * alpha * alpha
    va2 = (v_a + 2.0) / 2.0
    vb2 = (T * v_a + 2.0 + T * xi) / 2.0
    rho = math.sqrt(T) * honest_covariance(alpha, 1.0, 0.0)[2] / 2.0
    return math.sqrt(va2), math.sqrt(vb2), rho / math.sqrt(va2 * vb2)


@pytest.mark.parametrize("sx, sy, r", [(1.0, 1.0, 0.6),
                                       _pe_theorem_scaling()],
                         ids=["unit", "pe-theorem"])
def test_wishart2_matches_full_vector_sampler(sx, sy, r):
    dof, size = 100, 4000
    nx, ny, ip = wishart2(_rng(11, 0, 0), dof, size, sx, sy, r)
    vx, vy = draw_pair(_rng(12, 0, 0), dof, size, r)
    reference = pair_statistics(sx * vx, sy * vy)
    for drawn, ref in zip((nx, ny, ip), reference):
        assert stats.ks_2samp(drawn, ref).pvalue > 1e-3
    # exact moments: E||X||^2 = dof sx^2 (variance 2 dof sx^4),
    # E<X,Y> = dof r sx sy (variance dof sx^2 sy^2 (1 + r^2))
    se_nx = math.sqrt(2.0 * dof / size) * sx * sx
    se_ny = math.sqrt(2.0 * dof / size) * sy * sy
    se_ip = math.sqrt(dof * (1.0 + r * r) / size) * sx * sy
    assert abs(np.mean(nx) - dof * sx * sx) < 5.0 * se_nx
    assert abs(np.mean(ny) - dof * sy * sy) < 5.0 * se_ny
    assert abs(np.mean(ip) - dof * r * sx * sy) < 5.0 * se_ip


_SHIPPED = {name: getattr(pe, name) for name in (
    "inner_product_bounds", "cross_half_bounds", "gamma_estimates")}


def _tight_inner_product_bounds(norm_x2, norm_y2, ip_xy, k, x):
    b = _SHIPPED["inner_product_bounds"](norm_x2, norm_y2, ip_xy, k, x)
    half = 0.5 * ip_xy
    return pe.InnerProductBounds(*(half + (v - half) / 10.0 for v in b))


def _tight_cross_half_bounds(norm_half2, ip_half, k, epsilon,
                             norm_other_half2):
    b = _SHIPPED["cross_half_bounds"](norm_half2, ip_half, k, epsilon,
                                      norm_other_half2)
    return pe.CrossHalfBounds(
        upper_other=norm_half2 + (b.upper_other - norm_half2) / 10.0,
        lower_other=norm_half2 + (b.lower_other - norm_half2) / 10.0,
        ip_lower=ip_half + (b.ip_lower - ip_half) / 10.0,
    )


def _tight_gamma_estimates(norm_x2, norm_y2, ip_xy, k, epsilon_pe):
    gammas = _SHIPPED["gamma_estimates"](norm_x2, norm_y2, ip_xy, k,
                                         epsilon_pe)
    unbiased = (norm_x2 / (2.0 * k) - 1.0, norm_y2 / (2.0 * k) - 1.0,
                ip_xy / (2.0 * k))
    return tuple(c + (g - c) / 10.0 for g, c in zip(gammas, unbiased))


@pytest.mark.parametrize("name, tight, rows, violated", [
    pytest.param("inner_product_bounds", _tight_inner_product_bounds,
                 ("lemma3-two-sided", "lemma3-one-sided"), (),
                 id="inner_product_bounds"),
    pytest.param("cross_half_bounds", _tight_cross_half_bounds,
                 ("lemma4-norm-upper", "lemma4-norm-lower",
                  "lemma4-ip-lower"),
                 ("lemma4-norm-upper", "lemma4-norm-lower"),
                 id="cross_half_bounds"),
    pytest.param("gamma_estimates", _tight_gamma_estimates, ("pe-theorem",),
                 ("pe-theorem",), id="gamma_estimates"),
])
def test_rows_check_the_shipped_pe_functions(monkeypatch, name, tight,
                                             rows, violated):
    # a bound with a 10x tighter margin must show up in its rows; the
    # lemma3 claims (8 e^-2, 4 e^-2) and the lemma4 inner-product claim
    # (4 eps) are too loose to be violated, so there the observed frequency
    # only has to rise
    base = run_all(seed=99, trials=TRIALS)
    monkeypatch.setattr(pe, name, tight)
    patched = run_all(seed=99, trials=TRIALS)
    for before, row in zip(base, patched):
        if row.lemma in rows:
            assert row.observed > before.observed, row
        else:
            assert _cells(row) == _cells(before)
        if row.lemma in violated:
            assert row.verdict == "violated", row
    assert [r.observed for r in base if r.lemma == "lemma3-two-sided"] == [0]


def test_run_all_row_inventory():
    rows = run_all(seed=99, trials=TRIALS)
    labels = [(r.lemma, r.k, r.param) for r in rows]
    assert len(rows) == 14
    # chi-square tails at three exponents, both sides
    for x in (1.0, 2.0, 4.0):
        assert ("lemma1-upper", 100, x) in labels
        assert ("lemma1-lower", 100, x) in labels
    assert ("lemma2-interval", 100, 0.05) in labels
    assert ("lemma3-two-sided", 200, 2.0) in labels
    assert ("lemma3-one-sided", 200, 2.0) in labels
    assert ("lemma4-norm-upper", 500, 0.05) in labels
    assert ("lemma4-norm-lower", 500, 0.05) in labels
    assert ("lemma4-ip-lower", 500, 0.05) in labels
    assert ("pe-theorem", 500, 0.001) in labels


def test_run_all_bounds_hold():
    rows = run_all(seed=99, trials=TRIALS)
    for r in rows:
        if r.lemma == "lemma4-validity-edge":
            continue
        assert r.verdict == "ok", r
        var = max(r.claimed * (1 - r.claimed), 0.0)  # claims > 1 are vacuous
        slack = 3.0 * math.sqrt(var / r.trials)
        assert r.observed <= r.claimed + slack, r


def test_run_all_deterministic():
    a = run_all(seed=7, trials=1000)
    b = run_all(seed=7, trials=1000)
    assert [_cells(r) for r in a] == [_cells(r) for r in b]
    c = run_all(seed=8, trials=1000)
    obs_a = [r.observed for r in a if r.trials]
    obs_c = [r.observed for r in c if r.trials]
    assert obs_a != obs_c


def test_run_all_does_not_depend_on_workers():
    # every chunk draws from its own (seed, row, chunk) substream and
    # returns integer counts, so any thread count gives the same rows
    rows = {w: [_cells(r) for r in run_all(seed=5, trials=2000, workers=w)]
            for w in (1, 2, 4)}
    assert rows[1] == rows[2] == rows[4]


def test_validity_edge_row():
    rows = run_all(seed=99, trials=1000)
    edge = [r for r in rows if r.lemma == "lemma4-validity-edge"]
    assert len(edge) == 1
    r = edge[0]
    # probing outside the stated validity range is reported, not tested
    assert r.verdict == "regime-error"
    assert r.trials == 0
    assert math.isnan(r.claimed) and math.isnan(r.observed)


def test_claimed_probabilities():
    rows = {(r.lemma, r.param): r for r in run_all(seed=99, trials=1000)}
    assert rows[("lemma1-upper", 2.0)].claimed == math.exp(-2.0)
    assert rows[("lemma2-interval", 0.05)].claimed == 0.1  # 2 eps
    assert rows[("lemma3-two-sided", 2.0)].claimed == 8.0 * math.exp(-2.0)
    assert rows[("lemma3-one-sided", 2.0)].claimed == 4.0 * math.exp(-2.0)
    assert rows[("lemma4-ip-lower", 0.05)].claimed == 0.2  # 4 eps
    assert rows[("pe-theorem", 0.001)].claimed == 0.001


def test_bound_row_csv_shape():
    rows = run_all(seed=99, trials=1000)
    for r in rows:
        assert len(_cells(r)) == len(BoundRow.CSV_HEADER)
