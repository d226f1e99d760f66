"""Symplectic spectra and the Holevo bound for two-mode covariances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmcvqkd.errors import DomainError, NonPhysicalCovariance
from dmcvqkd.gaussian import g_entropy, holevo_f, symplectic_eigenvalues
from dmcvqkd.pe import ConfidenceRegion

from oracles import dense_conditional_nu, dense_symplectic_pair


def sample_covariance(rng, u=0.98):
    """Random physical (x, y, z): z^2 stays inside u * (x-1)(y-1)."""
    x = 1.0 + rng.uniform(0.01, 9.0)
    y = 1.0 + rng.uniform(0.01, 9.0)
    zmax = math.sqrt(u * (x - 1.0) * (y - 1.0))
    z = rng.uniform(-zmax, zmax)
    return x, y, z


def test_g_entropy_reference_points():
    # g(2N+1) for a thermal state with N mean photons; N=1 gives exactly 2.
    assert g_entropy(3.0) == pytest.approx(2.0, abs=1e-14)
    assert g_entropy(1.0) == 0.0
    # large-nu expansion: g(nu) ~ log2(nu/2) + 1/ln2... check monotonicity
    assert g_entropy(10.0) > g_entropy(5.0) > g_entropy(1.5) > 0.0


def test_g_entropy_rejects_below_vacuum():
    with pytest.raises(DomainError):
        g_entropy(0.5)


def test_symplectic_eigenvalues_frozen():
    spec = symplectic_eigenvalues((1.5, 1.255, 0.7754))
    assert spec.nu1 == pytest.approx(1.2610346239794379, rel=1e-14)
    assert spec.nu2 == pytest.approx(1.0160346239794378, rel=1e-14)
    assert spec.nu3 == pytest.approx(1.2333724345898005, rel=1e-14)


def test_holevo_f_frozen():
    f = holevo_f((1.5, 1.255, 0.7754))
    assert f == pytest.approx(0.11148811510568002, rel=1e-13)


def test_holevo_f_accepts_triple():
    # the worst-case corner of a PE region is the (x, y, z) triple itself
    region = ConfidenceRegion(1.5, 1.255, 0.7754, 1e-10, "pass")
    assert holevo_f(region.worst_case_covariance()) == holevo_f(
        (1.5, 1.255, 0.7754)
    )


def test_joint_eigenvalues_match_dense_oracle():
    rng = np.random.default_rng(1)
    for _ in range(300):
        x, y, z = sample_covariance(rng)
        spec = symplectic_eigenvalues((x, y, z))
        big, small = dense_symplectic_pair(x, y, z)
        assert spec.nu1 == pytest.approx(big, rel=1e-9)
        assert spec.nu2 == pytest.approx(small, rel=1e-9)


def test_conditional_eigenvalue_matches_schur_oracle():
    rng = np.random.default_rng(2)
    for _ in range(300):
        x, y, z = sample_covariance(rng)
        spec = symplectic_eigenvalues((x, y, z))
        assert spec.nu3 == pytest.approx(dense_conditional_nu(x, y, z), rel=1e-9)


def test_uncorrelated_covariance_decouples():
    spec = symplectic_eigenvalues((2.0, 3.0, 0.0))
    assert sorted([spec.nu1, spec.nu2]) == pytest.approx([2.0, 3.0])
    assert spec.nu3 == pytest.approx(2.0)
    # zero certified correlation: everything on Bob's side is attributed
    # to the adversary, f = g(y), the maximum over z
    assert holevo_f((2.0, 3.0, 0.0)) == pytest.approx(g_entropy(3.0), rel=1e-12)
    assert holevo_f((2.0, 3.0, 1.0)) < holevo_f((2.0, 3.0, 0.0))


def test_nonphysical_covariance_rejected():
    with pytest.raises(NonPhysicalCovariance):
        symplectic_eigenvalues((1.5, 1.5, 2.0))
    with pytest.raises(NonPhysicalCovariance):
        symplectic_eigenvalues((0.5, 1.5, 0.0))


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(1.05, 8.0),
    y=st.floats(1.05, 8.0),
    frac=st.floats(0.0, 0.95),
)
def test_holevo_f_even_in_z_and_decreasing(x, y, frac):
    z = frac * math.sqrt((x - 1.0) * (y - 1.0))
    assert holevo_f((x, y, z)) == pytest.approx(holevo_f((x, y, -z)), rel=1e-10)
    # more correlation certified => less information attributed to the
    # adversary: f decreases in |z|
    if z > 1e-6:
        assert holevo_f((x, y, 0.5 * z)) >= holevo_f((x, y, z)) - 1e-12


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(1.05, 8.0),
    y=st.floats(1.05, 8.0),
    frac=st.floats(0.0, 0.9),
)
def test_symplectic_eigenvalues_at_least_vacuum(x, y, frac):
    z = frac * math.sqrt((x - 1.0) * (y - 1.0))
    spec = symplectic_eigenvalues((x, y, z))
    assert spec.nu1 >= 1.0 - 1e-9
    assert spec.nu2 >= 1.0 - 1e-9
    assert spec.nu3 >= 1.0 - 1e-9
