"""Two-mode Gaussian state numerics.

Conventions used throughout: shot-noise units in which the vacuum has
quadrature variance 1.  A symmetric two-mode covariance matrix is described
by the triple (x, y, z) and stands for the 4x4 matrix

    [[x*I2, z*S], [z*S, y*I2]],   S = diag(1, -1), I2 = identity.

Entropies are in bits (base-2 logarithms).
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, NonPhysicalCovariance

# Eigenvalues may dip below 1 by at most this much before we call the state
# non-physical; smaller dips are treated as round-off and clamped.
NU_CLAMP_TOL = 1e-9

_DISC_TOL = 1e-12


class SymplecticSpectrum(NamedTuple):
    """Symplectic eigenvalues of the joint state and of the conditional state.

    nu1, nu2 are the joint-state symplectic eigenvalues; nu3 is the one of
    mode A after a heterodyne measurement of mode B.
    """

    nu1: float
    nu2: float
    nu3: float


def symplectic_eigenvalues(cov) -> SymplecticSpectrum:
    """Symplectic eigenvalues (nu1, nu2, nu3) of an (x, y, z) covariance.

    Closed form: with Delta = x^2 + y^2 - 2 z^2 and det = (x*y - z^2)^2,

        nu_{1,2}^2 = (Delta +/- sqrt(Delta^2 - 4 det)) / 2
        nu_3       = x - z^2 / (1 + y)

    Eigenvalues below 1 by more than NU_CLAMP_TOL raise
    NonPhysicalCovariance; smaller dips are clamped to exactly 1.
    """
    x, y, z = cov
    delta = x * x + y * y - 2.0 * z * z
    det = (x * y - z * z) ** 2
    disc = delta * delta - 4.0 * det
    if disc < -_DISC_TOL:
        raise NonPhysicalCovariance(
            f"negative discriminant {disc!r} for (x, y, z)=({x}, {y}, {z})"
        )
    root = math.sqrt(max(disc, 0.0))
    nu1_sq = 0.5 * (delta + root)
    nu2_sq = 0.5 * (delta - root)
    if nu2_sq < 0.0:
        if nu2_sq < -_DISC_TOL:
            raise NonPhysicalCovariance(
                f"negative squared eigenvalue {nu2_sq!r} for"
                f" (x, y, z)=({x}, {y}, {z})"
            )
        nu2_sq = 0.0
    nu1 = math.sqrt(nu1_sq)
    nu2 = math.sqrt(nu2_sq)
    nu3 = x - z * z / (1.0 + y)

    out = []
    for name, nu in (("nu1", nu1), ("nu2", nu2), ("nu3", nu3)):
        if nu < 1.0 - NU_CLAMP_TOL:
            raise NonPhysicalCovariance(
                f"{name}={nu!r} below 1 for (x, y, z)=({x}, {y}, {z})"
            )
        out.append(max(nu, 1.0))
    return SymplecticSpectrum(*out)


def _tlog2t(t: float) -> float:
    # t*log2(t) with the continuous extension 0 at t=0
    if t <= 0.0:
        return 0.0
    return t * math.log2(t)


def g_entropy(nu: float) -> float:
    """Von Neumann entropy (bits) of a thermal mode with symplectic value nu.

    g(nu) = ((nu+1)/2) log2((nu+1)/2) - ((nu-1)/2) log2((nu-1)/2), with the
    convention t*log2(t) -> 0 as t -> 0, so g(1) = 0.
    """
    if nu < 1.0 - NU_CLAMP_TOL:
        raise DomainError(f"g_entropy requires nu >= 1, got {nu!r}")
    nu = max(nu, 1.0)
    return _tlog2t((nu + 1.0) / 2.0) - _tlog2t((nu - 1.0) / 2.0)


def holevo_f(cov) -> float:
    """Eavesdropper information bound f = g(nu1) + g(nu2) - g(nu3) in bits.

    `cov` is an (x, y, z) triple.  Monotone in the usual directions:
    increasing y (channel noise) increases f, increasing z (correlation)
    decreases it.
    """
    nu1, nu2, nu3 = symplectic_eigenvalues(cov)
    return g_entropy(nu1) + g_entropy(nu2) - g_entropy(nu3)
