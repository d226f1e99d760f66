"""Finite-size security bounds and a protocol simulator for four-state
discrete-modulation CV-QKD with heterodyne detection.

The public surface re-exports the main types and entry points of each
layer; the submodules stay importable for the full APIs.
"""

from .channel import ProtocolParams
from .finitekey import KeyLengthReport, SecurityBudget, key_length
from .gaussian import g_entropy, holevo_f, symplectic_eigenvalues
from .modulation import honest_covariance, lambda_weights
from .pe import ConfidenceRegion, calibrate_deltas, gamma_estimates, pe_decision
from .reconciliation import biawgn_capacity
from .rotations import OrthogonalTransform

__version__ = "0.1.0"

__all__ = [
    "ConfidenceRegion",
    "KeyLengthReport",
    "OrthogonalTransform",
    "ProtocolParams",
    "SecurityBudget",
    "__version__",
    "biawgn_capacity",
    "calibrate_deltas",
    "g_entropy",
    "gamma_estimates",
    "holevo_f",
    "honest_covariance",
    "key_length",
    "lambda_weights",
    "pe_decision",
    "symplectic_eigenvalues",
]
