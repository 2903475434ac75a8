"""Entanglement of an EPR pair distributed through Pauli channels.

Closed-form channel algebra and Bell-diagonal analytics, dense density-matrix
and Monte Carlo oracles that validate them, and derived quantities: threshold
lengths and per-km error densities estimated from experimental QBER.
"""

import importlib

from .analysis import (
    MeasurementPoint,
    SweepRow,
    SweepTable,
    ThresholdResult,
    estimate_mu,
    fit_mu,
    sweep,
    threshold_depolarizing,
    threshold_double_flip,
    threshold_generic,
)
from .channel import (
    ErrorDensities,
    Lambdas,
    PauliProbs,
    at_length,
    compose,
    decay_factors,
    depolarizing_probs,
    flip_at_length,
    iterate,
    iterate_bruteforce,
)
from .epr import (
    BellDiagonal,
    LinkGeometry,
    concurrence,
    concurrence_vs_length,
    dominant_bell_state,
    doubleflip_coefficients,
    fidelity_psi_plus,
    transmit,
    transmit_at_length,
)
from .errors import DomainError, NumericError, ValidationError

__version__ = "0.1.0"

# The oracle and the sampler need numpy, which is most of the import time;
# their names load it on first access.
_ORACLE_NAMES = frozenset(
    {
        "McEstimate",
        "apply_single_qubit_pauli",
        "apply_two_sided",
        "bell_diagonal_project",
        "bell_state",
        "bell_vector",
        "hermitian_eigenvalues",
        "monte_carlo_transmit",
        "psd_sqrt",
        "validate_density_matrix",
        "wootters_concurrence",
    }
)


def __getattr__(name):
    if name == "oracle" or name in _ORACLE_NAMES:
        oracle = importlib.import_module(".oracle", __name__)
        value = oracle if name == "oracle" else getattr(oracle, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _ORACLE_NAMES | {"oracle"})

__all__ = [
    "BellDiagonal",
    "DomainError",
    "ErrorDensities",
    "Lambdas",
    "LinkGeometry",
    "McEstimate",
    "MeasurementPoint",
    "NumericError",
    "PauliProbs",
    "SweepRow",
    "SweepTable",
    "ThresholdResult",
    "ValidationError",
    "apply_single_qubit_pauli",
    "apply_two_sided",
    "at_length",
    "bell_diagonal_project",
    "bell_state",
    "bell_vector",
    "compose",
    "concurrence",
    "concurrence_vs_length",
    "decay_factors",
    "depolarizing_probs",
    "dominant_bell_state",
    "doubleflip_coefficients",
    "estimate_mu",
    "fidelity_psi_plus",
    "fit_mu",
    "flip_at_length",
    "hermitian_eigenvalues",
    "iterate",
    "iterate_bruteforce",
    "monte_carlo_transmit",
    "psd_sqrt",
    "sweep",
    "threshold_depolarizing",
    "threshold_double_flip",
    "threshold_generic",
    "transmit",
    "transmit_at_length",
    "validate_density_matrix",
    "wootters_concurrence",
]
