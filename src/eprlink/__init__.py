"""Entanglement of an EPR pair distributed through Pauli channels.

Closed-form channel algebra and Bell-diagonal analytics, dense density-matrix
and Monte Carlo oracles that validate them, and derived quantities: threshold
lengths and per-km error densities estimated from experimental QBER.

The public names are those in the ``__all__`` of `channel`, `epr`,
`analysis` and `oracle`, plus the three errors; each module's ``__all__`` is
the one list of its names, and the oracle's is `_ORACLE_NAMES` here.  The
oracle's names load it, and numpy, on first access.
"""

import importlib

from . import analysis, channel, epr
from .analysis import *
from .channel import *
from .epr import *
from .errors import DomainError, NumericError, ValidationError

__version__ = "0.1.0"

# The oracle and the sampler need numpy, which is most of the import time;
# their names load it on first access.  `oracle.__all__` is built from this
# list, so reading the names loads no numpy.
_ORACLE_NAMES = frozenset(
    {
        "McEstimate",
        "PAULI",
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


__all__ = sorted(
    {*channel.__all__, *epr.__all__, *analysis.__all__, *_ORACLE_NAMES}
    | {"DomainError", "NumericError", "ValidationError"}
)
