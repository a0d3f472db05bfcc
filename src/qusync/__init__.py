"""qusync: two-qubit synchronization under correlated dissipative noise.

Dense Lindblad dynamics for a driven, exchange-coupled qubit pair whose
collective jump operators inherit the correlation of two Ornstein-Uhlenbeck
environments, plus the analysis stack: Hilbert-transform phase locking,
entropy and mutual-information measures, and quantum discord over orthogonal
measurements.
"""

from .lindblad import (
    Channel,
    ModelParams,
    build_liouvillian,
    evolve,
    steady_state,
)
from .noise import OUParams, correlation_transform, sample_ou, spectral_density
from .phaselock import TimeSeries, analytic_signal, sync_metrics
from .qinfo import (
    EntropyUnit,
    MeasurementBasis,
    classical_mutual_information,
    degree_of_quantumness,
    discord_min,
    mutual_information,
    random_density_matrix,
    von_neumann_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "Channel",
    "ModelParams",
    "build_liouvillian",
    "evolve",
    "steady_state",
    "OUParams",
    "correlation_transform",
    "sample_ou",
    "spectral_density",
    "TimeSeries",
    "analytic_signal",
    "sync_metrics",
    "EntropyUnit",
    "MeasurementBasis",
    "classical_mutual_information",
    "degree_of_quantumness",
    "discord_min",
    "mutual_information",
    "random_density_matrix",
    "von_neumann_entropy",
    "__version__",
]
