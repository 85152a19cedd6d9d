"""Tight-binding chains under a strong watching coupling.

Build chain Hamiltonians, evolve them exactly, derive order-resolved
effective Hamiltonians for the watched zero-level subspace, classify the
order of the constrained dynamics, and quantify the population leakage.
The package holds the scenario workflow; every other name is imported from
its module (``zenochain.linalg``, ``zenochain.perturbation``, ``zenochain.qzd``, ...).
"""

from .analytic import f_of_n, lambda_bound, phi_mid
from .chain import ChainSpec, CouplingFluctuation, build_chain, interior_block
from .errors import (
    AssumptionViolationError,
    ClusteringError,
    NumericalFailureError,
    SingularMatrixError,
    UnsupportedConfigurationError,
    ValidationError,
    ZenoChainError,
)
from .harness import ScenarioResult, SweepResult, run_fluctuation_trials, run_scenario, run_sweep
from .qzd import QzdOrder, check_prerequisite_ii

__version__ = "0.1.0"
