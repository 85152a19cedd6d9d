"""Exception hierarchy shared by all zenochain modules.

The CLI maps these onto exit codes: validation problems exit 1, numerical
failures exit 2, I/O errors exit 3.
"""

from __future__ import annotations


class ZenoChainError(Exception):
    """Base class for all zenochain errors."""


class ValidationError(ZenoChainError):
    """An input value violates a documented precondition.

    The message names the offending field or argument.
    """


class NumericalFailureError(ZenoChainError):
    """An iterative numerical routine failed to converge."""


class ClusteringError(NumericalFailureError):
    """Eigenvalue clustering was ambiguous at the tolerance it names: two
    levels of one irreducible block of H_watch within the round-off bound
    N eps ||H_watch|| of zero (``analyze_watch``), or a chained cluster wider
    than ``group_levels``' tol."""


class AssumptionViolationError(ValidationError):
    """The initial state is not annihilated by the watching Hamiltonian."""


class UnsupportedConfigurationError(ValidationError):
    """The operation is defined only for a restricted chain configuration."""
