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


class SingularMatrixError(NumericalFailureError):
    """A matrix inversion hit a (numerically) singular matrix.

    Raised by the tridiagonal inverter; an unmodified odd chain's interior
    block triggers this through its exact zero mode.
    """


class ClusteringError(NumericalFailureError):
    """Eigenvalue clustering was ambiguous at the grouping tolerance.

    The message lists the tolerance and the gaps that make it ambiguous;
    ``analyze_watch`` takes no tolerance, it uses GROUPING_RTOL times max|eta|.
    """


class AssumptionViolationError(ValidationError):
    """The initial state is not annihilated by the watching Hamiltonian."""


class UnsupportedConfigurationError(ValidationError):
    """The operation is defined only for a restricted chain configuration."""
