"""Exception hierarchy shared by all obsnet modules.

Each class maps to a stable process exit code so the CLI can be scripted:
0 success, 2 infeasible, 3 guard exceeded, 1 anything else. ``kind`` is the
error kind the CLI prints.
"""

from __future__ import annotations


class ObsnetError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1
    kind = "error"


class ShapeError(ObsnetError):
    """A matrix or graph argument has incompatible dimensions."""

    exit_code = 1
    kind = "shape"


class ValidationError(ObsnetError):
    """An instance or design document violates its schema or invariants."""

    exit_code = 1
    kind = "validation"


class InfeasibleError(ObsnetError):
    """The requested design does not exist for this instance.

    Raised for LSAP infeasibility, disconnected candidate networks,
    parent-component count mismatches and similar structural dead ends.
    """

    exit_code = 2
    kind = "infeasible"


class ScopeError(InfeasibleError):
    """The input is outside the regime the method is valid for.

    The structural observability test applies to structurally full-rank
    systems only; anything else is rejected rather than silently extended.
    """

    kind = "scope"


class GuardError(ObsnetError):
    """A size guard refused the input before any work: an exact brute-force
    oracle past its size limit, or a numeric verification whose dimension
    m n is past ``verification.VERIFY_MAX_DIM`` (one trial's basis takes
    8 (m n)^2 bytes)."""

    exit_code = 3
    kind = "guard"
