"""Exception types shared across the package, and the type tests of its arguments."""

import numbers


class SchwarzJDError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(SchwarzJDError, ValueError):
    """A precondition on an argument was violated."""


class SingularMatrixError(SchwarzJDError):
    """A matrix was singular to working precision during factorization."""


class EigensolverError(SchwarzJDError):
    """An iterative eigensolver failed or did not converge."""


class ClusterTooLargeError(InvalidArgumentError):
    """The targeted cluster does not fit on the initialization mesh."""


class EmptyBasisError(SchwarzJDError):
    """Orthonormalization dropped every vector and no basis remains."""


class ProblemTooLargeError(InvalidArgumentError):
    """A computation was requested beyond its feasibility guard.

    Raised by ``linalg.admit`` for a mesh dof grid, a dense coarse
    eigensolve, a startup block, a trial basis or its projected eigensolve larger
    than the machine's physical memory.
    """


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or NumPy integer; a bool is not a count.

    A caller that computes with an accepted value keeps it as ``int(value)``:
    arithmetic on a NumPy integer wraps at its width, silently in arrays."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    """Whether ``value`` is a Python or NumPy real number; a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)
