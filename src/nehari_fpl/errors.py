"""Exception types shared across the toolkit, one per way a caller reacts.

Bad input (the command line exits 2): ParameterError, DegenerateInputError.
Numeric failure (exit 1): NoRootsError, SolverError.  The package itself
works around only DegenerateInputError and NoRootsError.
"""


class NehariError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(NehariError, ValueError):
    """An argument, parameter, setting or input file is invalid (including a grid mismatch)."""


class DegenerateInputError(NehariError, ValueError):
    """The input is degenerate for the requested operation (e.g. zero function)."""


class NoRootsError(NehariError, RuntimeError):
    """The ray equation psi(t) = concave mass has no solution.

    Happens when the concave mass reaches the peak value psi(t0).
    """


class SolverError(NehariError, RuntimeError):
    """A solve failed: an unmet precondition, a root or crossing search that did not converge, or a refused iterate."""
