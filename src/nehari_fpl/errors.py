"""Exception types shared across the toolkit."""


class NehariError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(NehariError, ValueError):
    """An argument or parameter value is outside its admissible range."""


class ConfigError(NehariError, ValueError):
    """A run configuration is malformed (unknown key, bad value, ...)."""


class GridMismatchError(NehariError, ValueError):
    """Two grid functions that must share a grid do not."""


class DegenerateInputError(NehariError, ValueError):
    """The input is degenerate for the requested operation (e.g. zero function)."""


class NoRootsError(NehariError, RuntimeError):
    """The ray equation psi(t) = concave mass has no solution.

    Happens when the concave mass reaches the peak value psi(t0).
    """


class BisectionError(NehariError, RuntimeError):
    """A bracketing root search failed to converge or to bracket."""


class NoCrossingError(NehariError, RuntimeError):
    """The two part-scaling curves never met inside the ratio bracket."""


class SolverError(NehariError, RuntimeError):
    """A solver precondition failed (e.g. the positive solve did not converge)."""
