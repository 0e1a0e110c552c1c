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

    Happens when the concave mass exceeds the peak value psi(t0); the gap
    concave_mass - psi_peak is recorded so callers can report how far the
    configuration is from solvability.
    """

    def __init__(self, psi_peak: float, concave_mass: float):
        self.psi_peak = float(psi_peak)
        self.concave_mass = float(concave_mass)
        self.gap = self.concave_mass - self.psi_peak
        super().__init__(
            "no ray roots: peak %.9g <= concave mass %.9g (gap %.3g)"
            % (self.psi_peak, self.concave_mass, self.gap)
        )


class BisectionError(NehariError, RuntimeError):
    """A bracketing root search failed to converge or to bracket."""


class NoCrossingError(NehariError, RuntimeError):
    """The two part-scaling curves never met inside the ratio bracket.

    ``trace`` holds (r, s_plus, s_minus) probes for diagnosis.
    """

    def __init__(self, message: str, trace):
        self.trace = list(trace)
        super().__init__(message)


class CollapseError(NehariError, RuntimeError):
    """A sign-changing iterate lost one of its parts."""

    def __init__(self, part: str, norm: float, scale: float):
        self.part = part
        self.norm = float(norm)
        self.scale = float(scale)
        super().__init__(
            "%s part collapsed: seminorm %.3g below 1e-10 * scale %.3g"
            % (part, norm, scale)
        )


class SolverError(NehariError, RuntimeError):
    """A solver precondition failed (e.g. the positive solve did not converge)."""
