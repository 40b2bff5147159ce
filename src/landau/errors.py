"""Exception hierarchy for the landau package."""


class LandauError(Exception):
    """Base class for all package errors."""


class ConfigError(LandauError):
    """Invalid or unparseable run configuration."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GridMismatchError(LandauError):
    """Operands live on different velocity grids."""


class QuadratureError(LandauError):
    """Coefficient quadrature did not converge under order doubling."""


class CrossCheckError(LandauError):
    """Two independent computation routes disagree beyond tolerance."""


class EigenvalueError(LandauError):
    """Eigenvalue iteration did not converge."""


class InstabilityError(LandauError):
    """The Chebyshev propagation interval does not contain the measured
    spectrum of the propagated system, so the series would grow."""


class DegenerateRatioError(LandauError):
    """Ratio estimate hit a near-zero denominator."""


class FitDegenerateError(LandauError):
    """Factorial fit received a vanishing ladder entry (exact-solution case)."""


class SnapshotFormatError(LandauError):
    """A field snapshot file is malformed: wrong magic, or a size other
    than the one its header implies."""
