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


class DomainError(LandauError):
    """Evaluation requested at a point outside the kernel's domain (v = 0)."""


class GridMismatchError(LandauError):
    """Operands live on different velocity grids."""


class QuadratureError(LandauError):
    """Coefficient quadrature did not converge under order doubling."""


class CrossCheckError(LandauError):
    """Two independent computation routes disagree beyond tolerance."""


class EigenvalueError(LandauError):
    """Eigenvalue iteration did not converge."""


class InstabilityError(LandauError):
    """Time stepper detected blow-up."""


class UnsupportedOrderError(LandauError):
    """Requested derivative order above the configured maximum."""


class LadderOverflowError(LandauError):
    """Derivative ladder entry overflowed; carries the breakdown depth."""

    def __init__(self, message, depth):
        super().__init__(message)
        self.depth = depth


class DegenerateRatioError(LandauError):
    """Ratio estimate hit a near-zero denominator."""


class FitDegenerateError(LandauError):
    """Factorial fit received a vanishing ladder entry (exact-solution case)."""


class CacheFormatError(LandauError):
    """On-disk cache or snapshot file is malformed or mismatched."""
