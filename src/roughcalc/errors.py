"""Exception types shared across the package."""

from __future__ import annotations


class RoughCalcError(Exception):
    """Base class for package-specific failures."""


class ConfigError(RoughCalcError, ValueError):
    """Bad configuration text, unknown key, or unusable parameter combination.

    Also a ValueError: library callers may catch a bad argument, such as a
    grid too coarse for a catalog functional, as a ValueError."""


class IllConditionedModelError(RoughCalcError):
    """Gram matrix could not be factorized even at the top of the jitter ladder."""

    def __init__(self, message: str, jitter: float | None = None):
        super().__init__(message)
        self.jitter = jitter


class UnsupportedDimensionError(RoughCalcError):
    """Quadrature requested over more future coordinates than supported."""


class MissingGradientError(RoughCalcError):
    """A functional or vector field lacks the gradient rule an operator needs."""
