"""Exception hierarchy shared across the package."""


class TglabError(Exception):
    """Base class for all package errors."""


class QuadratureError(TglabError):
    """Quadrature failed to converge within its panel budget."""


class ProfileError(TglabError):
    """Invalid or degenerate leakage profile."""


class GraphConfigError(TglabError):
    """A graph operation was applied to an unsupported configuration."""


class ImpossibleStateError(TglabError):
    """An operation produced a zero-norm (annihilated) state."""


class TrajectoryError(TglabError):
    """Conditional-evolution integration failed a consistency check."""


class ConfigError(TglabError):
    """Invalid experiment configuration file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class VerificationError(TglabError):
    """Oracle cross-check exceeded its discrepancy budget or had no case to check."""
