"""Exception types shared across the package."""


class JetLagError(Exception):
    """Base class for all package-specific errors."""


class DomainError(JetLagError):
    """A jet point violates a model's domain predicate."""


class StencilDomainError(DomainError):
    """A finite-difference probe point left the model's valid domain.

    Carries the offending probe so callers can see which evaluation failed.
    """

    def __init__(self, message, probe=None):
        super().__init__(message)
        self.probe = probe


class SingularMetricError(JetLagError):
    """|det g| fell below 1e-12 times the product of the rows' 1-norms of g
    (at the g11 = 0 locus, or where FD reads a row of g as 0), or g is not
    finite."""


class ConfigError(JetLagError):
    """Invalid run configuration (unknown keys, bad types, bad values)."""
