"""Exception types shared across the package."""


class HopfCyclicError(Exception):
    """Base class for all package errors."""


class ShapeMismatch(HopfCyclicError):
    """Matrix/vector dimensions do not line up."""


class CompositionNonzero(HopfCyclicError):
    """d_out . d_in != 0 where a complex was expected."""


class RankMismatch(HopfCyclicError):
    """Two exact counts of one rank or dimension disagree."""


class DimensionMismatch(HopfCyclicError):
    """Jets over different ambient dimensions or truncation orders."""


class NotUnipotent(HopfCyclicError):
    """Jet is not in N (origin fixed, linear part = identity)."""


class SingularLinearPart(HopfCyclicError):
    """Linear part of a jet is not invertible over Q."""


class TruncationOverflow(HopfCyclicError):
    """An exact result would need data beyond the configured cut."""


class InfeasibleCut(HopfCyclicError):
    """Requested block cannot be enumerated under the configured cuts."""


class InvalidConfig(HopfCyclicError):
    """CLI configuration violates an invariant (n >= 1, J >= 2, ...)."""
