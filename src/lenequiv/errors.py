"""Exception hierarchy for the lenequiv package."""


class LenEquivError(Exception):
    """Base class for all package-specific errors."""


class AlphabetError(LenEquivError):
    """A letter index lies outside the generating set of the surface group."""


class DegenerateInputError(LenEquivError):
    """Input is outside the meaningful domain (identity word, g = h, beta ~ alpha^-1, ...)."""


class NonHyperbolicError(LenEquivError):
    """A matrix was elliptic or parabolic where a hyperbolic one is required."""


class UnsupportedRankError(LenEquivError):
    """Operation not implemented for this word rank or surface genus."""


class CertificationError(LenEquivError):
    """Ping-pong certification failed (or was required and absent)."""


class HypothesisViolationError(LenEquivError):
    """Constructor inputs do not satisfy the documented hypothesis."""


class ConfigError(LenEquivError):
    """Run configuration failed validation."""
