"""Exception types shared across the package."""


class ShapeInvError(Exception):
    """Base class for all package-specific failures."""


class DomainError(ShapeInvError, ValueError):
    """Input outside the mathematical domain of an operation."""


class UnsupportedError(ShapeInvError, ValueError):
    """Request outside the documented support envelope.

    Raised for polynomial degrees above the cap, unknown family tags,
    degenerate extensions (ell = 0), and spectra of complex families.
    """


class ParamSchemaError(ShapeInvError, ValueError):
    """A parameter record is missing constants a family requires."""


class InvalidParameterError(ShapeInvError, ValueError):
    """A parameter point violates a family's non-singularity region.

    ``violated`` names the inequality that failed, e.g. ``"m < -(1 + 2*d)/2"``.
    """

    def __init__(self, violated: str, message: str | None = None):
        self.violated = violated
        super().__init__(message or f"invalid parameters: violated {violated}")


class SamplingError(ShapeInvError, RuntimeError):
    """Rejection sampler exhausted its budget (empty or razor-thin region)."""


class UsageError(ShapeInvError, ValueError):
    """An operation was called with arguments violating its contract."""
