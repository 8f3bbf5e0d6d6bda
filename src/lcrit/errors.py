class PreconditionError(ValueError):
    """An input violates a documented precondition of the requested computation."""


class DataError(PreconditionError):
    """Coefficient data fails validation (a series with a_1 != 1)."""
