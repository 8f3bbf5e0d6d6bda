class PreconditionError(ValueError):
    """An input violates a documented precondition of the requested computation."""
