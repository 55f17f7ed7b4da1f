"""Exception types shared across the package."""


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds a configured size or memory limit."""


class ConsistencyError(RuntimeError):
    """An internal structural invariant was violated (a bug, not user error)."""
