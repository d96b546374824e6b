"""Exception types shared across the package."""


class MeshValidationError(ValueError):
    """Ground mesh input failed structural validation."""


class ParseError(ValueError):
    """Malformed input file; the message names the offending location."""


class FrontInvariantError(RuntimeError):
    """A front state violates the cone or progress constraints.

    Raised when an initial front is invalid, or when a lift would produce
    an invalid state (the latter indicates a bug in the bound computation).
    """


class StallError(RuntimeError):
    """A lift failed to advance its vertex; carries a diagnostic payload."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
