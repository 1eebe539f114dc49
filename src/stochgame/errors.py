"""Exception types shared across the toolkit.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific class that applies.
"""


class GameValidationError(ValueError):
    """Invalid input data: malformed games, files, strategies or parameters."""


class GameFileError(GameValidationError):
    """Game document error, carrying the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ResourceCapError(RuntimeError):
    """A pure-profile payoff matrix would exceed the configured entry cap."""

