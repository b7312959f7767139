"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration value or structure (CLI exit code 2)."""


class ParseError(ValueError):
    """Malformed input file.  Carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SingularityError(ArithmeticError):
    """Field requested too close to a source filament (CLI exit code 3)."""

    def __init__(self, message, segment=None, point=None):
        super().__init__(message)
        self.segment = segment
        self.point = point
