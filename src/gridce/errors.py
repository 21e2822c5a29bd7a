"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid configuration or parameter combination."""


class IllConditionedSupportError(ArithmeticError):
    """The sensing columns of a support set are (numerically) rank deficient."""


class InvalidContextError(ValueError):
    """A non-positive distortion variance passed to ``carrier_reliability``."""
