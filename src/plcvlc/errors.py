"""Exception types shared across the package."""


class PlcVlcError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(PlcVlcError, ValueError):
    """A parameter or argument violates its documented domain."""


class ConfigError(PlcVlcError, ValueError):
    """A configuration file could not be parsed or validated."""
