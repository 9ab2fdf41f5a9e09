"""Shared exception types.

Every deliberate failure in the library raises one of these, so callers
(and the CLI) can map problems to exit codes without string matching.
"""


class KdudaError(Exception):
    """Base class for all library errors."""


class ShapeError(KdudaError, ValueError):
    """Operand shapes are incompatible. The message names both shapes."""


class ParameterError(KdudaError, ValueError):
    """A scalar argument or config field is out of its valid range. `field`
    names the config dataclass field at fault, if it is one."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class ConfigError(KdudaError, ValueError):
    """A config file or CLI argument could not be parsed or validated."""


class NumericalAbort(KdudaError, RuntimeError):
    """Training produced a non-finite loss, or a layer's weight norm that is
    not finite or past the divergence guard's limit. The message names the
    term or the model and layer, and the epoch."""
