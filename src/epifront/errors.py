"""Exception types shared across the package."""


class EpifrontError(Exception):
    """Base class for all package-specific errors."""


class DomainError(EpifrontError, ValueError):
    """An argument is outside the mathematical domain of an operation.

    ``field``, when given, names the argument at fault.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class InvalidResponseError(EpifrontError):
    """The infection response produced non-finite values on the probe grid."""


class CertificateError(EpifrontError):
    """No a-priori bound pair could be certified (signals an (A2) violation)."""


class BlowUpError(EpifrontError):
    """The numerical state became non-finite.

    Carries the time and front positions of the last finite state, which
    no recorded frame need hold.  The surviving frames are in
    ``exc.trajectory`` once ``simulate`` or ``find_threshold`` raises it.
    """

    def __init__(self, message: str, t: float, g: float, h: float):
        super().__init__(message)
        self.t = t
        self.g = g
        self.h = h


class MonitorViolation(EpifrontError):
    """A runtime invariant monitor detected a hard violation."""

    def __init__(self, monitor: str, t: float, detail: str):
        super().__init__(f"monitor '{monitor}' violated at t={t:.6g}: {detail}")
        self.monitor = monitor
        self.t = t
        self.detail = detail


class ThresholdUndefinedError(EpifrontError):
    """No sharp threshold exists for this parameter set (everything vanishes)."""


class ConfigError(EpifrontError):
    """A run configuration could not be parsed or validated.

    The message starts with ``line N:`` when ``line`` names the offending line.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
