"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input is syntactically fine but outside a function's mathematical domain."""


class QRangeError(DomainError):
    """Entropic order q is outside the range a formula is valid for."""


class PartitionError(DomainError):
    """A subsystem split does not describe the given state."""


class StateFormatError(ValueError):
    """A serialized state file is malformed or inconsistent."""


class ConvergenceError(RuntimeError):
    """An iterative solver hit its iteration cap before meeting its tolerance."""
