"""Exception types shared across the package."""


class SchmidtError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(SchmidtError):
    """Operands have incompatible or invalid dimensions."""


class ValidationError(SchmidtError):
    """A value violates a documented precondition."""


class ImpossibleOutcomeError(ValidationError):
    """Conditioning on a measurement outcome of numerically zero probability."""


class ConvergenceError(SchmidtError):
    """A numerical step failed: a LAPACK routine did not converge, or the
    decomposition did not reproduce the state."""


class ParseError(SchmidtError):
    """A ket expression was rejected; ``position`` is the 1-based character
    offset of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position
