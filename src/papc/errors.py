"""Exception types shared across the package."""


class PapcError(Exception):
    """Base class for package-specific failures."""


class DimensionMismatchError(PapcError, ValueError):
    """Operator or vector dimensions are inconsistent."""


class StepSizeViolationError(PapcError, ArithmeticError):
    """A dual weighted norm came out negative: the step-size condition is violated."""


class DivergenceError(PapcError, RuntimeError):
    """An iterate became non-finite.  Carries the partial run record, if any,
    and the indices of the non-finite rows (0 for a vector)."""

    def __init__(self, quantity, iteration, record=None, rows=None):
        super().__init__("non-finite values in %s at iteration %d" % (quantity, iteration))
        self.quantity = quantity
        self.iteration = iteration
        self.record = record
        self.rows = rows


class CertificateError(PapcError, ValueError):
    """A required hypothesis or step-size certificate is absent or failed."""


class FejerViolationError(PapcError, AssertionError):
    """Monotone decrease of the tracked distance failed beyond tolerance."""


class OracleError(PapcError, RuntimeError):
    """A zoo reference solution failed its independent self-check."""


class ConfigError(PapcError, ValueError):
    """Experiment configuration is invalid."""


class IndeterminateValueError(PapcError, ArithmeticError):
    """A saddle value would be inf - inf: both domain indicators are violated."""
