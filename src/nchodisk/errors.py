"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: schema errors exit 2, contract
violations exit 3, solver failures exit 4.
"""


class SchemaError(ValueError):
    """Malformed problem file or CLI input."""

    def __init__(self, message, path=""):
        super().__init__(message if not path else f"{path}: {message}")
        self.path = path


class ContractViolation(ValueError):
    """Input violates a documented precondition (shape, Hermiticity, ...)."""


class SolverError(RuntimeError):
    """Base class for numerical failures."""


class DegeneratePencil(SolverError):
    """det(B z^2 + A z + B') vanishes identically."""


class SimplePoleViolation(SolverError):
    """The pencil determinant has a repeated root; the reduction assumes order-1 poles."""


class NotGenericError(SolverError):
    """Problem sits on a degenerate stratum with no prescribed normal form."""


class PositivityError(SolverError):
    """Positivity condition on the unit circle fails (or a pole sits on it)."""


class ConvergenceError(SolverError):
    """Truncation did not converge within the allowed orders."""


class ContinuationError(SolverError):
    """Series transport of a solution frame failed or is unsupported."""


class RefinementError(SolverError):
    """Newton refinement on the connection matrix failed."""
