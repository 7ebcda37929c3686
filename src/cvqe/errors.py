"""Exception types shared across the toolkit.

The CLI maps these onto its exit-code contract: configuration and input
problems exit 1, and :class:`OracleError` owns exit 2: every oracle or
precondition violation derives from it, next to its standard base.
Optimization non-convergence is never an exception (it is reported as data).
"""


class OracleError(Exception):
    """An oracle or precondition violation; the CLI exits 2 on any subclass."""


class ParseError(ValueError):
    """Raised when a Pauli-sum document violates the file grammar."""

    def __init__(self, line: int, column: int, reason: str):
        self.line = line
        self.column = column
        self.reason = reason
        super().__init__(f"line {line}, column {column}: {reason}")


class DimensionMismatch(ValueError):
    """Operands act on different qubit counts."""


class ParamCountMismatch(ValueError):
    """Parameter vector length does not match the ansatz layout."""


class HermiticityError(ValueError):
    """An operator expected to be Hermitian has a residual imaginary part."""


class NotCommuting(OracleError, ValueError):
    """The Hamiltonian and a supposed conserved quantity do not commute."""


class OracleTooLarge(OracleError, ValueError):
    """Dense diagonalization was requested above the configured qubit cap."""


class EmptySector(OracleError, LookupError):
    """No eigenstate carries the requested conserved-quantity eigenvalue."""


class SingleEigenvalue(OracleError, ValueError):
    """A distinct-eigenvalue gap is undefined (observable proportional to I)."""


class InvalidEstimate(ValueError):
    """Energy estimates are inconsistent (target below ground, or bad gap)."""


class InconsistentTarget(OracleError, ValueError):
    """A state below the target index already carries the target eigenvalue."""


class PenaltyFormError(ValueError):
    """A cost evaluator was invoked on a spec with the other penalty form."""


class NotBoundary(OracleError, ValueError):
    """Tangent analysis requires the target to lie on the lower envelope."""


class InvalidProbability(ValueError):
    """Depolarizing probability outside [0, 1)."""


class NonFiniteCost(OracleError, ArithmeticError):
    """The cost function evaluated to NaN or infinity."""
