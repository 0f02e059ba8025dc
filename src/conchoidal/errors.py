"""Exception types shared across the package."""


class ConchoidError(Exception):
    """Base class for all package-specific errors."""


class ParseError(ConchoidError):
    """Syntax error in the polynomial text grammar.

    Carries the 0-based offset of the offending token in ``position``.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class NotHomogeneousError(ConchoidError):
    """A homogeneous polynomial was required."""


class IdenticallyZeroError(ConchoidError):
    """The conchoidal resultant vanished identically (both inputs share z)."""


class DegreeBoundError(ConchoidError):
    """poly_matrix_det detected that the caller's degree bound was violated:
    the coefficient lists force a higher degree, or the off-grid residual
    is nonzero."""


class DegenerateMembershipError(ConchoidError):
    """Both specialized polynomials dropped degree in the line parameter."""


class EliminationDegenerateError(ConchoidError):
    """An intermediate resultant in the elimination cross-check vanished."""


class InvalidSceneError(ConchoidError):
    """The base curve has the line at infinity as a component."""


class NotSquarefreeError(ConchoidError):
    """The splitting criterion requires a reduced (squarefree) input curve."""


class CyclicTangentError(ConchoidError, ValueError):
    """The curve contains a line through A and a cyclic point, so the
    splitting criterion does not apply (the curve is not irreducible)."""


class DegenerateConicError(ConchoidError):
    """The focus test requires a smooth conic."""


class DecompositionMismatchError(ConchoidError):
    """The iterated-conchoid decomposition did not match the generic pattern."""


class InternalError(ArithmeticError):
    """An internal invariant broke: a bug, never a mathematical answer.
    Deliberately not a ConchoidError or ValueError, so that no handler
    for those turns it into a verdict."""
