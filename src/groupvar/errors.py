"""Exception types shared across the package.  The type decides the exit
code of ``groupvar``: a :class:`Failure` exits 1, a ``ValueError`` 2."""


class Failure(RuntimeError):
    """A check, recovery or solve that ran and failed: exit 1."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation."""


class MembershipError(ValueError):
    """A matrix is not in SO(n).  Carries the flat index of the first failing
    block of a stack (None for a single matrix) and the reason."""

    def __init__(self, matrix, reason):
        name = "matrix" if matrix is None else f"matrix {matrix}"
        super().__init__(f"{name} {reason}")
        self.matrix, self.reason = matrix, reason


class HolonomyError(Failure):
    """Reconstruction failed because some plaquette holonomy is not the identity.

    Carries the offending face id and the defect norm.
    """

    def __init__(self, face, defect, plaquette):
        super().__init__(f"holonomy defect {defect:.3e} at plaquette {plaquette}")
        self.face = face
        self.defect = defect


class RecoveryConflictError(Failure):
    """The multiplier recovery reached a face along two sweep paths that disagree."""

    def __init__(self, face, discrepancy):
        super().__init__(
            f"multiplier recovery conflict {discrepancy:.3e} at face {face}"
        )
        self.face = face
        self.discrepancy = discrepancy


class PreconditionError(Failure):
    """A documented precondition of an operation failed a numerical check."""


class ConvergenceError(Failure):
    """The solver exhausted its iteration budget.

    The residual history is attached for diagnosis.
    """

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history or []
