"""Exception types shared across the package."""


class DtnLabError(Exception):
    """Base class for all package errors."""


class MeshInvariantError(DtnLabError):
    """A mesh violates a structural invariant (orientation, incidence, loops)."""


class PolygonError(DtnLabError):
    """Invalid input polygon (self-intersecting, degenerate)."""


class PartitionError(DtnLabError):
    """Invalid boundary partition (e.g. gamma0 covers the whole boundary)."""


class ParseError(DtnLabError):
    """Expression syntax error. Carries the byte offset of the failure."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalDomainError(DtnLabError):
    """Evaluation hit a domain error (division by zero, sqrt of a negative).

    Carries the byte offset of the offending node in the original source,
    or -1 when the expression was built programmatically.
    """

    def __init__(self, message, offset=-1):
        super().__init__(f"{message} (node at offset {offset})")
        self.offset = offset


class NonEllipticError(DtnLabError):
    """Certification found a sample point where the symmetrized matrix
    coefficient is not positive definite."""


class SingularJacobianError(DtnLabError):
    """A diffeomorphism folds (Jacobian determinant <= 0 at a sample),
    moves the boundary, or disagrees with its declared Jacobian."""


class QuadratureError(DtnLabError):
    """Coefficient evaluation failed at a quadrature node."""


class EmptyInteriorError(DtnLabError):
    """The mesh has no interior degrees of freedom."""


class NearDirichletSpectrumError(DtnLabError):
    """The interior block A_II - lambda*M_II is numerically singular: the
    spectral parameter sits on (or too close to) the discrete Dirichlet
    spectrum."""

    def __init__(self, lam, cond):
        super().__init__(
            f"interior block numerically singular at lambda={lam!r} "
            f"(condition estimate {cond:.3e})"
        )
        self.lam = lam
        self.cond = cond


class NotPositiveDefiniteError(DtnLabError):
    """A matrix required to be symmetric positive definite is not."""


class SolverError(DtnLabError):
    """An eigenvalue solver failed to converge."""


class HypothesisViolationError(DtnLabError):
    """A precondition of a semigroup order property does not hold for the
    supplied system (e.g. the Dirichlet operator is not accretive)."""


class ConfigError(DtnLabError):
    """Invalid experiment configuration."""
