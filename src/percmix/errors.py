"""Exception types shared across the package."""


class PercmixError(Exception):
    """Base class for all package-specific errors."""


class DomainError(PercmixError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class CapacityError(DomainError):
    """A requested instance exceeds a hard size cap.

    Raised e.g. when a box would overflow the vertex index range, or when
    exhaustive enumeration is asked for on a graph above the enumerable cap.
    """


class UnsupportedDimensionError(DomainError):
    """Operation only defined for a specific lattice dimension (usually d=2)."""


class EmptyClusterError(PercmixError):
    """A percolation configuration has no open edges to build a cluster from."""


class NonConvergenceError(PercmixError):
    """An iterative computation did not reach its target tolerance.

    Carries the best estimate found so far in ``best`` and the achieved
    residual / distance in ``residual``.
    """

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual


class InequalityViolationError(PercmixError):
    """A certified inequality failed; names the failing side and magnitudes."""

    def __init__(self, side, lhs, rhs, margin):
        super().__init__(
            f"inequality violated on the {side} side: {lhs!r} vs {rhs!r} "
            f"(margin {margin:.3e})"
        )
        self.side = side
        self.lhs = lhs
        self.rhs = rhs
        self.margin = margin
