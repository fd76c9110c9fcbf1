"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input value a function or command does not accept: an argument
    outside the mathematical domain of an operation, a malformed input
    file, or a command-line usage error."""


class DuplicatePointsError(ValueError):
    """The sample contains coincident points, so nearest-neighbour
    distances degenerate to zero."""

    def __init__(self, pairs):
        self.pairs = list(pairs)
        shown = ", ".join(f"({i}, {j})" for i, j in self.pairs[:5])
        more = "" if len(self.pairs) <= 5 else f" and {len(self.pairs) - 5} more"
        super().__init__(f"duplicate points at index pairs {shown}{more}")


class NotPositiveDefiniteError(ValueError):
    """A matrix that must be symmetric positive definite is not."""


class ExperimentError(RuntimeError):
    """A Monte Carlo experiment configuration is invalid or the run
    exceeded its replicate-failure budget."""
