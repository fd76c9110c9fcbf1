"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input value a function or command does not accept: an argument
    outside the mathematical domain of an operation, a malformed input
    file, an invalid experiment config, a config whose run exceeds its
    replicate-failure budget, or a command-line usage error."""


class DuplicatePointsError(ValueError):
    """The sample contains coincident points, so nearest-neighbour
    distances degenerate to zero.  `indices` lists, in ascending order,
    every point that has another point at zero squared distance."""

    def __init__(self, indices):
        self.indices = list(indices)
        shown = ", ".join(map(str, self.indices[:5]))
        more = "" if len(self.indices) <= 5 else f" and {len(self.indices) - 5} more"
        super().__init__(f"duplicate points at indices {shown}{more}")


class NotPositiveDefiniteError(ValueError):
    """A matrix that must be symmetric positive definite is not."""
