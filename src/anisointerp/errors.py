"""Exception types shared across the package."""


class AnisoError(Exception):
    """Base class for all package-specific errors."""


class SingularMatrix(AnisoError):
    """The given integer matrix has determinant zero."""


class ConvergenceFailure(AnisoError):
    """An iterative eigenvalue computation did not converge."""


class NonExistent(AnisoError):
    """The fundamental interpolant does not exist (a folded coefficient vanishes)."""


class TailTooLarge(AnisoError):
    """The periodization truncation tail exceeds the requested bound."""


class InsufficientSupport(AnisoError):
    """A series does not cover the frequency shells required by a check."""


class DivergentSeries(AnisoError):
    """A series parameter combination leads to a divergent sum."""
