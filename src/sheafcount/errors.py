"""Exception types shared across the package."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed.

    Raised when two computations that must agree by theory disagree in
    practice: a localization sum that fails to be constant, sampled values
    that differ between sample points, a moduli index that is not half the
    moduli dimension, or a symmetry extension that assigns two values to
    one cell.  Any instance of this means a bug, not bad user input.
    """


class NLValidationError(ValueError):
    """An intersection-number table failed validation or parsing."""
