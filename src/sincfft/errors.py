"""Exception types shared across the package, and the integer check."""

import numpy as np


class ParameterError(ValueError):
    """A parameter or parameter combination violates a documented constraint."""


class PositivityError(ArithmeticError):
    """A quantity that must be strictly positive failed its numerical check.

    Raised e.g. when a window transform evaluates to zero or below at a
    grid point where the algorithms divide by it.
    """


def integer(value, what, low=1):
    """``value`` as an ``int``, or :class:`ParameterError` naming its type
    unless it is an integer ``>= low`` (a ``bool`` is none)."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low):
        raise ParameterError(f"{what} must be an integer >= {low}, "
                             f"got {type(value).__name__} {value!r}")
    return int(value)
