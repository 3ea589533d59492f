"""Scalar special functions used by the window machinery.

A validated wrapper around :func:`scipy.special.i1`, the centered cardinal
B-spline and the unnormalized sinc function.  All functions accept scalars
or arrays and return a scalar for scalar input.
"""

import numpy as np
from scipy import special as _sp
from scipy.interpolate import BSpline

from .errors import ParameterError


def _prepare(x, name):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{name}: argument must be finite")
    return arr, arr.ndim == 0


def bessel_i1(x):
    """Modified Bessel function of the first kind of order 1.

    Parameters
    ----------
    x : float or array_like
        Nonnegative argument.

    Returns
    -------
    float or ndarray
        ``I_1(x)``.

    Raises
    ------
    ParameterError
        If ``x`` is negative or not finite.
    OverflowError
        If ``e**x`` exceeds the double-precision range (x > ~709), where
        the result is no longer representable.
    """
    arr, scalar = _prepare(x, "bessel_i1")
    if np.any(arr < 0.0):
        raise ParameterError("bessel_i1: argument must be >= 0")
    out = _sp.i1(arr)
    if np.any(np.isinf(out)):
        raise OverflowError("bessel_i1: result overflows double precision")
    return float(out) if scalar else out


def cardinal_bspline(order, x):
    """Centered cardinal B-spline ``B_order`` evaluated at ``x``.

    ``B_order`` is supported on ``[-order/2, order/2]``, is piecewise
    polynomial of degree ``order - 1`` and normalized to unit integral.
    Evaluated as the B-spline basis element on the integer knots
    ``-order/2, ..., order/2``; the support is half-open, so
    ``B_order(order/2) = 0`` also for ``order = 1``.

    Parameters
    ----------
    order : int
        Positive integer; the windows use the even orders ``2m``.
    x : float or array_like
    """
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise ParameterError("cardinal_bspline: order must be a positive integer")
    arr, scalar = _prepare(x, "cardinal_bspline")
    half = order / 2.0
    basis = BSpline.basis_element(np.arange(order + 1) - half, extrapolate=False)
    out = np.where((-half <= arr) & (arr < half), basis(arr), 0.0)
    return float(out) if scalar else out


def sinc(y):
    """Unnormalized sinc: ``sin(y)/y`` with value 1 at ``y = 0``."""
    arr, scalar = _prepare(y, "sinc")
    safe = np.where(arr == 0.0, 1.0, arr)
    out = np.where(arr == 0.0, 1.0, np.sin(safe) / safe)
    return float(out) if scalar else out
