"""The centered cardinal B-spline used by the B-spline window.

It accepts scalars or arrays and returns a scalar for scalar input.  It is
a piecewise polynomial: one polynomial per unit piece between consecutive
breakpoints, with coefficients built once per order from exact rationals
and evaluated by Horner's rule in the piece's local coordinate.  Since
``B_order`` is even, only the pieces of the left half are tabulated and
every argument is evaluated at ``-|x|``, so the local coordinate is the
distance from the piece's outer breakpoint; the tail pieces then keep full
relative accuracy down to the end of the support.  The coefficient table
(``_bspline_pieces``) also serves :func:`sincfft.windows.phi_rows`, which
evaluates every piece of a window row at once at one local coordinate.
"""

import functools
import math
from fractions import Fraction

import numpy as np

from .errors import ParameterError


@functools.lru_cache(maxsize=32)
def _bspline_pieces(order):
    # piece j = 0..order//2 of B_order(t - order/2), t in [j, j + 1), in the
    # local coordinate u = t - j:
    #   (1/(order-1)!) sum_{k<=j} (-1)^k C(order, k) (u + j - k)^(order-1);
    # row i holds the coefficient of u^(order-1-i) of every piece, so
    # Horner's rule walks the rows in order.  Exact rationals, rounded once.
    deg = order - 1
    table = np.empty((order, order // 2 + 1))
    for j in range(order // 2 + 1):
        terms = [(-1) ** k * math.comb(order, k) for k in range(j + 1)]
        # terms[k] = (-1)^k C(order, k) (j - k)^q for q = 0, 1, ..., deg
        for q in range(order):
            table[q, j] = Fraction(math.comb(deg, q) * sum(terms),
                                   math.factorial(deg))
            terms = [c * (j - k) for k, c in enumerate(terms)]
    table.flags.writeable = False
    return table


def cardinal_bspline(order, x):
    """Centered cardinal B-spline ``B_order`` evaluated at ``x``.

    ``B_order`` is supported on ``[-order/2, order/2]``, is piecewise
    polynomial of degree ``order - 1`` on the unit pieces between the
    breakpoints ``-order/2, ..., order/2`` and normalized to unit integral.
    It is evaluated at ``-|x|`` (``B_order`` is even) by Horner's rule on
    the piece containing that point, in the distance ``u >= 0`` from the
    piece's left, outer breakpoint; the coefficients of the pieces are
    exact rationals rounded once, tabulated once per order.  The support
    is half-open, so ``B_order(order/2) = 0`` also for ``order = 1``.

    Parameters
    ----------
    order : int
        Positive integer; the windows use the even orders ``2m``.
    x : float or array_like
        Finite argument.
    """
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise ParameterError("cardinal_bspline: order must be a positive integer")
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ParameterError("cardinal_bspline: argument must be finite")
    half = order / 2.0
    coef = _bspline_pieces(int(order))
    flat = arr.reshape(-1)
    # distance of -|x| from the left end of the support, raised to 0
    # outside it before the cast to a piece index
    t = half - np.abs(flat)
    np.maximum(t, 0.0, out=t)
    piece = t.astype(np.intp)
    t -= piece  # local coordinate u in [0, 1)
    out = coef[0][piece]
    for row in coef[1:]:
        out *= t
        out += row[piece]
    out[(flat < -half) | (flat >= half)] = 0.0
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)
