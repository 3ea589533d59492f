"""Window functions for the gridding transforms.

Every window derives from an even shape function ``omega`` supported on
``[-1, 1]`` with ``omega(0) = 1``, nonincreasing on ``[0, 1]``, whose
Fourier transform

    omega_hat(v) = 2 * int_0^1 omega(x) cos(2 pi v x) dx

is positive and decreasing on the band ``[0, m/(2 sigma)]``.  The window
actually applied on a grid of ``n_grid`` points with cut-off ``m`` is the
dilation ``phi(t) = omega(n_grid * t / m)`` with transform
``phi_hat(v) = (m / n_grid) * omega_hat(m * v / n_grid)``.

Two shapes are provided, both continuous on the real line:

``sinh``
    ``sinh(beta sqrt(1 - x^2)) / sinh(beta)`` with
    ``beta = 2 pi m (1 - 1/(2 sigma))``; closed-form transform.
``bspline``
    centered cardinal B-spline of order ``2m``; closed-form transform.

:func:`cardinal_bspline` evaluates the B-spline at ``-|x|`` by Horner's
rule on one table of piece coefficients per order, so the tail pieces keep
full relative accuracy down to the end of the support.

:func:`phi_eval` is one closed form per shape over its whole argument;
non-finite arguments raise :class:`ParameterError`, huge finite ones lie
outside the support.  A plan's table, the ``2m`` values around each node,
depends only on the node's fraction ``t`` of a grid step, and each of its
columns is a polynomial in ``w = t - 1/2``, the left half the right half's
at ``-w`` (times a root factor on the end columns): :func:`phi_rows` makes
a block of rows from one table of powers of ``w`` and one coefficient
matrix cached per ``(kind, m, sigma)``, in BLAS products of width ``2m``,
within 1e-15 of the window, with exact zeros at both ends of the support.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.fft
from scipy import special as _sp

from .errors import ParameterError, integer

_KINDS = ("sinh", "bspline")

_SIGMA_TOL = 1e-9


def window_kinds():
    """Names of the available window shapes."""
    return _KINDS


def check_window(kind, m, sigma, stage=""):
    """Raise :class:`ParameterError` unless ``(kind, m, sigma)`` is an
    admissible window: ``kind`` one of :func:`window_kinds` (``None``: any
    kind), ``m`` an integer >= 2, ``sigma`` finite and > 1, and
    ``5/4 <= sigma <= 2`` for ``sinh``, the range of its error estimates.
    ``stage`` is appended to the names in the messages."""
    if kind is not None and kind not in _KINDS:
        raise ParameterError(
            f"unknown window{stage} kind {kind!r}; expected one of {_KINDS}")
    integer(m, f"m{stage}", 2)
    if not 1.0 < sigma < math.inf:
        raise ParameterError(f"sigma{stage} must be finite and > 1, got {sigma}")
    if kind == "sinh" and not 1.25 - _SIGMA_TOL <= sigma <= 2.0 + _SIGMA_TOL:
        raise ParameterError(
            f"sinh window requires 5/4 <= sigma{stage} <= 2, got {sigma}")


@dataclass(frozen=True)
class WindowSpec:
    """Immutable description of one window: shape, cut-off, oversampling, grid.

    Parameters
    ----------
    kind : str
        One of :func:`window_kinds`.
    m : int
        Cut-off; the window is supported on ``2m`` grid points.
    sigma : float
        Oversampling factor, finite and > 1.  The ``sinh`` shape
        additionally requires ``5/4 <= sigma <= 2``.
    n_grid : int
        Positive even grid length with ``2m <= n_grid``.
    """

    kind: str
    m: int
    sigma: float
    n_grid: int

    def __post_init__(self):
        check_window(self.kind, self.m, self.sigma)
        if (not isinstance(self.n_grid, (int, np.integer))
                or self.n_grid <= 0 or self.n_grid % 2):
            raise ParameterError("n_grid must be a positive even integer")
        if 2 * self.m > self.n_grid:
            raise ParameterError(
                f"window needs 2*m <= n_grid, got m={self.m}, n_grid={self.n_grid}")

    @property
    def beta(self):
        """Shape parameter; ``None`` for the B-spline shape."""
        if self.kind == "bspline":
            return None
        return 2.0 * np.pi * self.m * (1.0 - 1.0 / (2.0 * self.sigma))


@functools.lru_cache(maxsize=32)
def _bspline_pieces(order):
    # piece j = 0..order//2 of B_order(t - order/2), t in [j, j + 1), in the
    # local coordinate u = t - j:
    #   (1/(order-1)!) sum_{k<=j} (-1)^k C(order, k) (u + j - k)^(order-1);
    # row i holds the coefficient of u^(order-1-i) of every piece, so
    # Horner's rule walks the rows in order.  Exact rationals.
    deg = order - 1
    table = np.empty((order, order // 2 + 1), dtype=object)
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
    exact rationals, tabulated once per order and rounded once.  The support
    is half-open, so ``B_order(order/2) = 0`` also for ``order = 1``.

    Parameters
    ----------
    order : int
        Positive integer; the windows use the even orders ``2m``.
    x : float or array_like
        Finite argument; a scalar gives a float.
    """
    integer(order, "cardinal_bspline: order")
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ParameterError("cardinal_bspline: argument must be finite")
    half = order / 2.0
    coef = _bspline_pieces(int(order)).astype(float)
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


#: Degree of a sinh column polynomial in :func:`phi_rows`; the rows of its
#: power tables; and the most multiply-adds of one of its products, which
#: OpenBLAS runs on one thread up to 2^18.
_DEGREE = 17
_POWERS = 4096
_GEMM = 1 << 18


def omega_hat_eval(spec, v):
    """Fourier transform ``omega_hat`` of the shape function at ``v``.

    Closed forms: ``sinc(pi v / m)^(2m) / (m B_2m(0))`` (bspline, with the
    unnormalized ``sinc(y) = sin(y)/y``) and ``pi beta I_1(z) / (z
    sinh(beta))`` (sinh), with ``z = sqrt(w)``, ``w = beta^2 - 4 pi^2 v^2``.
    The sinh transform is ``pi beta 0F1(; 2; w/4) / (2 sinh(beta))``, entire
    in ``w``: it is evaluated as the Bessel-I form for ``w > 1e-3``, the band
    of a plan, and as the ``0F1`` form elsewhere.
    """
    arr = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ParameterError("window transform argument must be finite")
    if spec.kind == "bspline":
        b0 = float(_bspline_pieces(2 * spec.m)[-1, spec.m])  # exact B_2m(0)
        out = np.sinc(arr / spec.m) ** (2 * spec.m) / (spec.m * b0)
        return float(out) if arr.ndim == 0 else out
    b = spec.beta
    one_m = -np.expm1(-2.0 * b)  # 1 - e^{-2 beta}

    def above(z):
        # pi beta I1(z)/(z sinh(beta)) = 2 pi beta i1e(z) e^{z - beta} /
        # (one_m z), with I1(z) = i1e(z) e^z; overwrites z
        out = _sp.i1e(z) * (2.0 * np.pi * b)
        out *= np.exp(z - b)
        out /= np.multiply(z, one_m, out=z)
        return out
    w = np.atleast_1d(np.multiply(4.0 * np.pi * np.pi, arr))
    w *= arr
    np.subtract(b * b, w, out=w)
    if np.all(w > 1e-3):  # the band of a plan: one closed form, no masks
        out = above(np.sqrt(w, out=w))
    else:
        out = np.empty_like(w)
        pos = w > 1e-3
        out[pos] = above(np.sqrt(w[pos]))
        # pi beta/(2 sinh(beta)) 0F1(; 2; w/4), sinh not evaluated
        out[~pos] = np.pi * b * np.exp(-b) / one_m * _sp.hyp0f1(2, w[~pos] / 4)
    out = out.reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


def phi_eval(spec, t):
    """Grid window ``phi(t) = omega(t / (m / n_grid))`` at finite ``t``, one
    closed form per shape over the whole argument.  Arguments are clipped to
    ``|t| <= 2 m / n_grid``, outside the support, so that huge finite ones
    cannot overflow."""
    arr = np.asarray(t, dtype=float)
    if not np.isfinite(arr).all():
        raise ParameterError("window argument must be finite")
    m, b = spec.m, spec.beta
    width = m / spec.n_grid
    # an argument of +-width, however rounded, maps to exactly +-1
    y = np.clip(arr, -2.0 * width, 2.0 * width) / width
    if spec.kind == "bspline":
        y = cardinal_bspline(2 * m, m * y) / float(_bspline_pieces(2 * m)[-1, m])
    else:
        # sinh(b s)/sinh(b) = e^{b(s-1)} (1 - e^{-2bs}) / (1 - e^{-2b}),
        # s = sqrt(1 - y^2), 0 for |y| >= 1, with b(s - 1) = -b y^2/(1 + s):
        # stable for large b, no cancellation
        s = np.sqrt(np.maximum((y + 1.0) * (1.0 - y), 0.0))
        y = (np.expm1(s * (-2.0 * b)) * np.exp(y * y / (s + 1.0) * (-b))
             / np.expm1(-2.0 * b))
    return float(y) if arr.ndim == 0 else y


@functools.lru_cache(maxsize=32)
def _row_coefficients(kind, m, sigma):
    # read-only (d + 1, 2m) matrix: row q holds the coefficient of w^(d - q),
    # w = t - 1/2, of every column; column m - 1 - j is column m + j at -w
    # (at u = 1 - t for u = t), so its odd powers are negated.  The end
    # columns leave out their root factor: u (bspline), sqrt(u(2m - u)) (sinh)
    if kind == "bspline":  # column m + j is piece m - 1 - j over B_2m(0)
        pieces = _bspline_pieces(2 * m)
        half = pieces[:, m - 1::-1] / pieces[-1, m]
        half[:, -1] = np.roll(half[:, -1], 1)  # u^(2m-1)/(2m-1)! over u
        acc = half[:1]  # exact: Horner's rule at u = w + 1/2, descending in w
        for row in half[1:]:
            acc = np.vstack((acc, row)) + np.vstack((0 * row, acc / 2))
        half = acc.astype(float)
    else:
        spec = WindowSpec(kind, m, sigma, 2 * m)
        n = _DEGREE + 1
        u = (1.0 + np.cos(np.pi * (np.arange(n) + 0.5) / n)) / 2.0
        # column m + j is omega((j + 1 - u)/m), the end column over its
        # root m s: sinh(b s)/(m s sinh b), entire in u
        f = phi_eval(spec, (np.arange(1, m + 1)[:, None] - u) / (2 * m))
        s, b = np.sqrt(u * (2 * m - u)) / m, spec.beta
        f[-1] = (np.exp(-b * (1.0 - u / m) ** 2 / (1.0 + s))
                 * np.expm1(-2.0 * b * s) / (np.expm1(-2.0 * b) * m * s))
        # Chebyshev coefficients from the first-kind points, then monomials
        # in w, where terms fall off fastest: T_k = 4w T_k-1 - T_k-2
        cheb = scipy.fft.dct(f, type=2, axis=1) / n
        cheb[:, 0] /= 2.0
        mono = np.zeros((n, n))
        mono[0, 0], mono[1, 1] = 1.0, 2.0
        for k in range(2, n):
            mono[:, k] = -mono[:, k - 2]
            mono[1:, k] += 4.0 * mono[:-1, k - 1]
        half = (mono @ cheb.T)[::-1]
    sign = (-1.0) ** np.arange(half.shape[0] - 1, -1, -1)
    coef = np.concatenate((half[:, ::-1] * sign[:, None], half), axis=1)
    coef.flags.writeable = False
    return coef


def phi_rows(spec, t):
    """Window rows of the fractions ``t``, a float vector in ``[0, 1]``: the
    ``(t.size, 2m)`` array ``phi((t_j - l) / n_grid)``, ``l = 1-m+i`` in
    column ``i``.

    Column ``m + k`` is a polynomial in ``u = t_j`` and, the window being
    even, column ``m - 1 - k`` the same one in ``u = 1 - t_j``, both written
    in ``w = t_j - 1/2``.  Per block of ``_POWERS`` rows, one table of
    descending powers of ``w`` times the ``(d + 1, 2m)`` matrix made once
    per ``(kind, m, sigma)``: the B-spline pieces re-centred at 1/2 in exact
    rationals, or sinh Chebyshev interpolants of degree ``_DEGREE``, in BLAS
    products small enough for one thread.  The end columns are then times
    their root factor, ``u`` or ``sqrt(u(2m - u))``, the sinh branch point.
    A row with ``t_j = 0`` (``1``) ends (starts) in an exact zero; the values
    lie within 1e-15 of the window at ``(t_j - l)/n_grid``.
    """
    if t.size == 1:  # no product has one row, which BLAS rounds differently
        return phi_rows(spec, np.repeat(t, 2))[:1]
    m = spec.m
    coef = _row_coefficients(spec.kind, m, spec.sigma)
    rows = max(2, _GEMM // coef.size)
    out = np.empty((t.size, 2 * m))
    pw = np.ones((coef.shape[0], min(_POWERS, t.size)))
    for lo in range(0, t.size, _POWERS):
        lo = min(lo, t.size - 2)  # nor a last block of one row
        tb = t[lo:lo + _POWERS]
        block = out[lo:lo + tb.size]
        p = pw[:, :tb.size]  # descending powers: the largest term goes last
        np.subtract(tb, 0.5, out=p[-2])
        for q in range(p.shape[0] - 3, -1, -1):
            np.multiply(p[q + 1], p[-2], out=p[q])
        for s in range(0, tb.size, rows):
            s = min(s, tb.size - 2)  # nor a product of one row
            np.matmul(p[:, s:s + rows].T, coef, out=block[s:s + rows])
        for end, u in ((-1, tb), (0, np.subtract(1.0, tb, out=p[1]))):
            if spec.kind == "sinh":
                np.subtract(2.0 * m, u, out=p[0])
                u = np.sqrt(np.multiply(p[0], u, out=p[0]), out=p[0])
            block[:, end] *= u
    return out


def phi_hat_eval(spec, v):
    """Transform of the grid window: ``(m/n_grid) omega_hat(m v / n_grid)``."""
    return (spec.m / spec.n_grid) * omega_hat_eval(
        spec, np.asarray(v, dtype=float) * (spec.m / spec.n_grid))
