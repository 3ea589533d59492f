"""Slow exact reference transforms.

Plain vectorized summation in a fixed order: terms are laid out along the
ascending coefficient index and reduced with numpy's deterministic pairwise
sum, so repeated runs on one platform give bit-identical results.  With
``compensated=True`` the real and imaginary parts are instead accumulated
with :func:`math.fsum` (slower, per-output Python loop).

These are the oracles the fast transforms are tested against; they are
quadratic in the problem size.
"""

import math

import numpy as np

from .errors import ParameterError

_CHUNK = 512


def _check_1d(name, arr):
    if arr.ndim != 1 or arr.size == 0:
        raise ParameterError(f"{name} must be a nonempty 1-d array")


def nndft_direct(f, v, x, N, compensated=False):
    """Exponential sum with nonequispaced frequencies and nodes.

    Computes ``out_j = sum_k f_k e^{-2 pi i N v_k x_j}`` by direct
    summation.

    Parameters
    ----------
    f : complex array, shape (M1,)
        Coefficients.
    v : real array, shape (M1,)
        Frequencies.
    x : real array, shape (M2,)
        Spatial nodes.
    N : int
        Bandwidth scale multiplying the phase.
    compensated : bool, optional
        Use compensated (fsum) accumulation.
    """
    f = np.ascontiguousarray(f, dtype=complex)
    v = np.ascontiguousarray(v, dtype=float)
    x = np.ascontiguousarray(x, dtype=float)
    _check_1d("f", f)
    _check_1d("x", x)
    if v.shape != f.shape:
        raise ParameterError("f and v must have the same length")
    out = np.empty(x.size, dtype=complex)
    if compensated:
        for j in range(x.size):
            terms = f * np.exp((-2j * np.pi * N * x[j]) * v)
            out[j] = math.fsum(terms.real) + 1j * math.fsum(terms.imag)
        return out
    for lo in range(0, x.size, _CHUNK):
        xb = x[lo:lo + _CHUNK]
        phase = np.exp((-2j * np.pi * N) * np.outer(xb, v))
        out[lo:lo + xb.size] = (phase * f).sum(axis=1)
    return out


def ndft_direct(c, x, compensated=False):
    """Trigonometric polynomial ``sum_{k in I_N} c_k e^{2 pi i k x_j}``.

    ``N = len(c)`` must be even; the frequency index runs over
    ``I_N = {-N/2, ..., N/2 - 1}`` in ascending order.
    """
    c = np.ascontiguousarray(c, dtype=complex)
    x = np.ascontiguousarray(x, dtype=float)
    _check_1d("c", c)
    _check_1d("x", x)
    if c.size % 2:
        raise ParameterError("ndft_direct: len(c) must be even")
    k = np.arange(c.size) - c.size // 2
    out = np.empty(x.size, dtype=complex)
    if compensated:
        for j in range(x.size):
            terms = c * np.exp((2j * np.pi * x[j]) * k)
            out[j] = math.fsum(terms.real) + 1j * math.fsum(terms.imag)
        return out
    for lo in range(0, x.size, _CHUNK):
        xb = x[lo:lo + _CHUNK]
        phase = np.exp(2j * np.pi * np.outer(xb, k))
        out[lo:lo + xb.size] = (phase * c).sum(axis=1)
    return out


def sinc_transform_direct(c, a, b, N, compensated=False):
    """Discrete sinc transform ``sum_k c_k sinc(N pi (b_j - a_k))``, with the
    unnormalized ``sinc(y) = sin(y)/y``; ``a`` and ``b`` must be finite."""
    c = np.ascontiguousarray(c, dtype=complex)
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    _check_1d("c", c)
    _check_1d("b", b)
    if a.shape != c.shape:
        raise ParameterError("c and a must have the same length")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ParameterError("sinc_transform_direct: nodes must be finite")
    out = np.empty(b.size, dtype=complex)
    if compensated:
        for j in range(b.size):
            kern = np.sinc(N * (b[j] - a))
            out[j] = (math.fsum(kern * c.real) + 1j * math.fsum(kern * c.imag))
        return out
    for lo in range(0, b.size, _CHUNK):
        bb = b[lo:lo + _CHUNK]
        kern = np.sinc(N * (bb[:, None] - a[None, :]))
        out[lo:lo + bb.size] = (kern * c).sum(axis=1)
    return out


def cc_weights_direct(n):
    """Clenshaw-Curtis weights by the explicit cosine sum, any ``n >= 2``.

    ``w_k = (e_k / n) sum_j e_{2j} 2/(1 - 4 j^2) cos(2 j k pi / n)`` over
    ``0 <= 2j <= n``, with ``e = 1/2`` at the indices ``0`` and ``n`` and 1
    otherwise.  The phase ``2 j k pi / n`` is reduced modulo ``2 pi`` in
    exact integer arithmetic before the cosine is taken, which keeps the
    sum accurate for large ``n``; the reduced phases index a table of the
    ``2 n`` cosines ``cos(p pi / n)``.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ParameterError("cc_weights_direct: n must be an integer >= 2")

    def halved_ends(idx):
        return np.where((idx == 0) | (idx == n), 0.5, 1.0)

    j = np.arange(n // 2 + 1)
    k = np.arange(n + 1)
    coef = halved_ends(2 * j) * (2.0 / (1.0 - 4.0 * j * j))
    cosines = np.cos((np.pi / n) * np.arange(2 * n))
    out = np.empty(n + 1)
    for lo in range(0, n + 1, _CHUNK):
        kb = k[lo:lo + _CHUNK]
        phase = (2 * np.outer(j, kb)) % (2 * n)
        out[lo:lo + kb.size] = coef @ cosines[phase]
    return (halved_ends(k) / n) * out
