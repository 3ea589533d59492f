"""Slow exact reference transforms.

Plain vectorized summation in a fixed order: the terms are made in blocks
of at most 4096 along the ascending coefficient index, each block is
reduced with numpy's deterministic pairwise sum and the blocks are added
in order, so repeated runs on one platform give bit-identical results and
no temporary grows with the input.  With ``compensated=True`` the same
terms are accumulated with :func:`math.fsum` instead (slower, one target
at a time).  A NaN or infinite input raises :class:`ParameterError`.

These are the oracles the fast transforms are tested against; they are
quadratic in the problem size.
"""

import math

import numpy as np

from .errors import ParameterError

_CHUNK = 512

#: Terms per block of a plain sum: 64 KiB of complex values, below glibc's
#: 128 KiB mmap threshold, so no call maps fresh pages.
_TERMS = 4096


def _finite(who, values):
    # a NaN or infinite input reaches the terms and the sums as NaN or inf
    if not np.isfinite(values).all():
        raise ParameterError(f"{who}: input and sums must be finite")
    return values


def _sum(who, coef, freq, targets, term, compensated):
    # out_j = sum_k coef_k t_jk, where term(rows, fb, buf) writes into buf
    # the t_jk of those targets and of the frequencies (or sources) fb.  A
    # plain sum runs over blocks of at most _TERMS terms; a compensated one
    # makes all terms of one target and accumulates them with math.fsum
    coef = np.ascontiguousarray(coef, dtype=complex)
    freq = np.ascontiguousarray(freq, dtype=float)
    targets = np.ascontiguousarray(targets, dtype=float)
    if coef.ndim != 1 or targets.ndim != 1 or not (coef.size and targets.size):
        raise ParameterError(f"{who}: need nonempty 1-d coefficients, targets")
    if freq.shape != coef.shape:
        raise ParameterError(f"{who}: need a frequency (source) per coefficient")
    width = coef.size if compensated else min(coef.size, _TERMS)
    height = 1 if compensated else max(1, _TERMS // width)
    out = np.zeros(targets.size, dtype=complex)
    buf = np.empty(height * width, dtype=complex)
    for lo in range(0, targets.size, height):
        rows = targets[lo:lo + height]
        for c0 in range(0, coef.size, width):
            cb = coef[c0:c0 + width]
            block = buf[:rows.size * cb.size].reshape(rows.size, cb.size)
            term(rows, freq[c0:c0 + width], block)
            block *= cb
            if compensated:
                t = _finite(who, block[0])
                out[lo] = math.fsum(t.real) + 1j * math.fsum(t.imag)
            else:
                out[lo:lo + rows.size] += block.sum(axis=1)
    return _finite(who, out)


def _exp_terms(scale):
    # the terms e^{scale x_j v_k}, the phase formed as scale * (x_j v_k)
    def term(xb, vb, buf):
        np.multiply(xb[:, None], vb, out=buf)
        buf *= scale
        np.exp(buf, out=buf)
    return term


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
    N = _finite("nndft_direct", N)
    return _sum("nndft_direct", f, v, x, _exp_terms(-2j * np.pi * N),
                compensated)


def ndft_direct(c, x, compensated=False):
    """Trigonometric polynomial ``sum_{k in I_N} c_k e^{2 pi i k x_j}``.

    ``N = len(c)`` must be even; the frequency index runs over
    ``I_N = {-N/2, ..., N/2 - 1}`` in ascending order.
    """
    size = np.size(c)
    if size % 2:
        raise ParameterError("ndft_direct: len(c) must be even")
    return _sum("ndft_direct", c, np.arange(size) - size // 2, x,
                _exp_terms(2j * np.pi), compensated)


def sinc_transform_direct(c, a, b, N, compensated=False):
    """Discrete sinc transform ``sum_k c_k sinc(N pi (b_j - a_k))``, with the
    unnormalized ``sinc(y) = sin(y)/y``."""
    N = _finite("sinc_transform_direct", N)

    def kernel(bb, ab, buf):
        buf[...] = np.sinc(N * (bb[:, None] - ab))
    return _sum("sinc_transform_direct", c, a, b, kernel, compensated)


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
