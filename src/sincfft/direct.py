"""Slow exact reference transforms, the oracles the fast transforms are
tested against; quadratic in the problem size.

Phases are reduced exactly: Dekker's two-product splits ``s z`` into floats
``p + e``, each loses its nearest integer exactly, and ``e^{2 pi i t}``
takes one sine of at most ``pi/4`` and the cosine ``sqrt(1 - s^2)``.  A
term of an exponential sum, one sine each, is within 5 units of ``2^-53``
while its phase is below ``2^26`` turns.  The sinc transform takes
``O(L1 + L2)`` sines, through ``sin(pi N (b - a)) = sin(pi N b) cos(pi N a)
- cos(pi N b) sin(pi N a)``: a term is a few multiply-adds and one division
by ``pi N fl(b - a)``, or ``np.sinc`` where ``|N (b - a)| < 1``, within two
units of ``2^-53 / max(1, |N (b - a)|)``.  Nodes, frequencies and
bandwidths of ``2^996`` or more overflow the split, and the sum with them.

The terms are made in blocks of at most 4096 along the ascending
coefficient index, each block is reduced with numpy's deterministic
pairwise sum and the blocks are added in order, so repeated runs on one
platform give bit-identical results, and no temporary but a few numbers
per target grows with the input.  Every input is checked before the first
term is made: a NaN or infinite coefficient, frequency, node or
bandwidth, or a bandwidth that is not a real scalar, raises
:class:`ParameterError`, and so does a sum that overflows.
"""

import numpy as np

from .errors import ParameterError, integer

_CHUNK = 512

#: Terms per block: 64 KiB of complex values, below glibc's 128 KiB mmap
#: threshold, so no call maps fresh pages.
_TERMS = 4096

#: Veltkamp's splitter, and i^q for q mod 4
_SPLIT, _QUARTER_TURNS = 2.0 ** 27 + 1, np.array([1, 1j, -1, -1j])


def _finite(who, values):
    # a NaN or infinite input, or a sum that overflowed
    if not np.isfinite(values).all():
        raise ParameterError(f"{who}: input and sums must be finite")
    return values


def _bandwidth(who, N):
    if np.ndim(N) or np.iscomplexobj(N) or isinstance(N, (bool, np.bool_)):
        raise ParameterError(
            f"{who}: N must be a real scalar, got {type(N).__name__} {N!r}")
    return _finite(who, N)


def _inputs(who, coef, targets, *sources):
    # the coefficients, targets and frequencies (or sources), checked
    coef = _finite(who, np.ascontiguousarray(coef, dtype=complex))
    sources = [_finite(who, np.ascontiguousarray(v, dtype=float)) for v in sources]
    targets = _finite(who, np.ascontiguousarray(targets, dtype=float))
    if coef.ndim != 1 or targets.ndim != 1 or not (coef.size and targets.size):
        raise ParameterError(f"{who}: need nonempty 1-d coefficients, targets")
    if any(v.shape != coef.shape for v in sources):
        raise ParameterError(f"{who}: need a frequency (source) per coefficient")
    return coef, targets, *sources


def _sum(coef, rows, kernel, dtype):
    # out_j = sum_k coef_k t_jk, rows[j] holding what the terms need of
    # target j.  For each block lo <= k < hi, kernel(lo, hi) gives
    # term(rb, buf), which writes the t_jk of the rows rb into buf
    width = min(coef.size, _TERMS)
    height = max(1, _TERMS // width)
    out = np.zeros(len(rows), dtype=complex)
    buf = np.empty(height * width, dtype)
    for lo in range(0, coef.size, width):
        cb = coef[lo:lo + width]
        term = kernel(lo, lo + cb.size)
        for j in range(0, len(rows), height):
            block = buf[:min(height, len(rows) - j) * cb.size].reshape(-1, cb.size)
            term(rows[j:j + height], block)
            out[j:j + len(block)] += (block * cb).sum(axis=1)
        del term  # free its tables before the next block makes its own
    return out


def _split(z):
    # z = hi + lo, two floats of at most 26 significant bits (Veltkamp)
    t = _SPLIT * z
    hi = t - (t - z)
    return hi, z - hi


def _two_product(s, z):
    # s z = p + e exactly, p = fl(s z) (Dekker)
    p = s * z
    (sh, sl), (zh, zl) = _split(s), _split(z)
    e = sh * zh - p
    for u, w in ((sh, zl), (sl, zh), (sl, zl)):
        e += u * w
    return p, e


def _cis(t, out):
    # out = e^{2 pi i t} for t of at most a few turns, t overwritten.  With
    # q = rint(4 t) it is i^q e^{i u}, |u| = |pi/2 (4 t - q)| <= pi/4: one
    # sine s and the cosine sqrt(1 - s^2) >= 1/sqrt(2).  q waits in out.real
    # and its index in t's memory, so no block temporary is made
    t *= 4
    q = np.rint(t, out=out.real)
    t -= q
    t *= np.pi / 2
    s = np.sin(t, out=out.imag)
    quarter = t.view(np.int64)
    np.copyto(quarter, q, casting="unsafe")
    quarter &= 3
    c = np.multiply(s, s, out=out.real)
    np.sqrt(np.subtract(1, c, out=c), out=c)
    out *= _QUARTER_TURNS[quarter]


def _exp_sum(who, coef, targets, scale, freq):
    # sum_k coef_k e^{2 pi i (scale x_j) v_k}, freq(lo, hi) giving v_lo..hi-1.
    # With scale x_j = X + Xe, X = Xh + Xl and v_k = vh + vl, the turns are
    # Xh vh, exact and reduced exactly, plus X vl + (Xl + Xe) vh, at most
    # 2^-25 of them; the Xe vl left out is below 2^-78 of them
    X, Xe = _two_product(scale, targets)
    Xh, Xl = _split(X)
    rows = np.column_stack((Xh, X, Xl + Xe))

    def kernel(lo, hi):
        vh, vl = _split(freq(lo, hi))

        def term(rb, buf):
            t = np.multiply.outer(rb[:, 0], vh)
            t -= np.rint(t)
            t += np.multiply.outer(rb[:, 1], vl)
            t += np.multiply.outer(rb[:, 2], vh)
            _cis(t, buf)
        return term
    return _finite(who, _sum(coef, rows, kernel, complex))


def _cispi(N, y):
    # e^{i pi N y}, the turns N y / 2 = p + e each reduced exactly
    t, e = _two_product(N, y / 2)
    t -= np.rint(t)
    t += e - np.rint(e)
    out = np.empty(t.shape, complex)
    _cis(t, out)
    return out


def nndft_direct(f, v, x, N):
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
    N : int or float
        Real scalar bandwidth multiplying the phase.
    """
    N = _bandwidth("nndft_direct", N)
    f, x, v = _inputs("nndft_direct", f, x, v)
    return _exp_sum("nndft_direct", f, x, -N, lambda lo, hi: v[lo:hi])


def ndft_direct(c, x):
    """Trigonometric polynomial ``sum_{k in I_N} c_k e^{2 pi i k x_j}``.

    ``N = len(c)`` must be even; the frequency index runs over
    ``I_N = {-N/2, ..., N/2 - 1}`` in ascending order.
    """
    c, x = _inputs("ndft_direct", c, x)
    if c.size % 2:
        raise ParameterError("ndft_direct: len(c) must be even")
    half = c.size // 2
    return _exp_sum("ndft_direct", c, x, 1.0,
                    lambda lo, hi: np.arange(lo - half, hi - half, dtype=float))


def sinc_transform_direct(c, a, b, N):
    """Discrete sinc transform ``sum_k c_k sinc(N pi (b_j - a_k))``, with the
    unnormalized ``sinc(y) = sin(y)/y`` and a real scalar ``N``."""
    N = _bandwidth("sinc_transform_direct", N)
    c, b, a = _inputs("sinc_transform_direct", c, b, a)
    zb = _cispi(N, b)
    rows = np.column_stack((b, zb.imag, -zb.real))

    def kernel(lo, hi):
        za = _cispi(N, a[lo:hi]).view(float).reshape(-1, 2).T

        def term(rb, buf):
            np.matmul(rb[:, 1:], za, out=buf)  # sin(pi N (b - a))
            y = N * np.subtract.outer(rb[:, 0], a[lo:hi])
            near = np.flatnonzero(np.abs(y) < 1)
            sinc = np.sinc(y.flat[near])
            y.flat[near] = 1.0
            buf /= np.pi * y
            buf.flat[near] = sinc
        return term
    return _finite("sinc_transform_direct", _sum(c, rows, kernel, float))


def cc_weights_direct(n):
    """Clenshaw-Curtis weights by the explicit cosine sum, any ``n >= 2``.

    ``w_k = (e_k / n) sum_j e_{2j} 2/(1 - 4 j^2) cos(2 j k pi / n)`` over
    ``0 <= 2j <= n``, with ``e = 1/2`` at the indices ``0`` and ``n`` and 1
    otherwise.  The phase ``2 j k pi / n`` is reduced modulo ``2 pi`` in
    exact integer arithmetic before the cosine is taken, which keeps the
    sum accurate for large ``n``; the reduced phases index a table of the
    ``2 n`` cosines ``cos(p pi / n)``.
    """
    integer(n, "cc_weights_direct: n", 2)

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
