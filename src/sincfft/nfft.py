"""Classical NFFT: trigonometric polynomials at nonequispaced spatial nodes.

The forward transform approximates ``p(x_j) = sum_{k in I_N} c_k
e^{2 pi i k x_j}`` by deconvolution on an oversampled grid of ``sigma * N``
points, one FFT, and a short gather around each node; the adjoint is the
conjugate transpose of the same three stages, so the pair satisfies the
inner-product identity to rounding accuracy.

The deconvolution is fused into the copy that fills the FFT buffer (or
crops it, in the adjoint), and the FFT runs in place on that buffer as
``P`` interleaved FFTs of length ``sigma * N / P >= N`` (:func:`block_count`):
with ``sigma = 2`` the band fills two half-length FFTs instead of half of
one zero-padded FFT.

Every window table, the gather of an NFFT and the spread of an NNFFT
alike, comes from :func:`stencil_table`, which writes it in place with no
other array of its size.
"""

import numpy as np
import scipy.sparse

from . import fft_core
from .errors import ParameterError, PositivityError
from .windows import WindowSpec, phi_eval, phi_hat_eval

_DOMAIN_TOL = 1e-12


class NfftPlan:
    """Precomputed geometry and tables for one node set.

    Attributes
    ----------
    degree : int
        Number of Fourier coefficients N (even).
    n_over : int
        Oversampled grid length ``sigma * N``.
    window : WindowSpec
    node_count : int
        Number M of spatial nodes.
    spread_idx, spread_val : int32 and float ndarrays, shape (M, 2m)
        Grid positions (mod ``n_over``) each node touches and their
        weights: the window values, times a factor per row when the plan
        is a stage of a larger transform (an NNFFT's ``stage2`` carries
        ``1/(N1 phi_hat_1(N x_j))``, see :class:`~sincfft.nnfft.NnfftPlan`).
    deconv : ndarray, shape (N + 1,)
        ``1 / (n_over * phi_hat(k))`` for ``k = -N/2 .. N/2`` (``phi_hat > 0``
        there); the last entry serves the adjoint only.
    blocks : int
        The grid FFT runs as ``P = blocks`` interleaved FFTs of length
        ``Q = n_over / P``, the largest ``P`` with ``Q >= N``
        (:func:`block_count`).
    twiddle : complex ndarray, shape (P - 1, N + 1)
        ``1 / (n_over * phi_hat(k)) * e^{2 pi i k s / n_over}`` for
        ``s = 1 .. P-1`` and ``k = -N/2 .. N/2``; ``deconv`` plays the
        part of ``s = 0``.
    gather : scipy.sparse.csr_array, shape (M, n_over)
        The two tables as one matrix sharing their memory; the adjoint
        spreads with its transpose.
    """

    def __init__(self, degree, n_over, window, spread_idx, spread_val,
                 deconv, twiddle):
        self.degree = degree
        self.n_over = n_over
        self.window = window
        self.node_count = spread_idx.shape[0]
        self.spread_idx = spread_idx
        self.spread_val = spread_val
        self.deconv = deconv
        self.blocks = twiddle.shape[0] + 1
        self.twiddle = twiddle
        self.gather = stencil_matrix(spread_idx, spread_val, n_over)


def stencil_matrix(idx, val, n_cols):
    """CSR matrix with ``val[j]`` at the columns ``idx[j]`` of row ``j``,
    sharing the memory of the C-contiguous int32 ``idx`` and float ``val``."""
    # int32 row offsets keep the tables shared; past 2**31 entries they would
    # wrap, so scipy gets int64 offsets and widens the indices itself
    ptr = np.arange(0, idx.size + 1, idx.shape[1],
                    dtype=np.int32 if idx.size < 2**31 else np.int64)
    return scipy.sparse.csr_array((val.ravel(), idx.ravel(), ptr),
                                  shape=(idx.shape[0], n_cols))


def stencil_table(spec, u, shift=None):
    """Positions ``floor(u_j) + l`` (int32) and weights ``phi(t_j/n - l/n)``
    (float), ``l = 1-m .. m``, of the nodes at grid coordinates
    ``u = n x`` (``n = spec.n_grid``, ``t_j = u_j - floor(u_j)``), as
    C-contiguous ``(M, 2m)`` tables.  The positions wrap onto ``0 .. n-1``
    (``shift=None``) or are moved by ``shift``.  The window arguments are
    evaluated in the weight table itself, and a row with ``t_j = 0`` ends
    in the window's exact zero at ``-m/n``."""
    m, n = spec.m, spec.n_grid
    base = np.floor(u)
    start = base.astype(np.int32) + (1 - m if shift is None else 1 - m + shift)
    t = np.subtract(u, base, out=base) / n
    val = _rows(t, np.arange(m - 1.0, -m - 1.0, -1.0) / n)
    phi_eval(spec, val, out=val)
    if shift is None:
        start += n * (start < 0)
    idx = _rows(start, np.arange(2 * m, dtype=np.int32))
    if shift is None:  # the few rows that run past the end of the grid
        idx[np.flatnonzero(start > n - 2 * m)] %= n
    return idx, val


def _rows(column, row):
    # column[:, None] + row without a numpy loop per short row: column
    # repeated, then row added in blocks of whole rows
    out = np.repeat(column, row.size)
    pattern = np.tile(row, max(1, 16384 // row.size))
    for lo in range(0, out.size, pattern.size):
        out[lo:lo + pattern.size] += pattern[:out.size - lo]
    return out.reshape(-1, row.size)


def grid_length(n, sigma, m):
    """The oversampled grid length ``sigma * n`` of a stage with cut-off
    ``m``, or ``None`` unless it is an even integer (within 1e-9) with
    ``4 m <= sigma * n``; a non-finite ``sigma * n`` raises
    :class:`ParameterError`."""
    if not np.isfinite(sigma * n):
        raise ParameterError(f"sigma * n must be finite, got sigma = {sigma}")
    n_grid = int(round(sigma * n))
    if abs(sigma * n - n_grid) > 1e-9 or n_grid % 2 or 4 * m > n_grid:
        return None
    return n_grid


def block_count(n_over, degree):
    """The largest divisor ``P`` of ``n_over`` with ``n_over / P >= degree``:
    a band of ``degree`` frequencies then fills each of ``P`` FFTs of length
    ``n_over / P`` without aliasing (``P = sigma`` for integer ``sigma``)."""
    return max(p for p in range(1, n_over // degree + 1) if n_over % p == 0)


def as_coefficients(values, size, who):
    """``values`` as a contiguous complex vector; raises
    :class:`ParameterError` unless its shape is ``(size,)`` and it is finite."""
    c = np.ascontiguousarray(values, dtype=complex)
    if c.shape != (size,):
        raise ParameterError(f"{who}: expected {size} values, got {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ParameterError(f"{who}: values must be finite")
    return c


def as_nodes(values, who):
    """``values`` as a contiguous float vector clipped to ``[-1/2, 1/2]``;
    raises :class:`ParameterError` unless it is 1-d, nonempty and within
    ``[-1/2, 1/2]`` up to 1e-12 (so finite)."""
    x = np.ascontiguousarray(values, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ParameterError(f"{who} must be a nonempty 1-d array")
    if not np.all(np.abs(x) <= 0.5 + _DOMAIN_TOL):
        raise ParameterError(f"{who} must lie in [-1/2, 1/2]")
    return np.clip(x, -0.5, 0.5)


def nfft_plan(N, nodes, *, sigma=2.0, m=4, window="sinh"):
    """Build an :class:`NfftPlan` for polynomial degree ``N`` at ``nodes``.

    ``sigma * N`` must be an even integer with ``4m <= sigma * N``
    (:func:`grid_length`).
    Nodes must satisfy ``|x| <= 1/2`` (a 1e-12 overhang is clamped); the
    transform treats them 1-periodically.
    """
    if not isinstance(N, (int, np.integer)) or N <= 0 or N % 2:
        raise ParameterError("nfft_plan: N must be a positive even integer")
    n_over = grid_length(N, sigma, m)
    if n_over is None:
        raise ParameterError(
            f"nfft_plan: sigma*N must be an even integer >= 4m, got "
            f"sigma*N = {sigma * N} with m = {m}")
    x = as_nodes(nodes, "nfft_plan: nodes")

    spec = WindowSpec(window, m, float(sigma), n_over)
    # phi_hat on k = -N/2 .. N/2 (the adjoint reads the tables backwards, at
    # -k, which needs the one frequency past the band); even, so mirrored
    h = N // 2
    d = np.empty(N + 1)
    d[h:] = phi_hat_eval(spec, np.arange(h + 1))
    if np.any(d[h:] <= 0.0):
        raise PositivityError(
            "nfft_plan: window transform must be strictly positive on the "
            "frequency band; choose a larger sigma or a different window")
    d[:h] = d[:h:-1]
    d *= n_over
    np.reciprocal(d, out=d)

    idx, val = stencil_table(spec, n_over * x)
    # made after the stencil, so that it does not add to the stencil's peak
    P = block_count(n_over, N)
    k = np.arange(N + 1) - h
    twiddle = d * np.exp((2j * np.pi / n_over) * np.outer(np.arange(1, P), k))
    return NfftPlan(int(N), n_over, spec, idx, val, d, twiddle)


# Grid point t = q P + s (row q, column s of a (Q, P) array) gets
#   sum_k c_k d_k e^{2 pi i k t / n_over}
#     = sum_k (c_k d_k e^{2 pi i k s / n_over}) e^{2 pi i k q / Q},
# a length-Q DFT per column of the band times that column's twiddle.  With
# Q >= N the frequencies k in I_N land on distinct rows k mod Q: k >= 0 on
# rows 0 .. N/2-1, k < 0 on rows Q-N/2 .. Q-1.

def nfft_trafo(plan, c):
    """Evaluate ``sum_{k in I_N} c_k e^{2 pi i k x_j}`` for all plan nodes."""
    c = as_coefficients(c, plan.degree, "nfft_trafo")
    h, P = plan.degree // 2, plan.blocks
    Q = plan.n_over // P
    buf = np.empty((Q, P), dtype=complex)
    buf[h:Q - h] = 0.0
    for s, d in enumerate((plan.deconv, *plan.twiddle)):
        np.multiply(c[h:], d[h:2 * h], out=buf[:h, s])
        np.multiply(c[:h], d[:h], out=buf[Q - h:, s])
    grid = fft_core.fft(buf.ravel(), "inverse", blocks=P)
    return fft_core.sparse_apply(plan.gather, grid)


def nfft_adjoint(plan, y):
    """Adjoint transform: ``h_k = sum_j y_j e^{-2 pi i k x_j}`` on ``I_N``.

    The conjugate transpose of :func:`nfft_trafo` stage by stage.
    """
    y = as_coefficients(y, plan.node_count, "nfft_adjoint")
    h, P = plan.degree // 2, plan.blocks
    Q = plan.n_over // P
    grid = fft_core.sparse_apply(plan.gather.T, y)
    F = fft_core.fft(grid, "forward", blocks=P).reshape(Q, P)
    out = np.zeros(2 * h, dtype=complex)
    for s, d in enumerate((plan.deconv, *plan.twiddle)):
        # the conjugate factor of k is the factor of -k (phi_hat is even):
        # the table read backwards from k = N/2
        d = d[:0:-1]
        F[:h, s] *= d[h:]
        F[Q - h:, s] *= d[:h]
        out[h:] += F[:h, s]
        out[:h] += F[Q - h:, s]
    return out
