"""Classical NFFT: trigonometric polynomials at nonequispaced spatial nodes.

The forward transform approximates ``p(x_j) = sum_{k in I_N} c_k
e^{2 pi i k x_j}`` by deconvolution on an oversampled grid of ``sigma * N``
points, one FFT, and a short gather around each node; the adjoint is the
exact conjugate transpose of the same three stages, so the pair satisfies
the inner-product identity to rounding accuracy.
"""

import numpy as np

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
    nodes : ndarray, shape (M,)
        Spatial nodes in ``[-1/2, 1/2]``.
    spread_idx : int ndarray, shape (M, 2m)
        Grid positions (mod ``n_over``) each node touches.
    spread_val : ndarray, shape (M, 2m)
        Window values at those positions.
    hat : ndarray, shape (N,)
        ``phi_hat`` on ``I_N``, strictly positive.
    """

    def __init__(self, degree, n_over, window, nodes, spread_idx, spread_val, hat):
        self.degree = degree
        self.n_over = n_over
        self.window = window
        self.nodes = nodes
        self.spread_idx = spread_idx
        self.spread_val = spread_val
        self.hat = hat

    @property
    def node_count(self):
        return self.nodes.size


def nfft_plan(N, nodes, *, sigma=2.0, m=4, window="sinh"):
    """Build an :class:`NfftPlan` for polynomial degree ``N`` at ``nodes``.

    ``sigma * N`` must be an even integer and ``2m <= sigma * N / 2``.
    Nodes must satisfy ``|x| <= 1/2`` (a 1e-12 overhang is clamped); the
    transform treats them 1-periodically.
    """
    if not isinstance(N, (int, np.integer)) or N <= 0 or N % 2:
        raise ParameterError("nfft_plan: N must be a positive even integer")
    n_over_f = sigma * N
    n_over = int(round(n_over_f))
    if abs(n_over_f - n_over) > 1e-9 or n_over % 2:
        raise ParameterError(
            f"nfft_plan: sigma*N must be an even integer, got {n_over_f}")
    if 2 * m > n_over // 2:
        raise ParameterError(
            f"nfft_plan: need 2*m <= sigma*N/2, got 2*{m} > {n_over // 2}")
    x = np.ascontiguousarray(nodes, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ParameterError("nfft_plan: nodes must be a nonempty 1-d array")
    if not np.all(np.abs(x) <= 0.5 + _DOMAIN_TOL):
        raise ParameterError("nfft_plan: nodes must lie in [-1/2, 1/2]")
    x = np.clip(x, -0.5, 0.5)

    spec = WindowSpec(window, int(m), float(sigma), n_over)
    hat = np.asarray(phi_hat_eval(spec, np.arange(N) - N // 2), dtype=float)
    if np.any(hat <= 0.0):
        raise PositivityError(
            "nfft_plan: window transform must be strictly positive on the "
            "frequency band; choose a larger sigma or a different window")

    # fixed 2m-point stencil around floor(n_over * x); boundary entries may
    # carry an exact window zero, which keeps every row the same length
    center = np.floor(n_over * x).astype(np.int64)
    offsets = np.arange(1 - m, m + 1, dtype=np.int64)
    ell = center[:, None] + offsets[None, :]
    val = phi_eval(spec, x[:, None] - ell / n_over)
    idx = np.mod(ell, n_over)
    return NfftPlan(int(N), n_over, spec, x, idx, val, hat)


def nfft_trafo(plan, c):
    """Evaluate ``sum_{k in I_N} c_k e^{2 pi i k x_j}`` for all plan nodes."""
    c = np.ascontiguousarray(c, dtype=complex)
    if c.shape != (plan.degree,):
        raise ParameterError(
            f"nfft_trafo: expected {plan.degree} coefficients, got {c.shape}")
    chat = c / plan.hat
    buf = np.zeros(plan.n_over, dtype=complex)
    kmod = np.mod(np.arange(plan.degree) - plan.degree // 2, plan.n_over)
    buf[kmod] = chat
    g = fft_core.fft(buf, "inverse") / plan.n_over
    return (g[plan.spread_idx] * plan.spread_val).sum(axis=1)


def nfft_adjoint(plan, y):
    """Adjoint transform: ``h_k = sum_j y_j e^{-2 pi i k x_j}`` on ``I_N``.

    Exact conjugate transpose of :func:`nfft_trafo` stage by stage.
    """
    y = np.ascontiguousarray(y, dtype=complex)
    if y.shape != (plan.node_count,):
        raise ParameterError(
            f"nfft_adjoint: expected {plan.node_count} values, got {y.shape}")
    w = y[:, None] * plan.spread_val
    flat = plan.spread_idx.ravel()
    G = (np.bincount(flat, weights=w.real.ravel(), minlength=plan.n_over)
         + 1j * np.bincount(flat, weights=w.imag.ravel(), minlength=plan.n_over))
    T = fft_core.fft(G, "forward") / plan.n_over
    kmod = np.mod(np.arange(plan.degree) - plan.degree // 2, plan.n_over)
    return T[kmod] / plan.hat
