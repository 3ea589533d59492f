"""Exponential-sum surrogate for the sinc kernel.

Clenshaw-Curtis quadrature of ``(1/2) int_{-1}^{1} e^{-pi i N t x} dt``
turns ``sinc(pi N x)`` into a short exponential sum

    sinc(pi N x)  ~=  sum_{k=0}^{n} w_k e^{-pi i N z_k x},  x in [-1, 1],

on the Chebyshev points ``z_k = cos(k pi / n)`` with positive weights
``w_k`` summing to one.  The error decays like ``e^{-N (nu - C)}`` in the
oversampling ``nu = n / N`` once ``nu`` exceeds the constant
``C ~= 3.692`` (see :mod:`sincfft.bounds`).

The weights of every size ``n >= 2`` come from a single orthogonal DCT-I
(Waldvogel, BIT 2006); the explicit cosine sum is kept as a test oracle in
:mod:`sincfft.direct`.
"""

from dataclasses import dataclass

import numpy as np

from . import fft_core
from .errors import ParameterError, integer
from .nfft import nfft_adjoint, nfft_plan


def _eps_boundary(n, idx):
    # half-weight sqrt(2)/2 at the two boundary indices, 1 inside
    return np.where((idx == 0) | (idx == n), np.sqrt(0.5), 1.0)


@dataclass(frozen=True)
class CcQuadrature:
    """Chebyshev points and Clenshaw-Curtis weights for one size ``n``.

    ``points[k] = cos(k pi / n)`` for ``k = 0..n`` (descending from 1 to
    -1, exactly antisymmetric), ``weights`` positive with unit sum.
    """

    n: int
    points: np.ndarray
    weights: np.ndarray


def _chebyshev_points(n):
    k = np.arange(n // 2 + 1)
    half = np.cos(np.pi * k / n)
    if n % 2 == 0:
        half[n // 2] = 0.0
    z = np.empty(n + 1)
    z[:half.size] = half
    # mirror so that z_k == -z_{n-k} holds exactly
    z[n + 1 - half.size:] = -half[::-1]
    return z


def _dct_load(n):
    # even entries eps_n(2j) * 2/(1 - 4 j^2), odd entries zero
    a = np.zeros(n + 1)
    j = np.arange(n // 2 + 1)
    a[::2] = _eps_boundary(n, 2 * j) * (2.0 / (1.0 - 4.0 * j * j))
    return a


def cc_quadrature(n):
    """Build a :class:`CcQuadrature`; the weights are one DCT-I of length
    ``n + 1``, for any integer ``n >= 2``."""
    n = integer(n, "cc_quadrature: n", 2)
    w = (_eps_boundary(n, np.arange(n + 1)) / np.sqrt(2.0 * n)
         * fft_core.dct1(_dct_load(n)))
    return CcQuadrature(n, _chebyshev_points(n), w)


def sinc_expsum_eval_grid(quad, N, R):
    """Evaluate the surrogate on the even grid ``x_r = 2r/R, r in I_R``.

    Uses one adjoint NFFT of degree ``R`` with a high-accuracy internal
    window (its own error is far below the surrogate's plateau), so the
    cost is ``O(R log R + n)`` rather than ``O(n R)``.

    Requires even ``R >= 2 N``.  Returns the values ordered by ascending
    ``r = -R/2 .. R/2 - 1``.
    """
    if not isinstance(R, (int, np.integer)) or R < 2 or R % 2:
        raise ParameterError("sinc_expsum_eval_grid: R must be a positive even integer")
    if R < 2 * N:
        raise ParameterError("sinc_expsum_eval_grid: need R >= 2*N")
    nodes = quad.points * (N / R)
    plan = nfft_plan(int(R), nodes, sigma=2.0, m=12, window="sinh")
    return nfft_adjoint(plan, quad.weights.astype(complex))


def sinc_expsum_max_error(quad, N, R):
    """Max deviation from ``sinc(pi N x)`` on the grid ``x_r = 2r/R``."""
    approx = sinc_expsum_eval_grid(quad, N, R)
    r = np.arange(R) - R // 2
    exact = np.sinc(N * (2.0 * r / R))
    return float(np.max(np.abs(approx - exact)))

