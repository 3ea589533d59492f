"""Fast discrete sinc transform.

Evaluates ``h(b_l) = sum_k c_k sinc(N pi (b_l - a_k))`` for nonequispaced
sources ``a_k`` and targets ``b_l`` in ``[-1/2, 1/2]`` by replacing the
sinc kernel with its Clenshaw-Curtis exponential sum and factorizing the
double sum into two nonequispaced FFT stages sharing the Chebyshev nodes:

1. ``g_j = sum_k c_k e^{-pi i N z_j a_k}``   (exponential sum over sources),
2. ``alpha_j = w_j g_j``,
3. ``h_l = sum_j alpha_j e^{+pi i N z_j b_l}`` (sum over Chebyshev nodes).

Step 2 costs no pass of its own: the weights are folded into the gather
rows of stage 1 at plan time.

A nonequispaced stage runs as an NNFFT at the rescaled bandwidth ``N*``
of :func:`sincfft.nnfft.rescale_frequencies` (the smallest admissible
``N* >= N + ceil(2 m1/sigma1)`` with a fast FFT length).  Either stage
collapses to a classical NFFT / adjoint NFFT when the corresponding node
set is the even grid; the plan detects this and picks the cheapest route.
Total cost ``O((L1 + L2 + N log N) log(1/eps))`` at target accuracy ``eps``.
"""

import enum

import numpy as np

from . import bounds as _bounds
from .errors import ParameterError
from .nfft import (NfftPlan, as_coefficients, grid_length, nfft_adjoint,
                   nfft_plan, nfft_trafo)
from .nnfft import NnfftGeometry, fast_bandwidth, nnfft_plan, nnfft_trafo
from .sinc_approx import cc_quadrature

_GRID_TOL = 1e-12


class SincMode(enum.Enum):
    """Which of the two stages runs on an even grid."""

    GENERAL = "general"
    EQUISPACED_SOURCES = "equispaced-sources"
    EQUISPACED_TARGETS = "equispaced-targets"
    EQUISPACED_BOTH = "equispaced-both"


class SincPlan:
    """Precomputed stages of the fast sinc transform for one node pair.

    Stage 1 (``_plan1``) is an NNFFT, or an NFFT when the sources are on
    the grid; row ``j`` of its gather also carries the weight
    ``quad.weights[j]``, so it returns ``alpha`` directly (in an NNFFT that
    row already holds ``1/(N1 phi_hat_1(N z_j / 2))``).  Stage 3
    (``_plan3``) is an NNFFT, or an adjoint NFFT when the targets are on
    the grid, with its own scaling only.
    """

    def __init__(self, N, n, quad, a, b, mode, params, n_star,
                 inner_geometry, plan1, plan3):
        self.N = N
        self.n = n
        self.quad = quad
        self.a = a
        self.b = b
        self.L1 = a.size
        self.L2 = b.size
        self.mode = mode
        (self.m1, self.m2, self.sigma1, self.sigma2,
         self.window1, self.window2) = params
        self.n_star = n_star
        self.inner_geometry = inner_geometry
        self._plan1 = plan1
        self._plan3 = plan3

    def error_bound(self):
        """Closed-form accuracy certificate for this plan.

        Only available with sinh windows and ``m2 >= m1``, where the
        two-stage bound holds; assembled by
        :func:`sincfft.bounds.bound_report`.  Returns a dict with the
        surrogate level ``epsilon``, the stage constants ``e1``/``e2``,
        ``a`` and ``hat_phi1_half`` of the rescaled inner geometry, the
        guaranteed ``full`` bound, the ``simplified`` bound and the flag
        ``simplified_valid`` telling whether the latter applies.  All
        bounds are per unit ``sum_k |c_k|``.
        """
        if self.window1 != "sinh" or self.window2 != "sinh":
            raise ParameterError(
                "error_bound: closed-form bounds require sinh windows")
        geo = self.inner_geometry
        nu = self.n / self.N
        rep = _bounds.bound_report(
            geo.N, self.m1, self.m2, self.sigma1, geo.sigma2, nu,
            epsilon=_bounds.bound_cc_sinc(self.N, nu))
        return {
            "epsilon": rep.epsilon,
            "e1": rep.e1,
            "e2": rep.e2,
            "a": rep.a,
            "hat_phi1_half": rep.hat_phi1_half,
            "b_term": rep.b_term,
            "full": rep.fast_sinc_bound_full,
            "simplified": rep.fast_sinc_bound_simplified,
            "simplified_valid": rep.simplified_valid,
        }


def _is_even_grid(nodes, L, scale):
    # nodes == (arange(L) - L/2) / scale elementwise within tolerance
    if nodes.size != L or L % 2:
        return False
    grid = (np.arange(L) - L // 2) / scale
    return bool(np.max(np.abs(nodes - grid)) <= _GRID_TOL)


def _wrap_half(t):
    # map to the half-open period [-1/2, 1/2)
    return np.mod(t + 0.5, 1.0) - 0.5


def sinc_plan(N, a, b, *, n=None, epsilon=None, m1=6, m2=6,
              sigma1=2.0, sigma2=2.0, window1="sinh", window2="sinh",
              mode=None):
    """Plan a fast sinc transform of bandwidth ``N``.

    Parameters
    ----------
    N : int
        Bandwidth of the sinc kernel.
    a : array, shape (L1,)
        Source nodes in ``[-1/2, 1/2]``.
    b : array, shape (L2,)
        Target nodes in ``[-1/2, 1/2]``.
    n : int, optional
        Surrogate size (default ``4 N``).  Mutually exclusive with
        ``epsilon``.
    epsilon : float, optional
        Target surrogate accuracy in ``(0, 1)``; the smallest admissible
        power of two is selected for ``n``.
    m1, m2, sigma1, sigma2, window1, window2
        Parameters of the inner gridding stages.
    mode : SincMode or str, optional
        Force a stage layout instead of auto-detecting equispaced node
        sets.  Auto-detection picks an equispaced layout only where the
        grid stage's NFFT is admissible.  Forcing an equispaced mode on
        nodes that are not on the even grid (of even length) is rejected.
    """
    if not isinstance(N, (int, np.integer)) or N <= 0:
        raise ParameterError("sinc_plan: N must be a positive integer")
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    for name, arr in (("a", a), ("b", b)):
        if arr.ndim != 1 or arr.size == 0:
            raise ParameterError(f"sinc_plan: {name} must be a nonempty 1-d array")
        if not np.all(np.abs(arr) <= 0.5 + _GRID_TOL):
            raise ParameterError(f"sinc_plan: {name} must lie in [-1/2, 1/2]")
    a = np.clip(a, -0.5, 0.5)
    b = np.clip(b, -0.5, 0.5)

    if n is not None and epsilon is not None:
        raise ParameterError("sinc_plan: pass either n or epsilon, not both")
    if n is None:
        if epsilon is not None:
            n = _bounds.choose_n(int(N), float(epsilon))
        else:
            n = 4 * int(N)
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ParameterError("sinc_plan: n must be an integer >= 2")
    quad = cc_quadrature(int(n))
    z = quad.points

    sources_grid = _is_even_grid(a, a.size, a.size)
    targets_grid = (b.size == N) and (N % 2 == 0) and _is_even_grid(b, int(N), int(N))
    if mode is None:
        auto_sources = sources_grid and grid_length(a.size, sigma1, m1) is not None
        auto_targets = targets_grid and grid_length(int(N), sigma1, m1) is not None
        mode = (SincMode.EQUISPACED_BOTH if auto_sources and auto_targets
                else SincMode.EQUISPACED_SOURCES if auto_sources
                else SincMode.EQUISPACED_TARGETS if auto_targets
                else SincMode.GENERAL)
    else:
        mode = SincMode(mode.value if isinstance(mode, SincMode) else mode)
        need_sources = mode in (SincMode.EQUISPACED_SOURCES, SincMode.EQUISPACED_BOTH)
        need_targets = mode in (SincMode.EQUISPACED_TARGETS, SincMode.EQUISPACED_BOTH)
        if need_sources and not sources_grid:
            raise ParameterError(
                "sinc_plan: equispaced-sources mode requires a_k = k/L1 on I_L1")
        if need_targets and not targets_grid:
            raise ParameterError(
                "sinc_plan: equispaced-targets mode requires L2 = N even and b_l = l/N")

    params = (m1, m2, float(sigma1), float(sigma2), window1, window2)
    n_star = fast_bandwidth(int(N), float(sigma1), m1)
    inner_geometry = NnfftGeometry.from_parameters(
        n_star, a.size, z.size, float(sigma1), float(sigma2), m1, m2)

    if mode in (SincMode.EQUISPACED_SOURCES, SincMode.EQUISPACED_BOTH):
        t = _wrap_half(-(N / (2.0 * a.size)) * z)
        plan1 = nfft_plan(a.size, t, sigma=float(sigma1), m=m1, window=window1)
        gather1 = plan1
    else:
        plan1 = nnfft_plan(n_star, (a * N) / n_star, 0.5 * z,
                           sigma1=float(sigma1), sigma2=float(sigma2),
                           m1=m1, m2=m2,
                           window1=window1, window2=window2)
        gather1 = plan1.stage2
    # alpha_j = w_j g_j: the weight of z_j rides in row j of stage 1's gather
    gather1.spread_val *= quad.weights[:, None]

    if mode in (SincMode.EQUISPACED_TARGETS, SincMode.EQUISPACED_BOTH):
        plan3 = nfft_plan(int(N), -0.5 * z, sigma=float(sigma1), m=m1,
                          window=window1)
    else:
        plan3 = nnfft_plan(n_star, (z * (-0.5 * N)) / n_star, b,
                           sigma1=float(sigma1), sigma2=float(sigma2),
                           m1=m1, m2=m2,
                           window1=window1, window2=window2)

    return SincPlan(int(N), int(n), quad, a, b, mode, params, n_star,
                    inner_geometry, plan1, plan3)


def fast_sinc_transform(plan, c):
    """Apply the planned fast sinc transform to ``L1`` finite coefficients
    ``c``; returns ``L2`` complex values."""
    c = as_coefficients(c, plan.L1, "fast_sinc_transform")
    # each stage through its public name here, which a tracer can rebind
    if isinstance(plan._plan1, NfftPlan):
        alpha = nfft_trafo(plan._plan1, c)
    else:
        alpha = nnfft_trafo(plan._plan1, c)
    if isinstance(plan._plan3, NfftPlan):
        return nfft_adjoint(plan._plan3, alpha)
    return nnfft_trafo(plan._plan3, alpha)
