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
import math

import numpy as np

from . import bounds as _bounds
from .errors import ParameterError
from .nfft import (_DOMAIN_TOL, NfftPlan, as_coefficients, as_nodes,
                   grid_length, nfft_adjoint, nfft_plan, nfft_trafo)
from .nnfft import NnfftGeometry, fast_bandwidth, nnfft_plan, nnfft_trafo
from .sinc_approx import cc_quadrature


class SincMode(enum.Enum):
    """Which of the two stages runs on an even grid."""

    GENERAL = "general"
    EQUISPACED_SOURCES = "equispaced-sources"
    EQUISPACED_TARGETS = "equispaced-targets"
    EQUISPACED_BOTH = "equispaced-both"


class SincPlan:
    """Precomputed stages of the fast sinc transform for one node pair.

    Stage 1 (``_plan1``) is an NNFFT, or an NFFT when the sources are on
    the grid; row ``j`` of its gather also carries the Clenshaw-Curtis
    weight ``w_j``, so it returns ``alpha`` directly (in an NNFFT that row
    already holds ``1/(N1 phi_hat_1(N z_j / 2))``).  Stage 3 (``_plan3``)
    is an NNFFT, or an adjoint NFFT when the targets are on the grid, with
    its own scaling only.  The plan keeps no copy of the nodes.
    """

    def __init__(self, N, n, L1, L2, params, n_star, plan1, plan3):
        self.N = N
        self.n = n
        self.L1 = L1
        self.L2 = L2
        (self.m1, self.m2, self.sigma1, self.sigma2,
         self.window1, self.window2) = params
        self.n_star = n_star
        self._plan1 = plan1
        self._plan3 = plan3

    @property
    def mode(self):
        """The :class:`SincMode`: which stages run as an NFFT on a grid."""
        return _MODES[isinstance(self._plan1, NfftPlan),
                      isinstance(self._plan3, NfftPlan)]

    @property
    def inner_geometry(self):
        """The :class:`~sincfft.nnfft.NnfftGeometry` of a nonequispaced
        stage at the rescaled bandwidth ``n_star``, on which the certificate
        rests; made when asked for, so a plan whose stages are both NFFTs
        does not need it to exist (it raises :class:`ParameterError`)."""
        return NnfftGeometry.from_parameters(
            self.n_star, self.L1, self.n + 1, self.sigma1, self.sigma2,
            self.m1, self.m2)

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


# (sources on the grid, targets on the grid) -> mode
_MODES = {(False, False): SincMode.GENERAL,
          (True, False): SincMode.EQUISPACED_SOURCES,
          (False, True): SincMode.EQUISPACED_TARGETS,
          (True, True): SincMode.EQUISPACED_BOTH}


def _on_grid(nodes, L, sigma1, m1):
    # nodes == (arange(L) - L/2) / L within tolerance, with L even and a
    # grid that admits the NFFT of degree L
    if nodes.size != L or L % 2 or grid_length(L, sigma1, m1) is None:
        return False
    grid = (np.arange(L) - L // 2) / L
    return bool(np.max(np.abs(nodes - grid)) <= _DOMAIN_TOL)


def _wrap_half(t):
    # map to the half-open period [-1/2, 1/2)
    return np.mod(t + 0.5, 1.0) - 0.5


def sinc_plan(N, a, b, *, n=None, epsilon=None, m1=6, m2=6,
              sigma1=2.0, sigma2=2.0, window1="sinh", window2="sinh"):
    """Plan a fast sinc transform of bandwidth ``N``.

    Each stage runs as an NFFT where its nodes are the even grid
    (``a_k = k/L1`` with ``L1`` even, or ``L2 = N`` even and
    ``b_l = l/N``) whose NFFT is admissible, and as an NNFFT otherwise;
    :attr:`SincPlan.mode` tells which.

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
    """
    if not isinstance(N, (int, np.integer)) or N <= 0:
        raise ParameterError("sinc_plan: N must be a positive integer")
    N = int(N)
    a = as_nodes(a, "sinc_plan: a")
    b = as_nodes(b, "sinc_plan: b")

    if n is not None and epsilon is not None:
        raise ParameterError("sinc_plan: pass either n or epsilon, not both")
    if n is None:
        n = 4 * N if epsilon is None else _bounds.choose_n(N, float(epsilon))
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ParameterError("sinc_plan: n must be an integer >= 2")
    quad = cc_quadrature(int(n))
    z = quad.points

    sigma1, sigma2 = float(sigma1), float(sigma2)
    # checked here too, as a plan whose stages are both NFFTs never uses them
    if not isinstance(m2, (int, np.integer)) or m2 < 2:
        raise ParameterError("sinc_plan: m2 must be an integer >= 2")
    if not 1.0 < sigma2 < math.inf:
        raise ParameterError(f"sinc_plan: sigma2 must be finite and > 1, got {sigma2}")
    n_star = fast_bandwidth(N, sigma1, m1)
    if _on_grid(a, a.size, sigma1, m1):
        t = _wrap_half(-(N / (2.0 * a.size)) * z)
        plan1 = nfft_plan(a.size, t, sigma=sigma1, m=m1, window=window1)
        gather1 = plan1
    else:
        plan1 = nnfft_plan(n_star, (a * N) / n_star, 0.5 * z,
                           sigma1=sigma1, sigma2=sigma2, m1=m1, m2=m2,
                           window1=window1, window2=window2)
        gather1 = plan1.stage2
    # alpha_j = w_j g_j: the weight of z_j rides in row j of stage 1's gather
    gather1.spread_val *= quad.weights[:, None]

    if _on_grid(b, N, sigma1, m1):
        plan3 = nfft_plan(N, -0.5 * z, sigma=sigma1, m=m1, window=window1)
    else:
        plan3 = nnfft_plan(n_star, (z * (-0.5 * N)) / n_star, b,
                           sigma1=sigma1, sigma2=sigma2, m1=m1, m2=m2,
                           window1=window1, window2=window2)

    params = (m1, m2, sigma1, sigma2, window1, window2)
    return SincPlan(N, int(n), a.size, b.size, params, n_star, plan1, plan3)


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
