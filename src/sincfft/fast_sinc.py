"""Fast discrete sinc transform.

Evaluates ``h(b_l) = sum_k c_k sinc(N pi (b_l - a_k))`` for nonequispaced
sources ``a_k`` and targets ``b_l`` in ``[-1/2, 1/2]`` by replacing the
sinc kernel with its Clenshaw-Curtis exponential sum and factorizing the
double sum into two nonequispaced FFT stages sharing the Chebyshev nodes:

1. ``g_j = sum_k c_k e^{-pi i N z_j a_k}``   (exponential sum over sources),
2. ``alpha_j = w_j g_j``,
3. ``h_l = sum_j alpha_j e^{+pi i N z_j b_l}`` (sum over Chebyshev nodes).

A nonequispaced stage runs as an NNFFT at the rescaled bandwidth ``N*``
of :func:`sincfft.nnfft.rescale_frequencies` (the smallest admissible
``N* >= N + ceil(2 m1/sigma1)`` with a fast FFT length).  Either stage
collapses to a classical NFFT / adjoint NFFT when the corresponding node
set is the even grid; the plan detects this and picks the cheapest route.

Step 2 is one banded matrix ``W``, stage 1's gather onto the Chebyshev
nodes times the weights times stage 3's spread from them, with about
``2 (m1 + m2) + 1`` entries per row for any ``n``.  An apply costs
``O((L1 + L2 + N log N) log(1/eps))`` at target accuracy ``eps``.
"""

import enum
import weakref
from dataclasses import asdict

import numpy as np
import scipy.sparse

from . import bounds as _bounds
from .errors import ParameterError, integer
from .fft_core import sparse_apply
from .nfft import (_DOMAIN_TOL, _crop, _fill, _plan, _shared,
                   as_coefficients, as_nodes, grid_length, nfft_trafo,
                   stencil_matrix, stencil_table)
# the stage plans and transforms stay importable here for tracers
from .nfft import nfft_adjoint, nfft_plan  # noqa: F401
from .nnfft import (NnfftGeometry, NnfftPlan, _nnfft_plan, _stage2,
                    _stage2_rows, fast_bandwidth, nnfft_plan,
                    nnfft_trafo)  # noqa: F401
from .sinc_approx import cc_quadrature
from .windows import WindowSpec, check_window

#: The W of every live plan, by its parameters
_W_LIVE = weakref.WeakValueDictionary()
#: A W is built in blocks of an eighth of the nodes, at least this many
_W_NODES = 1024


class SincMode(enum.Enum):
    """Which of the two stages runs on an even grid."""

    GENERAL = "general"
    EQUISPACED_SOURCES = "equispaced-sources"
    EQUISPACED_TARGETS = "equispaced-targets"
    EQUISPACED_BOTH = "equispaced-both"


class SincPlan:
    """Precomputed steps of the fast sinc transform for one node pair.

    ``mode`` (a :class:`SincMode`) tells which stages run on the grid.  An
    apply runs a front, made from the sources alone: the NNFFT spread and its
    node-free stage-2 fill and FFT, or the NFFT fill and FFT on a source grid;
    ``W``, the read-only CSR matrix of step 2 from that FFT grid onto the
    back's, shared by the live plans with equal parameters; and a back, made
    from the targets alone: the stage-2 fill, FFT and gather at them, or the
    adjoint NFFT's FFT and crop on a target grid.  No copy of the nodes,
    Chebyshev points or weights stays.
    """

    def __init__(self, N, n, L1, L2, params, n_star, mode, front, W, back):
        self.N = N
        self.n = n
        self.L1 = L1
        self.L2 = L2
        (self.m1, self.m2, self.sigma1, self.sigma2,
         self.window1, self.window2) = params
        self.n_star = n_star
        self.mode = mode
        self._front, self._W, self._back = front, W, back

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
        two-stage bound holds.  Returns the fields of the
        :class:`~sincfft.bounds.BoundReport` at the rescaled inner geometry
        as a dict, ``nnfft_bound`` included, with ``epsilon`` the surrogate
        bound at ``N``.  All bounds are per unit ``sum_k |c_k|`` and count
        truncation only; float64 rounding comes on top of them.
        """
        if self.window1 != "sinh" or self.window2 != "sinh":
            raise ParameterError(
                "error_bound: closed-form bounds require sinh windows")
        geo = self.inner_geometry
        nu = self.n / self.N
        return asdict(_bounds.bound_report(
            geo.N, self.m1, self.m2, self.sigma1, geo.sigma2, nu,
            epsilon=_bounds.bound_cc_sinc(self.N, nu)))


# (sources on the grid, targets on the grid) -> mode
_MODES = {(False, False): SincMode.GENERAL,
          (True, False): SincMode.EQUISPACED_SOURCES,
          (False, True): SincMode.EQUISPACED_TARGETS,
          (True, True): SincMode.EQUISPACED_BOTH}


def _on_grid(nodes, L, window, m, sigma):
    # the window of the NFFT of degree L where nodes == (arange(L) - L/2) / L
    # within tolerance, with L even and a grid that admits that NFFT; or None
    if nodes.size != L or L % 2 or (n_grid := grid_length(L, sigma, m)) is None:
        return None
    on = np.max(np.abs(nodes - (np.arange(L) - L // 2) / L)) <= _DOMAIN_TOL
    return WindowSpec(window, m, sigma, n_grid) if on else None


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
        Parameters of the inner gridding stages.  Both windows pass
        :func:`~sincfft.windows.check_window` as requested (a sinh
        ``sigma2`` before even-grid rounding), whichever route each stage
        takes, before the quadrature or any table is made.
    """
    N = integer(N, "sinc_plan: N")
    a = as_nodes(a, "sinc_plan: a")
    b = as_nodes(b, "sinc_plan: b")

    if n is not None and epsilon is not None:
        raise ParameterError("sinc_plan: pass either n or epsilon, not both")
    if n is None:
        n = 4 * N if epsilon is None else _bounds.choose_n(N, float(epsilon))
    n = integer(n, "sinc_plan: n", 2)
    sigma1, sigma2 = float(sigma1), float(sigma2)
    check_window(window1, m1, sigma1, "1")
    check_window(window2, m2, sigma2, "2")
    n_star = fast_bandwidth(N, sigma1, m1)
    src = _on_grid(a, a.size, window1, m1, sigma1)
    tgt = _on_grid(b, N, window1, m1, sigma1)
    geo = w1 = w2 = None  # no NNFFT where both stages are on their grid
    if src is None or tgt is None:
        geo = NnfftGeometry.from_parameters(n_star, a.size, b.size, sigma1,
                                            sigma2, m1, m2)
        w1 = WindowSpec(window1, m1, geo.sigma1, geo.N1)
        w2 = WindowSpec(window2, m2, geo.sigma2, geo.N2)
    grid_L1 = a.size if src else None
    # W first, so that its build peaks before the node tables exist
    key = (N, n, m1, m2, sigma1, sigma2, window1, window2, grid_L1, tgt is not None)
    W = _shared(_W_LIVE, key, lambda: _chebyshev_operator(
        geo, w1, N, n, src or w2, tgt, grid_L1))
    none = np.empty(0)
    # each side from its own nodes: the NNFFT spread at the sources and the
    # stage-2 gather at the targets, or the node-free NFFT of a side's grid
    front = _plan(grid_L1, none, src) if src else _nnfft_plan(
        geo, (a * N) / n_star, none, w1, w2)
    back = _plan(N, none, tgt) if tgt else _stage2(geo, w1, b, w2)
    params = (m1, m2, sigma1, sigma2, window1, window2)
    return SincPlan(N, n, a.size, b.size, params, n_star,
                    _MODES[src is not None, tgt is not None], front, W, back)


def _chebyshev_operator(geo, w1, N, n, spec1, tgt, grid_L1):
    # W = S3^T diag(s) G1 (rows j: stage 1's gather at z_j, with weight s_j,
    # and stage 3's spread from z_j, onto rows floor(p_j) + 1 - m ..
    # floor(p_j) + m, ascending in j), made in blocks of rows, each from
    # the nodes whose S3 rows reach it.  G1 has window spec1 (the source
    # grid's, with L1 = grid_L1, or stage 2's), S3 the target grid's tgt or
    # w1; geo and w1 are the plan's NNFFT's, None where it has none
    quad = cc_quadrature(n)
    z, s = quad.points, quad.weights
    if grid_L1:  # the NFFT of degree L1 at -N z / (2 L1), wrapped
        t = -(N / (2.0 * grid_L1)) * z
        t -= np.rint(t)  # exact, and odd in z as W's symmetry needs
    else:  # the stage-2 NFFT of the NNFFT at z / 2
        t, factor = _stage2_rows(geo, w1, 0.5 * z)
        s = s * factor
    if tgt:  # the adjoint NFFT of degree N at -z / 2
        spec3, rows, shift, u = tgt, tgt.n_grid, None, tgt.n_grid * (-0.5 * z)
    else:  # the NNFFT spread at -N z / (2 N*), moved onto 0 .. K-1
        spec3, rows = w1, geo.N1 + 2 * geo.m1
        shift, u = rows // 2, geo.N1 * ((z * (-0.5 * N)) / geo.N)
    p, m = u + (shift or 0), spec3.m
    step = max(_W_NODES, (n + 1) // 8)
    edges = np.unique(np.r_[0, np.mod(np.floor(p[::step]), rows), rows])
    blocks = []
    for r0, r1 in zip(edges[:-1].astype(int), edges[1:].astype(int)):
        lo = np.searchsorted(p, [r0 - m - rows, r1 + m - rows, r0 - m, r1 + m])
        j = np.r_[lo[0]:min(lo[1], lo[2]), lo[2]:lo[3]]  # each node once
        idx, val = stencil_table(spec1, spec1.n_grid * t[j])
        val *= s[j, None]
        s3 = stencil_matrix(*stencil_table(spec3, u[j], shift), rows).T.tocsr()
        blocks.append((s3 @ stencil_matrix(idx, val, spec1.n_grid))[r0:r1])
    W = scipy.sparse.vstack(blocks, format="csr")
    for arr in (W.data, W.indices, W.indptr):
        arr.flags.writeable = False
    return W


def fast_sinc_transform(plan, c):
    """Apply the planned fast sinc transform to ``L1`` finite coefficients
    ``c``; returns ``L2`` complex values."""
    c = as_coefficients(c, plan.L1, "fast_sinc_transform")
    front = plan._front
    if isinstance(front, NnfftPlan):
        c, front = sparse_apply(front.spread, c), front.stage2
    grid = sparse_apply(plan._W, _fill(front, c))
    if plan.mode in (SincMode.EQUISPACED_TARGETS, SincMode.EQUISPACED_BOTH):
        return _crop(plan._back, grid)
    return nfft_trafo(plan._back, grid)  # by the name a tracer rebinds
