"""NNFFT: exponential sums nonequispaced in both space and frequency.

Approximates, for arbitrary frequencies ``v_k`` and spatial nodes ``x_j``,

    f(x_j) = sum_k f_k e^{-2 pi i N v_k x_j},

by spreading each frequency onto a first oversampled grid of
``K = N1 + 2 m1`` points (window ``phi_1``), evaluating the trigonometric
polynomial of degree ``K`` these grid values define at the nodes
``x_j / sigma1`` with a classical NFFT (window ``phi_2`` on its grid of
``N2`` points), and finally dividing by ``N1 phi_hat_1(N x_j)``.  Cost is
``O(m1 M1 + N2 log N2 + m2 M2)`` instead of ``O(M1 M2)``.

The spread is one sparse stencil matrix built at plan time by
:func:`~sincfft.nfft.stencil_table`, which makes every window table; the
second stage is an :class:`~sincfft.nfft.NfftPlan` whose gather rows carry
the final division, so an apply is two sparse products around one FFT.
Where the CPU affinity allows two CPUs, a large plan builds the spread on
one extra thread, which ends with the call, while the calling thread builds
the second stage; the tables are bit for bit those of a serial build.

Frequencies must satisfy ``|v_k| <= 1/(2a)`` with ``a = 1 + 2 m1 / N1``;
:func:`rescale_frequencies` maps data given on ``[-1/2, 1/2]`` onto an
admissible configuration with a slightly enlarged bandwidth ``N*``, the
smallest admissible ``N* >= N + ceil(2 m1/sigma1)`` with a fast FFT length.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import scipy.fft

from . import fft_core
from .errors import ParameterError, PositivityError, integer
from .nfft import (_DOMAIN_TOL, _plan, as_coefficients, as_nodes,
                   grid_length, nfft_trafo, stencil_matrix, stencil_table)
# phi_eval stays importable here for tracers that rebind it per module
from .windows import WindowSpec, check_window, phi_eval, phi_hat_eval

#: Nodes each side needs before a plan builds its spread on a second thread
_THREAD_NODES = 4096
#: The CPUs this process may run on (any, where the OS keeps no affinity)
_affinity = getattr(os, "sched_getaffinity", lambda pid: range(os.cpu_count() or 1))


@dataclass(frozen=True)
class NnfftGeometry:
    """Grid sizes and derived constants for one NNFFT configuration.

    ``sigma2`` is the effective second oversampling ``N2 / K``: the fine
    grid length ``sigma2 * K`` rounded up to an even integer (a length
    within 1e-9 of an integer counts as that integer).
    """

    N: int
    M1: int
    M2: int
    sigma1: float
    sigma2: float
    m1: int
    m2: int
    N1: int
    N2: int
    a: float

    @classmethod
    def from_parameters(cls, N, M1, M2, sigma1, sigma2, m1, m2):
        for name, val in (("N", N), ("M1", M1), ("M2", M2)):
            integer(val, name)
        check_window(None, m1, sigma1, "1")
        check_window(None, m2, sigma2, "2")

        N1 = grid_length(N, sigma1, m1)
        if N1 is None:
            raise ParameterError(
                f"sigma1*N must be an even integer >= 4*m1, got "
                f"sigma1*N = {sigma1 * N} with m1 = {m1}")

        K = N1 + 2 * m1
        n2f = sigma2 * K
        if not math.isfinite(n2f):
            raise ParameterError(f"sigma2 * K must be finite, got sigma2 = {sigma2}")
        N2 = int(round(n2f))
        if abs(n2f - N2) > 1e-9:
            N2 = math.ceil(n2f)
        N2 += N2 % 2
        sigma2_eff = N2 / K
        if 4 * m2 > N2:  # stage 2 is the NFFT of degree K on the N2-point grid
            raise ParameterError(f"need 4*m2 <= N2, got 4*{m2} > {N2}")

        # 1 - 1/sigma1 evaluated with the exact grid ratio N/N1
        if 2 * m2 > (1.0 - N / N1) * N2 + 1e-9:
            raise ParameterError(
                f"need 2*m2 <= (1 - 1/sigma1)*N2, got 2*{m2} > {(1.0 - N / N1) * N2:g}")

        a = K / N1
        return cls(int(N), int(M1), int(M2), N1 / N, sigma2_eff,
                   int(m1), int(m2), N1, N2, a)


class NnfftPlan:
    """Precomputed stages for one (frequencies, nodes) pair.

    ``spread_idx``/``spread_val`` (int32/float, shape (M1, 2 m1)) hold the
    coarse-grid positions ``0..K-1`` (``K = N1 + 2 m1``) and ``phi_1``
    values of each frequency; ``spread`` is the K x M1 CSC matrix made of
    them, sharing their memory.  ``stage2`` is the NFFT of degree ``K`` at
    the nodes ``-x_j / sigma1`` with window ``window2``: the minus sign
    turns its ``e^{+2 pi i l t}`` into the ``e^{-2 pi i l x_j / sigma1}``
    of the transform.  It is no bare NFFT: row ``j`` of its gather holds the
    ``phi_2`` values times ``1/(N1 phi_hat_1(N x_j))``, the final scaling
    of the transform.
    """

    def __init__(self, geometry, window1, spread_idx, spread_val, stage2):
        self.geometry = geometry
        self.window1 = window1
        self.window2 = stage2.window
        self.spread_idx = spread_idx
        self.spread_val = spread_val
        self.stage2 = stage2
        self.spread = stencil_matrix(spread_idx, spread_val, stage2.degree).T


def fast_bandwidth(N, sigma1, m1):
    """Smallest ``N* >= N + ceil(2 m1/sigma1)`` such that ``N1 = sigma1 N*``
    is an even integer with ``4 m1 <= N1`` (as :class:`NnfftGeometry`
    requires) and ``K = N1 + 2 m1`` is a fast FFT length
    (``next_fast_len(K) == K``); with ``sigma2 = 2`` the FFT length ``2K``
    then has no prime factor above 11.  An ``N*`` above four times
    ``max(N + ceil(2 m1/sigma1), ceil(4 m1/sigma1))`` raises
    :class:`ParameterError`: it would plan grids far larger than ``N``
    asks for."""
    check_window(None, m1, sigma1, "1")
    start = integer(N, "fast_bandwidth: N") + math.ceil(2 * m1 / sigma1)
    if not sigma1 * start < 2.0 ** 53:
        raise ParameterError(f"sigma1 * N must be below 2^53, got {sigma1} * {N}")
    cap = 4 * max(start, math.ceil(4 * m1 / sigma1))
    # K grows with N*: fast lengths from sigma1 * start on, each with the
    # one N* that could give it, up to the cap and below 2^53, where
    # floats stop holding every length; only K = N1 + 2 m1 gives an N*, so
    # the scan goes on there, at the next N*'s K, or where its lengths begin
    K = scipy.fft.next_fast_len(int(sigma1 * start) + 2 * m1)
    while K < 2 ** 53 and (n_star := round((K - 2 * m1) / sigma1)) <= cap:
        N1 = grid_length(n_star, sigma1, m1) if n_star >= start else None
        if N1 == K - 2 * m1:
            return n_star
        if N1 is None or N1 + 2 * m1 < K:
            n_next = max(n_star + 1, start)
            N1 = grid_length(n_next, sigma1, m1) or int(sigma1 * (n_next - 1)) + 1
        K = scipy.fft.next_fast_len(max(N1 + 2 * m1, K + 1))
    raise ParameterError(f"no admissible bandwidth up to {cap} for sigma1={sigma1}; with "
                         "1.25, 1.5, 1.75 or 2, sigma1 N is even at every N divisible by 8")


def rescale_frequencies(N, v, sigma1, m1):
    """Shrink frequencies from ``[-1/2, 1/2]`` into the admissible band.

    Returns ``(N_star, v_star)``: ``N_star`` is the smallest admissible
    bandwidth ``>= N + ceil(2 m1 / sigma1)`` with a fast FFT length
    (:func:`fast_bandwidth`) and ``v_star = (v * N) / N_star``, which keeps
    every product ``N_star * v_star_k`` within one rounding of ``N * v_k``
    and guarantees ``|v_star| <= 1/(2 a_star)`` for the enlarged bandwidth.
    A two-decimal ``sigma1`` can put ``N_star`` past the cap of
    :func:`fast_bandwidth`, which raises (``N = 16``, ``sigma1 = 1.81``).
    """
    integer(N, "rescale_frequencies: N")
    v = as_nodes(v, "rescale_frequencies: v")
    n_star = fast_bandwidth(N, sigma1, m1)
    return n_star, (v * N) / n_star


def nnfft_plan(N, v, x, *, sigma1=2.0, sigma2=2.0, m1=4, m2=4,
               window1="sinh", window2="sinh"):
    """Build an :class:`NnfftPlan`.

    Parameters
    ----------
    N : int
        Bandwidth; ``sigma1 * N`` must be an even integer.
    v : array, shape (M1,)
        Frequencies with ``|v| <= 1/(2a)``, ``a = 1 + 2 m1/(sigma1 N)``.
        Data on the full interval ``[-1/2, 1/2]`` must be passed through
        :func:`rescale_frequencies` first.
    x : array, shape (M2,)
        Spatial nodes in ``[-1/2, 1/2]``.
    sigma1, sigma2 : float
        Oversampling factors of the two stages.
    m1, m2 : int
        Window cut-offs.
    window1, window2 : str
        Window shapes for the spreading and gathering stage.

    From 4096 frequencies and nodes on, and where the CPU affinity allows
    two, the spread is built on one extra thread that ends with the call:
    the plan is bit for bit the serial one.
    """
    v = as_nodes(v, "nnfft_plan: v")
    x = as_nodes(x, "nnfft_plan: x")
    geo = NnfftGeometry.from_parameters(N, v.size, x.size,
                                        float(sigma1), float(sigma2), m1, m2)
    w1 = WindowSpec(window1, geo.m1, geo.sigma1, geo.N1)
    w2 = WindowSpec(window2, geo.m2, geo.sigma2, geo.N2)
    return _nnfft_plan(geo, v, x, w1, w2)


def _nnfft_plan(geo, v, x, w1, w2):
    # nnfft_plan on geo with windows w1, w2 at checked x and v, a copy of
    # the caller's that it clips in place; an empty x leaves out the
    # gather, for transforms that plan only the spread of an NNFFT
    geo = replace(geo, M1=v.size, M2=x.size)
    vmax = 0.5 / geo.a
    if not np.all(np.abs(v) <= vmax + _DOMAIN_TOL):
        raise ParameterError(
            "nnfft_plan: frequencies exceed 1/(2a) = {:.6g}; apply "
            "rescale_frequencies to map [-1/2, 1/2] data into the band".format(vmax))
    np.clip(v, -vmax, vmax, out=v)

    # spreading table: phi_1 on the 2*m1 coarse-grid points around N1 v_k,
    # moved by K/2 onto 0..K-1, which |v_k| <= 1/(2a) keeps them inside
    def spread():
        return stencil_table(w1, geo.N1 * v, shift=(geo.N1 + 2 * geo.m1) // 2)
    if min(v.size, x.size) < _THREAD_NODES or len(_affinity(0)) < 2:
        return NnfftPlan(geo, w1, *spread(), _stage2(geo, w1, x, w2))
    # the two tables from disjoint nodes, the spread on a worker: leaving
    # the block waits for it, also when stage 2 raises
    with ThreadPoolExecutor(1) as pool:
        table = pool.submit(spread)
        stage2 = _stage2(geo, w1, x, w2)
    return NnfftPlan(geo, w1, *table.result(), stage2)


def _stage2(geo, w1, x, w2):
    # the second stage: the NFFT of degree K with window w2 at _stage2_rows,
    # whose factors ride in the rows of its gather
    t, factor = _stage2_rows(geo, w1, x) if x.size else (x, None)
    stage2 = _plan(geo.N1 + 2 * geo.m1, t, w2)
    if x.size:  # at no nodes stage2 is the shared node-free plan
        stage2.spread_val *= factor[:, None]
    return stage2


def _stage2_rows(geo, w1, x):
    # the stage-2 nodes -x_j N/N1 (-x_j/sigma1 with the exact grid ratio)
    # and the factors 1/(N1 phi_hat_1(N x_j)) of their gather rows
    hat1 = np.asarray(phi_hat_eval(w1, geo.N * x), dtype=float)
    if np.any(hat1 <= 0.0):
        raise PositivityError(
            "nnfft_plan: phi_hat_1(N x_j) must be strictly positive at every node")
    hat1 *= geo.N1
    return x * (-geo.N / geo.N1), np.reciprocal(hat1, out=hat1)


def nnfft_trafo(plan, f):
    """Evaluate ``sum_k f_k e^{-2 pi i N v_k x_j}`` at all plan nodes for
    ``M1`` finite coefficients ``f``; returns ``M2`` complex values."""
    f = as_coefficients(f, plan.geometry.M1, "nnfft_trafo")
    return nfft_trafo(plan.stage2, fft_core.sparse_apply(plan.spread, f))
