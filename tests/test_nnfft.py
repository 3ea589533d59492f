"""Two-stage nonequispaced transform: geometry, accuracy, internal consistency."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.fft
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sincfft import bounds
from sincfft.direct import nndft_direct
from sincfft.errors import ParameterError
from sincfft.nfft import NfftPlan, stencil_table
from sincfft.nnfft import (NnfftGeometry, nnfft_plan, nnfft_trafo,
                           rescale_frequencies)
from sincfft.windows import WindowSpec, phi_eval, phi_hat_eval


def test_geometry_reference_case():
    geo = NnfftGeometry.from_parameters(128, 64, 48, 2.0, 2.0, 4, 4)
    assert geo.N1 == 256
    assert geo.N1 + 2 * geo.m1 == 264
    assert geo.N2 == 528
    assert geo.a == pytest.approx(33 / 32, abs=0)
    assert geo.sigma1 == 2.0
    assert geo.sigma2 == 2.0


def test_geometry_rounds_fine_grid_up_to_even():
    # sigma2 * (N1 + 2 m1) = 1.5 * 262 = 393 is odd -> grid becomes 394
    geo = NnfftGeometry.from_parameters(128, 10, 10, 2.0, 1.5, 3, 3)
    assert geo.N1 == 256
    assert geo.N2 == 394
    assert geo.N2 % 2 == 0
    assert geo.sigma2 == pytest.approx(394 / 262, rel=1e-15)
    assert geo.sigma2_nominal == 1.5
    assert geo.sigma2 >= geo.sigma2_nominal


def test_geometry_rejects():
    with pytest.raises(ParameterError):
        NnfftGeometry.from_parameters(10, 8, 8, 1.5, 2.0, 4, 4)  # sigma1*N odd
    with pytest.raises(ParameterError):
        NnfftGeometry.from_parameters(127, 8, 8, 1.5, 2.0, 4, 4)  # non-integer grid
    with pytest.raises(ParameterError):
        NnfftGeometry.from_parameters(128, 8, 8, 1.0, 2.0, 4, 4)  # sigma1 <= 1
    with pytest.raises(ParameterError):
        NnfftGeometry.from_parameters(128, 0, 8, 2.0, 2.0, 4, 4)
    with pytest.raises(ParameterError):
        # second-stage stencil exceeds the alias-free margin (1 - 1/sigma1) N2
        NnfftGeometry.from_parameters(16, 8, 8, 1.25, 1.03125, 2, 3)
    with pytest.raises(ParameterError):
        # within the margin, but 4*m2 = 24 > N2 = 22 for the stage-2 NFFT
        NnfftGeometry.from_parameters(4, 3, 3, 4.0, 1.1, 2, 6)


@settings(max_examples=150, deadline=None)
@given(N=st.integers(min_value=1, max_value=64),
       sigma1=st.sampled_from([1.25, 1.5, 2.0, 3.0, 4.0]),
       sigma2=st.floats(min_value=1.01, max_value=3.0),
       m1=st.integers(min_value=2, max_value=8),
       m2=st.integers(min_value=2, max_value=8),
       window=st.sampled_from(["kaiser-bessel", "bspline"]))
def test_every_accepted_geometry_builds_a_plan(N, sigma1, sigma2, m1, m2, window):
    try:
        geo = NnfftGeometry.from_parameters(N, 3, 3, sigma1, sigma2, m1, m2)
    except ParameterError:
        return
    vmax = 0.5 / geo.a
    plan = nnfft_plan(N, np.array([-vmax, 0.0, vmax]), np.array([-0.5, 0.0, 0.5]),
                      sigma1=sigma1, sigma2=sigma2, m1=m1, m2=m2,
                      window1=window, window2=window)
    assert plan.geometry == geo


def test_rescale_reference_case():
    v = np.array([-0.5, -0.1, 0.0, 0.37, 0.5])
    n_star, v_star = rescale_frequencies(100, v, 2.0, 4)
    assert n_star == 104
    assert np.allclose(v_star, v * 100 / 104, atol=0)
    # the physical frequencies N v are preserved exactly
    assert np.allclose(n_star * v_star, 100 * v, rtol=0, atol=1e-13)
    # and the rescaled data fits the admissible band of the new bandwidth
    a_star = 1 + 2 * 4 / (2.0 * n_star)
    assert np.max(np.abs(v_star)) <= 1 / (2 * a_star)


def test_rescale_returns_a_bandwidth_the_plan_accepts():
    # N + ceil(2 m1/sigma1) = 106 gives sigma1 N* = 159 (odd), 108 gives
    # K = 170 = 2*5*17; 112 is the first admissible bandwidth with K = 176
    v = np.array([-0.5, 0.1, 0.5])
    n_star, v_star = rescale_frequencies(100, v, 1.5, 4)
    assert n_star == 112
    plan = nnfft_plan(n_star, v_star, np.array([0.2]), sigma1=1.5, m1=4)
    assert plan.geometry.N1 + 2 * 4 == 176


def _admissible(n_star, sigma1, m1):
    n1 = Fraction(sigma1) * n_star
    return (n1.denominator == 1 and n1 % 2 == 0 and 4 * m1 <= n1
            and scipy.fft.next_fast_len(int(n1) + 2 * m1) == int(n1) + 2 * m1)


@settings(max_examples=60, deadline=None)
@given(N=st.integers(min_value=1, max_value=10**5),
       sigma1=st.sampled_from([1.25, 1.5, 2.0]),
       m1=st.integers(min_value=2, max_value=12),
       # no subnormal v*: the one-ulp bound is relative
       v=st.lists(st.floats(min_value=-0.5, max_value=0.5).filter(
           lambda t: t == 0.0 or abs(t) >= 1e-300), min_size=1, max_size=5))
def test_rescaled_bandwidth_is_smallest_admissible_with_fast_fft(N, sigma1, m1, v):
    # a few hundred uniform draws next to the generated values, so that a
    # second rounding (v * (N / N*)) shows up as a 2-ulp miss
    v = np.concatenate([v, np.random.default_rng(N).uniform(-0.5, 0.5, 256)])
    n_star, v_star = rescale_frequencies(N, v, sigma1, m1)
    start = N + -(-2 * m1 // Fraction(sigma1))
    assert start <= n_star
    assert _admissible(n_star, sigma1, m1)
    assert not any(_admissible(n, sigma1, m1) for n in range(int(start), n_star))
    plan = nnfft_plan(n_star, v_star, np.array([-0.5, 0.1, 0.5]),
                      sigma1=sigma1, m1=m1, m2=m1)
    K = plan.geometry.N1 + 2 * m1
    assert scipy.fft.next_fast_len(K) == K
    # one rounding: N* v* lies within one ulp of N v
    assert np.all(np.abs(n_star * v_star - N * v) <= np.spacing(np.abs(N * v)))


def test_stencil_matrices_share_the_tables():
    rng = np.random.default_rng(5)
    x = rng.uniform(-0.5, 0.5, 9)
    plan = nnfft_plan(32, rng.uniform(-0.4, 0.4, 7), x, m1=3, m2=3)
    geo = plan.geometry
    K = geo.N1 + 2 * 3
    assert plan.spread.shape == (K, 7)
    # the second stage is the NFFT of degree K at -x/sigma1 on the fine grid
    stage2 = plan.stage2
    assert isinstance(stage2, NfftPlan)
    assert (stage2.degree, stage2.n_over) == (K, geo.N2)
    assert stage2.window == plan.window2
    assert np.array_equal(stage2.spread_idx, stencil_table(
        stage2.window, stage2.n_over * (x * (-geo.N / geo.N1)))[0])
    assert stage2.gather.shape == (9, geo.N2)
    for op, idx, val in ((plan.spread, plan.spread_idx, plan.spread_val),
                         (stage2.gather, stage2.spread_idx, stage2.spread_val)):
        assert idx.dtype == np.int32
        assert np.shares_memory(op.indices, idx) and np.shares_memory(op.data, val)


@settings(max_examples=80, deadline=None)
@given(sigma1=st.sampled_from([1.25, 1.5, 2.0]),
       k=st.integers(min_value=1, max_value=20000),
       m1=st.integers(min_value=2, max_value=12))
def test_spread_stays_on_the_coarse_grid(sigma1, k, m1):
    # N a multiple of the smallest N with sigma1 N even; |v| up to 1/(2a)
    N = {1.25: 8, 1.5: 4, 2.0: 1}[sigma1] * k
    assume(4 * m1 <= sigma1 * N)
    geo = NnfftGeometry.from_parameters(N, 3, 1, sigma1, 2.0, m1, 2)
    vmax = 0.5 / geo.a
    plan = nnfft_plan(N, np.array([-vmax, 0.0, vmax]), np.array([0.25]),
                      sigma1=sigma1, m1=m1, m2=2)
    K = geo.N1 + 2 * m1
    assert np.all((plan.spread_idx >= 0) & (plan.spread_idx < K))


def test_rescale_then_transform_matches_direct():
    rng = np.random.default_rng(31)
    N, M1, M2 = 60, 25, 30
    v = rng.uniform(-0.5, 0.5, M1)
    x = rng.uniform(-0.5, 0.5, M2)
    f = rng.uniform(-1, 1, M1) + 1j * rng.uniform(-1, 1, M1)
    n_star, v_star = rescale_frequencies(N, v, 2.0, 6)
    plan = nnfft_plan(n_star, v_star, x, m1=6, m2=6)
    out = nnfft_trafo(plan, f)
    ref = nndft_direct(f, v, x, N)
    assert np.max(np.abs(out - ref)) <= 1e-8 * np.sum(np.abs(f))


@pytest.mark.parametrize("sigma", [1.25, 1.5, 2.0])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_error_dominated_by_bound(sigma, m):
    rng = np.random.default_rng(1000 * m + int(4 * sigma))
    N, M1, M2 = 64, 40, 50
    geo = NnfftGeometry.from_parameters(N, M1, M2, sigma, sigma, m, m)
    v = rng.uniform(-0.5 / geo.a, 0.5 / geo.a, M1)
    x = rng.uniform(-0.5, 0.5, M2)
    f = rng.uniform(-1, 1, M1) + 1j * rng.uniform(-1, 1, M1)
    plan = nnfft_plan(N, v, x, sigma1=sigma, sigma2=sigma, m1=m, m2=m)
    err = np.max(np.abs(nnfft_trafo(plan, f) - nndft_direct(f, v, x, N)))
    assert err <= bounds.bound_nnfft_sinh(N, sigma, sigma, m, m) * np.sum(np.abs(f))


def test_single_frequency_wave():
    v = np.array([0.21])
    x = np.linspace(-0.5, 0.5, 33)
    plan = nnfft_plan(32, v, x, m1=6, m2=6)
    out = nnfft_trafo(plan, np.array([1.0 + 0j]))
    ref = np.exp(-2j * np.pi * 32 * v[0] * x)
    assert np.max(np.abs(out - ref)) < 1e-9


def _slow_reference(geo, v, x, f):
    """The two-stage algorithm written out with loops, the window functions
    and an O(K N2) DFT, without the plan's tables: spread onto the coarse
    grid l/N1 (l = -K/2 .. K/2-1) with phi_1, divide by N2 phi_hat_2(l),
    DFT onto the fine grid t/N2, gather with phi_2 at the nodes
    -x_j/sigma1 (periodically) and divide by N1 phi_hat_1(N x_j)."""
    K = geo.N1 + 2 * geo.m1
    w1 = WindowSpec("sinh", geo.m1, geo.sigma1, geo.N1)
    w2 = WindowSpec("sinh", geo.m2, geo.sigma2, geo.N2)
    ell = np.arange(K) - K // 2
    g = np.zeros(K, dtype=complex)
    for k in range(geo.M1):
        g += f[k] * phi_eval(w1, ell / geo.N1 - v[k])
    ghat = g / (geo.N2 * phi_hat_eval(w2, ell))
    t = np.arange(geo.N2)
    h = np.exp(2j * np.pi * np.outer(t, ell) / geo.N2) @ ghat
    out = np.zeros(geo.M2, dtype=complex)
    for j in range(geo.M2):
        y = x[j] * (-geo.N / geo.N1)
        out[j] = np.sum(h * phi_eval(w2, np.mod(y - t / geo.N2 + 0.5, 1.0) - 0.5))
    return out / (geo.N1 * phi_hat_eval(w1, geo.N * x))


def test_vectorized_stages_match_loop_reference():
    rng = np.random.default_rng(77)
    N, M1, M2 = 16, 9, 11
    geo = NnfftGeometry.from_parameters(N, M1, M2, 2.0, 2.0, 3, 3)
    v = rng.uniform(-0.5 / geo.a, 0.5 / geo.a, M1)
    x = rng.uniform(-0.5, 0.5, M2)
    f = rng.uniform(-1, 1, M1) + 1j * rng.uniform(-1, 1, M1)
    plan = nnfft_plan(N, v, x, sigma1=2.0, sigma2=2.0, m1=3, m2=3)
    fast = nnfft_trafo(plan, f)
    slow = _slow_reference(geo, v, x, f)
    assert np.max(np.abs(fast - slow)) < 1e-12 * np.sum(np.abs(f))


def test_plan_rejects_out_of_band_frequencies():
    geo = NnfftGeometry.from_parameters(32, 4, 4, 2.0, 2.0, 4, 4)
    v_bad = np.array([0.5])  # legal for rescaled data only
    assert 0.5 > 0.5 / geo.a
    with pytest.raises(ParameterError, match="rescale_frequencies"):
        nnfft_plan(32, v_bad, np.zeros(4))
    with pytest.raises(ParameterError):
        nnfft_plan(32, np.zeros(4), np.array([0.7]))


def test_odd_point_counts_are_allowed():
    # node/frequency counts have no parity constraint
    plan = nnfft_plan(16, np.array([0.1, -0.2, 0.3]), np.array([0.4, -0.4]),
                      m1=3, m2=3)
    out = nnfft_trafo(plan, np.ones(3, dtype=complex))
    assert out.shape == (2,)


def test_trafo_allocates_only_its_grids_and_output():
    # one apply holds the coarse grid (K), the fine grid (N2, transformed in
    # place) and the output (M2): no scaling pass, no FFT output copy
    rng = np.random.default_rng(41)
    N, M = 4096, 4096
    n_star, v = rescale_frequencies(N, rng.uniform(-0.5, 0.5, M), 2.0, 6)
    plan = nnfft_plan(n_star, v, rng.uniform(-0.5, 0.5, M), m1=6, m2=6)
    f = rng.uniform(-1, 1, M) + 1j * rng.uniform(-1, 1, M)
    nnfft_trafo(plan, f)  # first call: one-time costs
    tracemalloc.start()
    try:
        nnfft_trafo(plan, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    geo = plan.geometry
    assert peak <= 1.1 * 16 * (geo.N1 + 2 * geo.m1 + geo.N2 + geo.M2)
