"""Two-stage nonequispaced transform: geometry, accuracy, internal consistency."""

import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.fft
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sincfft import bounds, nfft, nnfft, windows
from sincfft.direct import nndft_direct
from sincfft.errors import ParameterError
from sincfft.nfft import NfftPlan, grid_length, stencil_table
from sincfft.nnfft import (NnfftGeometry, fast_bandwidth, nnfft_plan,
                           nnfft_trafo, rescale_frequencies)
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
    assert geo.sigma2 >= 1.5


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


def test_large_geometry_takes_its_second_grid_back():
    # past N2 ~ 10^7, (N2 / K) * K misses N2 by more than 1e-9: the geometry
    # and its stage-2 NFFT (grid_length at sigma2 = N2 / K) still take it
    geo = NnfftGeometry.from_parameters(5000014, 1, 1, 2.0, 1.25, 4, 4)
    assert geo.N2 == 12500046
    for sigma2 in (1.1, 1.25, 1.3):
        for N in range(4_200_000, 4_220_000, 2):
            geo = NnfftGeometry.from_parameters(N, 1, 1, 2.0, sigma2, 4, 4)
            assert grid_length(geo.N1 + 8, geo.sigma2, 4) == geo.N2, (N, sigma2)
    # a sigma off the integer by far more than rounding stays rejected
    assert grid_length(10**7, 1.25 + 1e-13, 4) is None


@settings(max_examples=150, deadline=None)
@given(N=st.integers(min_value=1, max_value=64),
       sigma1=st.sampled_from([1.25, 1.5, 2.0, 3.0, 4.0]),
       sigma2=st.floats(min_value=1.01, max_value=3.0),
       m1=st.integers(min_value=2, max_value=8),
       m2=st.integers(min_value=2, max_value=8),
       window=st.sampled_from(["sinh", "bspline"]))
def test_every_accepted_geometry_builds_a_plan(N, sigma1, sigma2, m1, m2, window):
    try:
        geo = NnfftGeometry.from_parameters(N, 3, 3, sigma1, sigma2, m1, m2)
    except ParameterError:
        return
    # sinh where its range 5/4 <= sigma <= 2 holds, the B-spline at any sigma
    window1, window2 = (window if 1.25 <= s <= 2.0 else "bspline"
                        for s in (sigma1, geo.sigma2))
    vmax = 0.5 / geo.a
    plan = nnfft_plan(N, np.array([-vmax, 0.0, vmax]), np.array([-0.5, 0.0, 0.5]),
                      sigma1=sigma1, sigma2=sigma2, m1=m1, m2=m2,
                      window1=window1, window2=window2)
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


@pytest.mark.parametrize("sigma1", [1.25, 1.5, 1.75, 2.0, 3.0, 4.0])
def test_fast_bandwidth_is_the_first_admissible_of_the_scan(sigma1):
    # the scan over every N* >= N + ceil(2 m1/sigma1) as the oracle; the
    # starts grow with N, so one pass over N* serves all N of one m1
    for m1 in (2, 3, 4, 6, 8, 10):
        n = 0
        for N in [*range(1, 3000), 16384, 65536, 100000]:
            n = max(n, N + int(-(-2 * m1 // Fraction(sigma1))))
            while not _admissible(n, sigma1, m1):
                n += 1
            assert fast_bandwidth(N, sigma1, m1) == n, (N, m1)


def _count_next_fast_len(monkeypatch):
    calls, fast_len = [], scipy.fft.next_fast_len

    def counted(target, *args, **kwargs):
        calls.append(target)
        return fast_len(target, *args, **kwargs)
    monkeypatch.setattr(scipy.fft, "next_fast_len", counted)
    return calls


@pytest.mark.parametrize("sigma1, most", [(1e14, 100), (1e9, 100001)])
def test_fast_bandwidth_skips_the_lengths_of_a_ruled_out_bandwidth(
        monkeypatch, sigma1, most):
    # with so large a sigma1 many fast lengths round to one N*: those of an
    # N* already ruled out take no call
    calls = _count_next_fast_len(monkeypatch)
    with pytest.raises(ParameterError):
        fast_bandwidth(10, sigma1, 2)
    assert 0 < len(calls) <= most


@pytest.mark.parametrize("sigma1", [1.5, 2.0])
def test_fast_bandwidth_calls_no_more_than_a_walk_over_every_fast_length(
        monkeypatch, sigma1):
    # the oracle walks every fast length from sigma1 * start on, one call
    # each, up to the K = sigma1 N* + 2 m1 of the result
    fast_len = scipy.fft.next_fast_len
    calls = _count_next_fast_len(monkeypatch)
    for m1 in (2, 6):
        for N in range(16, 65537):
            calls.clear()
            K_end = sigma1 * fast_bandwidth(N, sigma1, m1) + 2 * m1
            start = N + -(-2 * m1 // Fraction(sigma1))
            K, walk = fast_len(int(sigma1 * start) + 2 * m1), 1
            while K < K_end:
                K, walk = fast_len(K + 1), walk + 1
            assert len(calls) <= walk, (N, m1)


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


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "FOUND: the bounds count truncation only, and the float64 rounding "
    "floor rises with m; here the measured error is about 1e-10 of sum|f| "
    "against bound_nnfft_sinh = 1.0e-14 (ROADMAP item 8)"))
def test_rounding_stays_below_the_nnfft_bound():
    rng = np.random.default_rng(0)
    N, sigma1, m = 256, 1.25, 14
    v, x = rng.uniform(-0.5, 0.5, 64), rng.uniform(-0.5, 0.5, 32)
    f = rng.uniform(-1, 1, 64) + 1j * rng.uniform(-1, 1, 64)
    n_star, v_star = rescale_frequencies(N, v, sigma1, m)
    plan = nnfft_plan(n_star, v_star, x, sigma1=sigma1, sigma2=2.0, m1=m, m2=m)
    err = np.max(np.abs(nnfft_trafo(plan, f) - nndft_direct(f, v, x, N)))
    bound = bounds.bound_nnfft_sinh(n_star, sigma1, plan.geometry.sigma2, m, m)
    assert err <= bound * np.sum(np.abs(f))


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


def test_plan_leaves_the_callers_frequencies_unchanged():
    # the plan clips a frequency 5e-13 past 1/(2a) in its own copy of v
    geo = NnfftGeometry.from_parameters(32, 3, 4, 2.0, 2.0, 4, 4)
    v = np.array([-0.3, 0.1, 0.5 / geo.a + 5e-13])
    kept = v.copy()
    plan = nnfft_plan(32, v, np.zeros(4))
    assert np.array_equal(v, kept)
    clipped = nnfft_plan(32, np.minimum(v, 0.5 / geo.a), np.zeros(4))
    assert np.array_equal(plan.spread_val, clipped.spread_val)
    assert np.array_equal(plan.spread_idx, clipped.spread_idx)


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


@pytest.fixture
def spread_threads(monkeypatch):
    """Plans take the two-thread path wherever their sizes allow, whatever
    the CPU count; the list holds the thread of every spread build."""
    monkeypatch.setattr(nnfft, "_affinity", lambda pid: {0, 1})
    real, threads = nnfft.stencil_table, []

    def spread(*args, **kwargs):
        threads.append(threading.get_ident())
        return real(*args, **kwargs)
    monkeypatch.setattr(nnfft, "stencil_table", spread)
    return threads


def _threaded_problem(rng, N=1024, M1=5001, M2=4097, sigma=2.0, m=6):
    # both sides past _THREAD_NODES; 4097 nodes leave one gather row past
    # whole blocks of window rows, where a one-row product would round apart
    assert min(M1, M2) >= nnfft._THREAD_NODES
    n_star, v = rescale_frequencies(N, rng.uniform(-0.5, 0.5, M1), sigma, m)
    f = rng.standard_normal(M1) + 1j * rng.standard_normal(M1)
    return n_star, v, rng.uniform(-0.5, 0.5, M2), f


@pytest.mark.parametrize("window", ["sinh", "bspline"])
def test_a_plan_built_on_two_threads_equals_the_serial_plan(window, spread_threads,
                                                            monkeypatch):
    # both sides fit the one cached coefficient matrix of (window, 6, 2.0)
    # at once, switching threads every microsecond
    n_star, v, x, f = _threaded_problem(np.random.default_rng(12))
    kw = dict(m1=6, m2=6, window1=window, window2=window)
    windows._row_coefficients.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = nnfft_plan(n_star, v, x, **kw)
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(nnfft, "_THREAD_NODES", 10**9)
    serial = nnfft_plan(n_star, v, x, **kw)
    assert spread_threads[0] != threading.get_ident() == spread_threads[1]
    for a, b in ((threaded, serial), (threaded.stage2, serial.stage2)):
        assert np.array_equal(a.spread_idx, b.spread_idx)
        assert np.array_equal(a.spread_val, b.spread_val)
    assert np.array_equal(nnfft_trafo(threaded, f), nnfft_trafo(serial, f))


@pytest.mark.parametrize("M1, M2, cpus", [(4095, 5000, 2), (5000, 4095, 2),
                                          (5000, 5000, 1)])
def test_small_plans_and_single_cpus_build_in_series(M1, M2, cpus, spread_threads,
                                                     monkeypatch):
    monkeypatch.setattr(nnfft, "_affinity", lambda pid: set(range(cpus)))
    n_star, v, x, _ = _threaded_problem(np.random.default_rng(3), M1=5000, M2=5000)
    nnfft_plan(n_star, v[:M1], x[:M2], m1=6, m2=6)
    assert spread_threads == [threading.get_ident()]


def test_an_error_on_either_side_propagates_once_both_sides_end(spread_threads,
                                                                monkeypatch):
    n_star, v, x, _ = _threaded_problem(np.random.default_rng(13))
    before = threading.active_count()

    def fail(message):
        def raise_(*args, **kwargs):
            raise RuntimeError(message)
        return raise_
    with monkeypatch.context() as mp:  # the worker's side
        mp.setattr(nnfft, "stencil_table", fail("spread"))
        with pytest.raises(RuntimeError, match="spread"):
            nnfft_plan(n_star, v, x, m1=6, m2=6)
    assert threading.active_count() == before
    # the calling thread's side, while the worker is still busy
    real, ended = nnfft.stencil_table, []

    def slow_spread(*args, **kwargs):
        time.sleep(0.2)
        ended.append(real(*args, **kwargs))
        return ended[-1]
    monkeypatch.setattr(nnfft, "stencil_table", slow_spread)
    monkeypatch.setattr(nnfft, "phi_hat_eval", fail("stage 2"))
    with pytest.raises(RuntimeError, match="stage 2"):
        nnfft_plan(n_star, v, x, m1=6, m2=6)
    assert len(ended) == 1 and threading.active_count() == before
    assert spread_threads[-1] != threading.get_ident()


def test_window_transforms_run_on_the_calling_thread(spread_threads, monkeypatch):
    # a tracer that rebinds these names assumes one thread; the stage-2 grid
    # (degree K = 2012 at N = 1000, m1 = 6) is planned afresh, so its
    # phi_hat runs too
    calls = []

    def recorded(module, real):
        def phi_hat_eval(*args):
            calls.append((module, threading.get_ident()))
            return real(*args)
        return phi_hat_eval
    for module in (nnfft, nfft):
        monkeypatch.setattr(module, "phi_hat_eval", recorded(module, module.phi_hat_eval))
    rng = np.random.default_rng(14)
    nnfft_plan(1000, rng.uniform(-0.45, 0.45, 4200), rng.uniform(-0.5, 0.5, 4300),
               m1=6, m2=6)
    assert {m for m, _ in calls} == {nnfft, nfft}
    assert {ident for _, ident in calls} == {threading.get_ident()}
    assert spread_threads[0] != threading.get_ident()


@pytest.mark.parametrize("window", ["sinh", "bspline"])
def test_permuting_the_nodes_permutes_the_output_bit_for_bit(window, spread_threads):
    # each gather row comes from its own node and its own phi_hat_1 factor
    rng = np.random.default_rng(15)
    n_star, v, x, f = _threaded_problem(rng)
    kw = dict(m1=6, m2=6, window1=window, window2=window)
    out = nnfft_trafo(nnfft_plan(n_star, v, x, **kw), f)
    for p in (rng.permutation(x.size) for _ in range(3)):
        assert np.array_equal(nnfft_trafo(nnfft_plan(n_star, v, x[p], **kw), f), out[p])
    assert threading.get_ident() not in spread_threads


def _rounding_case(data, sigma, m_top):
    # a drawn plan past _THREAD_NODES (window, m = 2..m_top, N = 16..1024):
    # a function that plans and applies such a plan, its inputs, its
    # output, and rho sum|f|, rho = u 2 m1 / (N1 phi_hat_1(N/2)) the
    # rounding of one deconvolution
    m = data.draw(st.integers(2, m_top), "m")
    window = data.draw(st.sampled_from(["sinh", "bspline"]), "window")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
    n_star, v, x, f = _threaded_problem(
        rng, N=2 * data.draw(st.integers(8, 512), "N"), M1=data.draw(
            st.integers(4096, 4400), "M1"), M2=4200, sigma=sigma, m=m)
    kw = dict(sigma1=sigma, sigma2=sigma, m1=m, m2=m, window1=window, window2=window)
    try:
        plan = nnfft_plan(n_star, v, x, **kw)
    except ParameterError:  # a small N with a large m admits no NNFFT
        assume(False)
    rho = 2.0**-53 * 2 * m / (plan.geometry.N1 * phi_hat_eval(plan.window1, n_star / 2))

    def transform(v, x, f):
        return nnfft_trafo(nnfft_plan(n_star, v, x, **kw), f)
    return transform, (v, x, f), nnfft_trafo(plan, f), rho * np.sum(np.abs(f)), rng


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sigma=st.sampled_from([1.25, 1.5, 2.0]), data=st.data())
def test_permuting_the_frequencies_moves_the_output_by_rounding(sigma, data,
                                                                spread_threads):
    """Permuting (v, f) together only reorders the sums onto the coarse
    grid: the output moves by at most rho sum|f|, rho = u 2 m1 / (N1
    phi_hat_1(N/2)), the rounding of one deconvolution (at most 0.26 rho
    measured at these sizes)."""
    transform, (v, x, f), out, tol, rng = _rounding_case(
        data, sigma, 7 if sigma == 1.25 else 8)
    p = rng.permutation(v.size)
    assert np.max(np.abs(transform(v[p], x, f[p]) - out)) <= tol
    assert threading.get_ident() not in spread_threads


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sigma=st.sampled_from([1.25, 1.5, 2.0]), data=st.data())
def test_reflecting_frequencies_and_nodes_moves_the_output_by_rounding(
        sigma, data, spread_threads):
    """(v, x) -> (-v, -x) leaves every product v_k x_j unchanged: the output
    moves by at most rho sum|f| (at most 0.30 rho measured at these sizes,
    m <= 6 at sigma = 1.25, where m = 7 reached 0.87 rho)."""
    transform, (v, x, f), out, tol, _ = _rounding_case(
        data, sigma, 6 if sigma == 1.25 else 8)
    assert np.max(np.abs(transform(-v, -x, f) - out)) <= tol
    assert threading.get_ident() not in spread_threads


def test_a_plan_on_two_threads_peaks_below_a_serial_plan(spread_threads, monkeypatch):
    # in the worst order, both tables made at once and the spread holding its
    # last temporary until stage 2 has ended, the plan peaks below its tables
    # plus 7.5 arrays of M floats (7.15 measured; 7.63 for the serial build
    # that kept u and the fractions to its end, 10.15 for two such at once)
    rng = np.random.default_rng(16)
    M = 65536
    n_star, v, x, _ = _threaded_problem(rng, N=32768, M1=M, M2=M, m=8)
    twin = nnfft_plan(n_star, v, x, m1=8, m2=8)  # one-time costs, shared grid
    caller, stage2_ended = threading.get_ident(), threading.Event()
    both_made = threading.Barrier(2, timeout=10)
    rows, stage2 = nfft._rows, nnfft._stage2

    def spread_rows_last(*args):
        out = rows(*args)
        both_made.wait()
        if threading.get_ident() != caller:
            stage2_ended.wait(10)
        return out

    def stage2_then_signal(*args):
        try:
            return stage2(*args)
        finally:
            stage2_ended.set()
    monkeypatch.setattr(nfft, "_rows", spread_rows_last)
    monkeypatch.setattr(nnfft, "_stage2", stage2_then_signal)
    tracemalloc.start()
    try:
        plan = nnfft_plan(n_star, v, x, m1=8, m2=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = (twin.spread_idx.nbytes + twin.spread_val.nbytes
              + twin.stage2.spread_idx.nbytes + twin.stage2.spread_val.nbytes)
    assert plan.stage2._grid is twin.stage2._grid
    assert peak <= tables + 7.5 * 8 * M
    assert spread_threads[-1] != caller
