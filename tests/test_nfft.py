"""Gridding NFFT: accuracy against the exact polynomial, adjoint exactness."""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sincfft import bounds
from sincfft.direct import ndft_direct
from sincfft.errors import ParameterError, PositivityError
from sincfft.nfft import block_count, nfft_adjoint, nfft_plan, nfft_trafo
from sincfft.nnfft import NnfftGeometry, nnfft_plan, nnfft_trafo
from sincfft.windows import phi_eval, window_kinds


def _random_instance(rng, N, M):
    x = rng.uniform(-0.5, 0.5, M)
    c = rng.uniform(-1, 1, N) + 1j * rng.uniform(-1, 1, N)
    return x, c


@pytest.mark.parametrize("m", [2, 4, 6])
def test_trafo_error_below_window_bound(m):
    rng = np.random.default_rng(100 + m)
    N, M = 64, 129
    x, c = _random_instance(rng, N, M)
    plan = nfft_plan(N, x, sigma=2.0, m=m)
    err = np.max(np.abs(nfft_trafo(plan, c) - ndft_direct(c, x)))
    assert err <= bounds.bound_sinh_E(m, 2.0) * np.sum(np.abs(c))


def test_spread_rows_have_fixed_width():
    plan = nfft_plan(16, np.array([0.0, 0.24, -0.5]), sigma=2.0, m=4)
    assert plan.spread_idx.shape == (3, 8)
    assert plan.spread_val.shape == (3, 8)
    assert np.all((plan.spread_idx >= 0) & (plan.spread_idx < plan.n_over))
    assert np.all(plan.spread_val >= 0.0)
    # the gather matrix is made of the two tables, not of copies
    assert plan.spread_idx.dtype == np.int32
    assert np.shares_memory(plan.gather.indices, plan.spread_idx)
    assert np.shares_memory(plan.gather.data, plan.spread_val)
    # a node exactly on a grid point still gets 2m entries; the last one
    # sits on the support boundary and carries the window's exact zero
    row = plan.spread_val[0]
    assert row[-1] == 0.0 and np.count_nonzero(row) == 7


def test_adjoint_matches_conjugate_sum():
    rng = np.random.default_rng(17)
    N, M = 12, 29
    x = rng.uniform(-0.5, 0.5, M)
    y = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    plan = nfft_plan(N, x, sigma=2.0, m=6)
    out = nfft_adjoint(plan, y)
    k = np.arange(N) - N // 2
    ref = np.array([np.sum(y * np.exp(-2j * np.pi * ki * x)) for ki in k])
    assert np.max(np.abs(out - ref)) <= bounds.bound_sinh_E(6, 2.0) * np.sum(np.abs(y))


@pytest.mark.parametrize("seed", range(5))
def test_adjoint_inner_product_identity(seed):
    # <A c, y> == <c, A* y> holds to rounding error by construction
    rng = np.random.default_rng(seed)
    N, M = 32, 47
    x, c = _random_instance(rng, N, M)
    y = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    plan = nfft_plan(N, x, sigma=2.0, m=4)
    lhs = np.vdot(y, nfft_trafo(plan, c))
    rhs = np.vdot(nfft_adjoint(plan, y), c)
    scale = np.linalg.norm(c) * np.linalg.norm(y)
    assert abs(lhs - rhs) <= 1e-13 * scale


def test_periodic_wrap_at_half():
    c = np.random.default_rng(2).standard_normal(16) + 0j
    left = nfft_trafo(nfft_plan(16, np.array([-0.5])), c)
    right = nfft_trafo(nfft_plan(16, np.array([0.5])), c)
    assert abs(left[0] - right[0]) < 1e-12 * np.sum(np.abs(c))


def test_other_windows_also_work():
    rng = np.random.default_rng(3)
    N, M = 32, 40
    x, c = _random_instance(rng, N, M)
    plan = nfft_plan(N, x, sigma=2.0, m=6, window="bspline")
    err = np.max(np.abs(nfft_trafo(plan, c) - ndft_direct(c, x)))
    assert err < 1e-5 * np.sum(np.abs(c))


def test_plan_rejects():
    with pytest.raises(ParameterError):
        nfft_plan(15, np.zeros(3))  # odd degree
    with pytest.raises(ParameterError):
        nfft_plan(16, np.zeros(3), sigma=1.3)  # sigma*N not an even integer
    with pytest.raises(ParameterError):
        nfft_plan(16, np.array([0.6]))  # node out of range
    with pytest.raises(ParameterError):
        nfft_plan(8, np.zeros(3), sigma=2.0, m=6)  # stencil exceeds grid half
    with pytest.raises(ParameterError):
        nfft_trafo(nfft_plan(16, np.zeros(3)), np.ones(8, dtype=complex))


def test_positivity_guard_trips():
    # a B-spline transform has zeros past the first sinc lobe; a degree
    # pushed to the grid edge with tiny oversampling must be rejected
    with pytest.raises((PositivityError, ParameterError)):
        nfft_plan(64, np.zeros(2), sigma=1.0, m=4, window="bspline")


def test_block_count_is_largest_divisor_keeping_the_band():
    assert block_count(96, 64) == 1     # sigma = 1.5
    assert block_count(128, 64) == 2    # sigma = 2
    assert block_count(160, 64) == 2    # sigma = 2.5: Q = 80 > N
    assert block_count(192, 64) == 3    # sigma = 3
    assert block_count(130, 64) == 2
    assert block_count(134, 64) == 2    # 134 = 2 * 67
    assert block_count(142, 70) == 2    # 142 = 2 * 71


@pytest.mark.parametrize("sigma, blocks", [(1.5, 1), (2.0, 2), (2.5, 2), (3.0, 3)])
def test_trafo_and_adjoint_match_direct_for_every_block_count(sigma, blocks):
    # the sinh window is limited to sigma <= 2; beyond it the B-spline
    # needs m = 12 for the same accuracy
    window, m = ("sinh", 10) if sigma <= 2.0 else ("bspline", 12)
    rng = np.random.default_rng(int(10 * sigma))
    N, M = 64, 129
    x, c = _random_instance(rng, N, M)
    y = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    plan = nfft_plan(N, x, sigma=sigma, m=m, window=window)
    assert plan.blocks == blocks
    err = np.max(np.abs(nfft_trafo(plan, c) - ndft_direct(c, x)))
    assert err <= 1e-13 * np.sum(np.abs(c))
    k = np.arange(N) - N // 2
    ref = np.exp(-2j * np.pi * np.outer(k, x)) @ y
    err = np.max(np.abs(nfft_adjoint(plan, y) - ref))
    assert err <= 1e-13 * np.sum(np.abs(y))


@pytest.mark.parametrize("sigma", [1.5, 2.0, 2.5, 3.0])
def test_adjoint_identity_for_every_block_count(sigma):
    rng = np.random.default_rng(int(20 * sigma))
    N, M = 32, 47
    x, c = _random_instance(rng, N, M)
    y = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    plan = nfft_plan(N, x, sigma=sigma, m=4,
                     window="sinh" if sigma <= 2.0 else "bspline")
    lhs = np.vdot(y, nfft_trafo(plan, c))
    rhs = np.vdot(nfft_adjoint(plan, y), c)
    assert abs(lhs - rhs) <= 1e-13 * np.linalg.norm(c) * np.linalg.norm(y)


def test_trafo_allocates_only_its_grid_and_output():
    # one trafo holds the grid (n_over, transformed in place) and the
    # output (M): no deconvolved copy of c, no zero-padded FFT input
    rng = np.random.default_rng(42)
    N, M = 4096, 4096
    x, c = _random_instance(rng, N, M)
    plan = nfft_plan(N, x, sigma=2.0, m=6)
    nfft_trafo(plan, c)  # first call: one-time costs
    tracemalloc.start()
    try:
        nfft_trafo(plan, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 16 * (plan.n_over + M)


@pytest.mark.parametrize("kind", window_kinds())
def test_plan_allocates_little_beyond_its_tables(kind):
    # the window rows are evaluated in blocks straight into the value
    # table: besides the two tables only per-node vectors are made
    x = np.random.default_rng(3).uniform(-0.5, 0.5, 65536)
    warm = nfft_plan(4096, x, m=8, window=kind)  # first call: one-time costs
    gone = weakref.ref(warm._grid)
    del warm
    assert gone() is None  # so deconv and twiddle are made inside the measurement
    tracemalloc.start()
    try:
        plan = nfft_plan(4096, x, m=8, window=kind)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * (plan.spread_idx.nbytes + plan.spread_val.nbytes)


def test_live_plans_with_equal_parameters_share_their_grid_tables():
    rng = np.random.default_rng(4)
    first = nfft_plan(64, rng.uniform(-0.5, 0.5, 30), sigma=1.5, m=5)
    second = nfft_plan(np.int64(64), rng.uniform(-0.5, 0.5, 9), sigma=1.5, m=5)
    assert second.deconv is first.deconv and second.twiddle is first.twiddle
    assert second._grid is first._grid and first._grid.node_count == 0
    # an NNFFT's second stage is the NFFT of degree K: its tables are shared too
    v = rng.uniform(-0.4, 0.4, 7)
    nn = [nnfft_plan(32, v, rng.uniform(-0.5, 0.5, M), m1=3, m2=3) for M in (5, 9)]
    assert nn[0].stage2.deconv is nn[1].stage2.deconv
    assert nn[0].stage2.twiddle is nn[1].stage2.twiddle


@pytest.mark.parametrize("change", [{"N": 32}, {"window": "bspline"}, {"m": 4},
                                    {"sigma": 2.0}], ids=["N", "kind", "m", "sigma"])
def test_every_grid_parameter_gives_its_own_entry(change):
    x = np.random.default_rng(5).uniform(-0.5, 0.5, 20)
    base = {"N": 64, "sigma": 1.5, "m": 5, "window": "sinh"}
    plan = nfft_plan(**base, nodes=x)
    other = nfft_plan(**{**base, **change}, nodes=x)
    assert other._grid is not plan._grid and other.deconv is not plan.deconv
    assert (other.deconv.shape != plan.deconv.shape
            or not np.array_equal(other.deconv, plan.deconv))


def test_grid_tables_are_read_only_and_live_only_while_a_plan_holds_them():
    rng = np.random.default_rng(6)
    # parameters no other test here uses: a failed test's traceback may
    # keep its plans, and so their grid tables, alive
    plan = nfft_plan(24, rng.uniform(-0.5, 0.5, 8), sigma=1.75, m=3)
    last = nfft_plan(24, rng.uniform(-0.5, 0.5, 3), sigma=1.75, m=3)
    for arr in (plan.deconv, plan.twiddle):
        with pytest.raises(ValueError):
            arr[0] = 1
    kept = weakref.ref(plan._grid)
    del plan
    assert kept() is last._grid
    del last
    assert kept() is None  # no reference cycle: freed without gc.collect()


def _nfft_pair(rng, x):
    plan = nfft_plan(64, x, sigma=1.75, m=5)
    c = rng.uniform(-1, 1, 64) + 1j * rng.uniform(-1, 1, 64)
    y = rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)
    return plan, plan, (nfft_trafo(plan, c), nfft_adjoint(plan, y))


def _nnfft_one(rng, x):
    plan = nnfft_plan(32, np.linspace(-0.4, 0.4, 11), x, m1=4, m2=3, sigma2=1.75)
    f = rng.standard_normal(11) + 1j * rng.standard_normal(11)
    return plan, plan.stage2, (nnfft_trafo(plan, f),)


@pytest.mark.parametrize("transform", [_nfft_pair, _nnfft_one],
                         ids=["nfft_trafo-nfft_adjoint", "nnfft_trafo"])
def test_outputs_are_the_same_with_and_without_a_live_twin(transform):
    # both transforms use grid parameters no other test here uses
    rng = np.random.default_rng(7)
    x = rng.uniform(-0.5, 0.5, 40)
    alone, stage, outputs = transform(np.random.default_rng(8), x)
    gone = weakref.ref(stage._grid)
    del alone, stage
    assert gone() is None  # alone made its own grid tables
    twin_stage = transform(rng, rng.uniform(-0.5, 0.5, 25))[1]
    _, stage, again = transform(np.random.default_rng(8), x)
    assert stage._grid is twin_stage._grid
    for out, ref in zip(again, outputs):
        assert np.array_equal(out, ref)


def _assert_stencil(idx, val, op, spec, nodes, placed):
    # positions placed(floor(n x) + l) and weights phi(x - (floor(n x) + l)/n),
    # in tables that the stencil matrix op shares
    m, n = spec.m, spec.n_grid
    pos = np.floor(n * nodes)[:, None] + np.arange(1 - m, m + 1)
    assert idx.dtype == np.int32 and val.dtype == np.float64
    assert idx.flags.c_contiguous and val.flags.c_contiguous
    assert idx.shape == val.shape == (nodes.size, 2 * m)
    assert np.shares_memory(op.indices, idx) and np.shares_memory(op.data, val)
    assert np.array_equal(idx, placed(pos))
    # within 1e-12 of the window at x - pos/n, away from the support edge:
    # there sinh has a square-root edge, so the rounding of either
    # argument moves the value by more
    ref = phi_eval(spec, nodes[:, None] - pos / n)
    inner = np.abs(1.0 - np.abs(nodes[:, None] - pos / n) * (n / m)) > 1e-3
    assert np.all(np.abs(val - ref)[inner] <= 1e-12)
    # a node on a grid point (t = 0) ends in the window's exact zero
    on_grid = n * nodes == np.floor(n * nodes)
    assert np.all(val[on_grid, -1] == 0.0)


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(window_kinds()), m=st.integers(2, 10),
       sigma=st.sampled_from([1.25, 1.5, 2.0]), data=st.data())
def test_stencil_table_of_every_window(kind, m, sigma, data):
    # N a multiple of the smallest even N with sigma N even, and n <= 4096
    step = {1.25: 8, 1.5: 4, 2.0: 2}[sigma]
    N = step * data.draw(st.integers(1, 4096 // round(sigma * step)))
    n = round(sigma * N)
    assume(4 * m <= n)
    node = st.one_of(st.floats(-0.5, 0.5),
                     st.integers(-n // 2, n // 2).map(lambda j: j / n),
                     st.sampled_from([-0.5, 0.5]))
    x = np.array(data.draw(st.lists(node, min_size=1, max_size=24)))

    plan = nfft_plan(N, x, sigma=sigma, m=m, window=kind)
    _assert_stencil(plan.spread_idx, plan.spread_val, plan.gather, plan.window,
                    x, lambda pos: np.mod(pos, n))

    # the NNFFT spread: the same stencils on the coarse grid, moved by K/2
    geo = NnfftGeometry.from_parameters(N, x.size, 1, sigma, 2.0, m, 2)
    K = geo.N1 + 2 * m
    v = np.clip(x, -0.5 / geo.a, 0.5 / geo.a)
    nn = nnfft_plan(N, v, np.array([0.25]), sigma1=sigma, m1=m, m2=2,
                    window1=kind)
    _assert_stencil(nn.spread_idx, nn.spread_val, nn.spread, nn.window1,
                    v, lambda pos: pos + K // 2)
    assert np.all((nn.spread_idx >= 0) & (nn.spread_idx < K))
