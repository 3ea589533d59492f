"""Fast sinc transform: mode detection, accuracy certificates, special cases."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sincfft import bounds
from sincfft.direct import sinc_transform_direct
from sincfft.errors import ParameterError
from sincfft.fast_sinc import SincMode, fast_sinc_transform, sinc_plan
from sincfft.nnfft import NnfftPlan


def _grid(L):
    return (np.arange(L) - L // 2) / L


def _random_nodes(rng, L):
    return rng.uniform(-0.5, 0.5, L)


def test_mode_detection_all_four():
    rng = np.random.default_rng(0)
    N = 32
    ag, bg = _grid(16), _grid(N)
    ar, br = _random_nodes(rng, 16), _random_nodes(rng, 24)
    assert sinc_plan(N, ar, br).mode is SincMode.GENERAL
    assert sinc_plan(N, ag, br).mode is SincMode.EQUISPACED_SOURCES
    assert sinc_plan(N, ar, bg).mode is SincMode.EQUISPACED_TARGETS
    assert sinc_plan(N, ag, bg).mode is SincMode.EQUISPACED_BOTH


@pytest.mark.parametrize("layout", ["general", "sources", "targets", "both"])
def test_accuracy_below_certificate(layout):
    rng = np.random.default_rng(hash(layout) % 2 ** 31)
    N, L1 = 48, 24
    a = _grid(L1) if layout in ("sources", "both") else _random_nodes(rng, L1)
    b = _grid(N) if layout in ("targets", "both") else _random_nodes(rng, 30)
    c = rng.uniform(-1, 1, L1) + 1j * rng.uniform(-1, 1, L1)
    plan = sinc_plan(N, a, b)
    out = fast_sinc_transform(plan, c)
    ref = sinc_transform_direct(c, a, b, N)
    err = np.max(np.abs(out - ref)) / np.sum(np.abs(c))
    cert = plan.error_bound()
    assert err <= cert["full"]
    if cert["simplified_valid"]:
        assert err <= cert["simplified"]
        assert cert["full"] <= cert["simplified"] + 1e-18


@settings(max_examples=60, deadline=None)
@given(half_N=st.integers(min_value=8, max_value=64),
       half_L1=st.integers(min_value=8, max_value=64),
       mode=st.sampled_from([SincMode.EQUISPACED_TARGETS,
                             SincMode.EQUISPACED_SOURCES,
                             SincMode.EQUISPACED_BOTH]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_general_route_matches_grid_route(half_N, half_L1, mode, seed):
    # every equispaced layout against GENERAL on the same nodes in reverse
    # order, which are no grid, for even N and L1 from 16 (the smallest
    # grids that admit the m1 = 8 NFFT) to 128; the CC weights ride in the
    # gather rows of whichever stage 1 the layout has
    rng = np.random.default_rng(seed)
    N, L1 = 2 * half_N, 2 * half_L1
    grid_sources = mode is not SincMode.EQUISPACED_TARGETS
    grid_targets = mode is not SincMode.EQUISPACED_SOURCES
    a = _grid(L1) if grid_sources else _random_nodes(rng, L1)
    b = _grid(N) if grid_targets else _random_nodes(rng, 40)
    c = rng.uniform(-1, 1, L1) + 1j * rng.uniform(-1, 1, L1)
    auto = sinc_plan(N, a, b, m1=8, m2=8)
    general = sinc_plan(N, a[::-1], b[::-1], m1=8, m2=8)
    assert auto.mode is mode
    assert general.mode is SincMode.GENERAL
    fa = fast_sinc_transform(auto, c)
    fg = fast_sinc_transform(general, c[::-1])[::-1]
    assert np.max(np.abs(fa - fg)) < 1e-11 * np.sum(np.abs(c))


def test_epsilon_selects_power_of_two():
    rng = np.random.default_rng(6)
    plan = sinc_plan(128, _random_nodes(rng, 8), _random_nodes(rng, 8),
                     epsilon=1e-8)
    assert plan.n == 512
    assert plan.error_bound()["epsilon"] <= 1e-8


def test_endpoint_sources_are_admissible():
    # +-1/2 sources exercise the band edge of the rescaled first stage
    rng = np.random.default_rng(7)
    N = 16
    a = np.array([-0.5, -0.2, 0.3, 0.5])
    b = _random_nodes(rng, 10)
    c = np.array([1.0, -2.0, 0.5, 1.5], dtype=complex)
    plan = sinc_plan(N, a, b)
    out = fast_sinc_transform(plan, c)
    ref = sinc_transform_direct(c, a, b, N)
    assert np.max(np.abs(out - ref)) <= plan.error_bound()["full"] * np.sum(np.abs(c))


def test_linearity():
    rng = np.random.default_rng(8)
    N, L1 = 32, 12
    a, b = _random_nodes(rng, L1), _random_nodes(rng, 14)
    plan = sinc_plan(N, a, b)
    c1 = rng.standard_normal(L1) + 1j * rng.standard_normal(L1)
    c2 = rng.standard_normal(L1) + 1j * rng.standard_normal(L1)
    lhs = fast_sinc_transform(plan, c1 - 3j * c2)
    rhs = fast_sinc_transform(plan, c1) - 3j * fast_sinc_transform(plan, c2)
    assert np.allclose(lhs, rhs, atol=1e-12 * (np.sum(np.abs(c1)) + np.sum(np.abs(c2))))


def test_rejections():
    rng = np.random.default_rng(9)
    good = _random_nodes(rng, 8)
    # odd lengths are no even grid, so they plan as GENERAL
    assert sinc_plan(16, _grid(7), good).mode is SincMode.GENERAL
    assert sinc_plan(7, good, _grid(7)).mode is SincMode.GENERAL
    with pytest.raises(ParameterError):
        sinc_plan(16, good, good, n=64, epsilon=1e-6)
    with pytest.raises(ParameterError):
        sinc_plan(16, np.array([0.0, 0.7]), good)
    plan = sinc_plan(16, good, good)
    with pytest.raises(ParameterError):
        fast_sinc_transform(plan, np.ones(5, dtype=complex))


@pytest.mark.parametrize("L1, L2", [(7, 9), (33, 65), (1, 3)])
def test_odd_lengths_in_general_mode(L1, L2):
    rng = np.random.default_rng(L1 * 100 + L2)
    N = 32
    a, b = _random_nodes(rng, L1), _random_nodes(rng, L2)
    c = rng.uniform(-1, 1, L1) + 1j * rng.uniform(-1, 1, L1)
    plan = sinc_plan(N, a, b)
    assert plan.mode is SincMode.GENERAL
    err = np.max(np.abs(fast_sinc_transform(plan, c)
                        - sinc_transform_direct(c, a, b, N)))
    assert err <= plan.error_bound()["full"] * np.sum(np.abs(c))


@pytest.mark.parametrize("side", ["sources", "targets"])
def test_short_grid_falls_back_to_general(side):
    # with m1 = 6, sigma1 = 2 a grid needs L >= 12 points for its NFFT
    # stage (2*m1 <= sigma1*L/2): L1 = 4 sources, or N = L2 = 8 targets
    rng = np.random.default_rng(11)
    N = 32 if side == "sources" else 8
    a = _grid(4) if side == "sources" else _random_nodes(rng, 6)
    b = _grid(8) if side == "targets" else _random_nodes(rng, 6)
    c = rng.uniform(-1, 1, a.size) + 1j * rng.uniform(-1, 1, a.size)
    plan = sinc_plan(N, a, b)
    assert plan.mode is SincMode.GENERAL
    err = np.max(np.abs(fast_sinc_transform(plan, c)
                        - sinc_transform_direct(c, a, b, N)))
    assert err <= plan.error_bound()["full"] * np.sum(np.abs(c))


def test_error_bound_requires_sinh():
    rng = np.random.default_rng(10)
    plan = sinc_plan(16, _random_nodes(rng, 8), _random_nodes(rng, 8),
                     window1="bspline", window2="bspline")
    with pytest.raises(ParameterError):
        plan.error_bound()
    # the transform itself still runs
    out = fast_sinc_transform(plan, np.ones(8, dtype=complex))
    assert out.shape == (8,)


def _error_bound_by_hand(plan):
    # the certificate assembled stage by stage from the bound functions,
    # on the rescaled inner geometry
    geo = plan.inner_geometry
    epsilon = bounds.bound_cc_sinc(plan.N, plan.n / plan.N)
    e1 = bounds.bound_sinh_E(plan.m1, plan.sigma1)
    e2 = bounds.bound_sinh_E(plan.m2, geo.sigma2)
    hat = bounds.hat_phi_sinh_at_half(geo.N, plan.sigma1, plan.m1)
    b_term = e1 + geo.a * e2 / hat
    return {"epsilon": epsilon, "e1": e1, "e2": e2, "a": geo.a,
            "hat_phi1_half": hat, "b_term": b_term,
            "full": bounds.bound_fast_sinc(epsilon, e1, e2, geo.a, hat),
            "simplified": epsilon + 3.0 * e1 + 3.0 * geo.a * e2 / hat,
            "simplified_valid": bool(b_term <= 1.0)}


@pytest.mark.parametrize("layout", ["general", "both"])
def test_error_bound_is_the_bound_report(layout):
    rng = np.random.default_rng(12)
    N = 64
    a = _grid(32) if layout == "both" else _random_nodes(rng, 32)
    b = _grid(N) if layout == "both" else _random_nodes(rng, 40)
    plan = sinc_plan(N, a, b, m1=5, m2=7, sigma1=1.5, sigma2=1.25)
    assert plan.mode is (SincMode.EQUISPACED_BOTH if layout == "both"
                         else SincMode.GENERAL)
    cert, ref = plan.error_bound(), _error_bound_by_hand(plan)
    assert cert.keys() == ref.keys()
    assert cert["simplified_valid"] is ref["simplified_valid"]
    for key in ref.keys() - {"simplified_valid"}:
        assert abs(cert[key] - ref[key]) <= np.spacing(ref[key]), key


def test_error_bound_requires_m2_at_least_m1():
    # the two-stage bound the certificate rests on holds for m2 >= m1 only
    rng = np.random.default_rng(13)
    plan = sinc_plan(32, _random_nodes(rng, 8), _random_nodes(rng, 8), m1=6, m2=4)
    with pytest.raises(ParameterError):
        plan.error_bound()


def test_grid_stages_need_no_nnfft_geometry():
    # both stages are degree-32 NFFTs, which never use m2; the certificate's
    # NNFFT geometry (2*m2 > (1 - 1/sigma1)*N2 here) is made only on demand
    g = _grid(32)
    plan = sinc_plan(32, g, g, sigma1=1.25, sigma2=2.0, m1=2, m2=12)
    assert plan.mode is SincMode.EQUISPACED_BOTH
    out = fast_sinc_transform(plan, np.ones(32, dtype=complex))
    assert out.shape == (32,) and np.all(np.isfinite(out))
    with pytest.raises(ParameterError):
        plan.error_bound()


def _apply_state_bytes(plan):
    # what an apply reads: the stage tables, the CSR row pointers, deconv
    # and twiddle
    total = 0
    for stage in (plan._plan1, plan._plan3):
        if isinstance(stage, NnfftPlan):
            total += (stage.spread_idx.nbytes + stage.spread_val.nbytes
                      + stage.spread.indptr.nbytes)
            stage = stage.stage2
        total += (stage.spread_idx.nbytes + stage.spread_val.nbytes
                  + stage.gather.indptr.nbytes + stage.deconv.nbytes
                  + stage.twiddle.nbytes)
    return total


def test_plan_holds_little_beyond_its_apply_state():
    # no copy of the nodes, the Chebyshev points or the weights stays
    rng = np.random.default_rng(14)
    a, b = _random_nodes(rng, 256), _random_nodes(rng, 2048)
    sinc_plan(512, a, b)  # first-call imports and caches are not the plan's
    tracemalloc.start()
    try:
        plan = sinc_plan(512, a, b)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert plan.mode is SincMode.GENERAL
    assert held - _apply_state_bytes(plan) <= 32 * 1024
