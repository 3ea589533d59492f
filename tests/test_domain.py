"""Every entry point rejects inputs outside its domain: planning functions
nodes outside [-1/2, 1/2], fractional cut-offs and non-finite oversampling
factors, transforms non-finite coefficients, the direct oracles and the
bounds any non-finite input."""

import tracemalloc

import numpy as np
import pytest

from sincfft import bounds
from sincfft.direct import ndft_direct, nndft_direct, sinc_transform_direct
from sincfft.errors import ParameterError
from sincfft.fast_sinc import SincMode, fast_sinc_transform, sinc_plan
from sincfft.nfft import nfft_adjoint, nfft_plan, nfft_trafo
from sincfft.nnfft import (NnfftGeometry, fast_bandwidth, nnfft_plan,
                           nnfft_trafo, rescale_frequencies)
from sincfft.cli import main
from sincfft.windows import WindowSpec, check_window

GOOD = np.array([0.1, 0.0, -0.2, 0.3])
GRID = (np.arange(32) - 16) / 32  # both stages of sinc_plan(32, GRID, GRID) are NFFTs
NFFT = nfft_plan(4, GOOD, m=2)

ENTRY_POINTS = {
    "nfft_plan": lambda x: nfft_plan(8, x),
    "nnfft_plan-v": lambda x: nnfft_plan(16, 0.5 * x, GOOD),
    "nnfft_plan-x": lambda x: nnfft_plan(16, 0.5 * GOOD, x),
    "rescale_frequencies": lambda x: rescale_frequencies(16, x, 2.0, 4),
    "sinc_plan-a": lambda x: sinc_plan(16, x, GOOD),
    "sinc_plan-b": lambda x: sinc_plan(16, GOOD, x),
    "nfft_trafo": lambda c: nfft_trafo(NFFT, c),
    "nfft_adjoint": lambda c: nfft_adjoint(NFFT, c),
    "nnfft_trafo": lambda c: nnfft_trafo(nnfft_plan(16, 0.5 * GOOD, GOOD), c),
    "fast_sinc_transform": lambda c: fast_sinc_transform(sinc_plan(16, GOOD, GOOD), c),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_nan_node_is_rejected(entry):
    call = ENTRY_POINTS[entry]
    call(GOOD)
    for value in (np.nan, np.inf, -np.inf):
        bad = GOOD.copy()
        bad[1] = value
        with pytest.raises(ParameterError):
            call(bad)


NAN, INF = np.nan, np.inf
BAD_PARAMETERS = {
    "nfft_plan-m": lambda: nfft_plan(16, GOOD, m=4.5),
    "nfft_plan-sigma-nan": lambda: nfft_plan(16, GOOD, sigma=NAN),
    "nfft_plan-sigma-inf": lambda: nfft_plan(16, GOOD, sigma=INF),
    "nfft_plan-sigma-neginf": lambda: nfft_plan(16, GOOD, sigma=-INF),
    # finite oversampling factors whose grid lengths overflow
    "nfft_plan-sigma-overflow": lambda: nfft_plan(16, GOOD, sigma=1e308),
    "nnfft_plan-sigma1-overflow": lambda: nnfft_plan(32, 0.5 * GOOD, GOOD, sigma1=1e308),
    "nnfft_plan-sigma2-overflow": lambda: nnfft_plan(32, 0.5 * GOOD, GOOD, sigma2=1e308),
    "NnfftGeometry-sigma2-overflow": lambda: NnfftGeometry.from_parameters(
        32, 4, 4, 2.0, 1e308, 4, 4),
    "sinc_plan-sigma1-overflow": lambda: sinc_plan(
        32, GOOD, GOOD, sigma1=1e308, window1="bspline", window2="bspline"),
    "sinc_plan-sigma2-overflow": lambda: sinc_plan(
        32, GOOD, GOOD, sigma2=1e308, window1="bspline", window2="bspline"),
    "WindowSpec-sigma-inf": lambda: WindowSpec("bspline", 4, INF, 64),
    "nnfft_plan-m1": lambda: nnfft_plan(32, 0.5 * GOOD, GOOD, m1=3.7),
    "nnfft_plan-m2": lambda: nnfft_plan(32, 0.5 * GOOD, GOOD, m2=4.2),
    "nnfft_plan-sigma1-inf": lambda: nnfft_plan(32, 0.5 * GOOD, GOOD, sigma1=INF),
    "nnfft_plan-sigma2-inf": lambda: nnfft_plan(32, 0.5 * GOOD, GOOD, sigma2=INF),
    "sinc_plan-m1": lambda: sinc_plan(32, GOOD, GOOD, m1=6.9, m2=6.9),
    "sinc_plan-m2": lambda: sinc_plan(32, GOOD, GOOD, m2=6.9),
    "sinc_plan-sigma1-nan": lambda: sinc_plan(32, GOOD, GOOD, sigma1=NAN),
    "sinc_plan-sigma1-inf": lambda: sinc_plan(32, GOOD, GOOD, sigma1=INF),
    "sinc_plan-sigma1-neginf": lambda: sinc_plan(32, GOOD, GOOD, sigma1=-INF),
    "sinc_plan-sigma2-inf": lambda: sinc_plan(32, GOOD, GOOD, sigma2=INF),
    "sinc_plan-grid-m2": lambda: sinc_plan(32, GRID, GRID, m2=6.9),
    "sinc_plan-grid-sigma2-nan": lambda: sinc_plan(32, GRID, GRID, sigma2=NAN),
    "sinc_plan-grid-sigma2-inf": lambda: sinc_plan(32, GRID, GRID, sigma2=INF),
    "sinc_plan-grid-window2": lambda: sinc_plan(32, GRID, GRID, window2="foo"),
    "sinc_plan-grid-sigma2-below-sinh-range": lambda: sinc_plan(32, GRID, GRID, sigma2=1.1),
    "sinc_plan-grid-sigma2-above-sinh-range": lambda: sinc_plan(32, GRID, GRID, sigma2=3.0),
    "rescale_frequencies-2d": lambda: rescale_frequencies(16, np.zeros((2, 3)), 2.0, 4),
    "rescale_frequencies-empty": lambda: rescale_frequencies(16, np.zeros(0), 2.0, 4),
    # sigma1 N* is an integer only every 10^7 steps: no admissible N* up to
    # the cap of the search
    "rescale_frequencies-no-bandwidth": lambda: rescale_frequencies(
        10, GOOD, 1.0000001, 2),
    # a two-decimal sigma1 puts the first admissible N* far above N: 2400
    # and 88800 without the cap
    "fast_bandwidth-two-decimal-sigma1": lambda: fast_bandwidth(16, 1.81, 6),
    "fast_bandwidth-two-decimal-sigma1-above-2": lambda: fast_bandwidth(16, 3.69, 4),
    "rescale_frequencies-two-decimal-sigma1": lambda: rescale_frequencies(
        16, GOOD, 1.81, 6),
    "sinc_plan-two-decimal-sigma1": lambda: sinc_plan(16, GOOD, GOOD, sigma1=1.81),
    # FFT lengths sigma1 N* of 2^53 and more
    "fast_bandwidth-huge-sigma1": lambda: fast_bandwidth(10, 1e300, 2),
    "fast_bandwidth-huge-N": lambda: fast_bandwidth(10**20, 2.0, 2),
    "fast_bandwidth-huge-length": lambda: fast_bandwidth(10, 1e17, 2),
    # N is checked as an integer >= 1, not truncated or lifted to the cut-off
    "fast_bandwidth-fractional-N": lambda: fast_bandwidth(16.5, 2.0, 4),
    "fast_bandwidth-zero-N": lambda: fast_bandwidth(0, 2.0, 4),
    "fast_bandwidth-negative-N": lambda: fast_bandwidth(-5, 2.0, 4),
    "fast_bandwidth-nan-N": lambda: fast_bandwidth(NAN, 2.0, 4),
    "sinc_transform_direct-nan": lambda: sinc_transform_direct(
        np.ones(4), np.where(GOOD == 0.0, NAN, GOOD), GOOD, 16),
    "sinc_transform_direct-nan-coefficient": lambda: sinc_transform_direct(
        np.where(GOOD == 0.0, NAN, 1.0), GOOD, GOOD, 16),
    "sinc_transform_direct-inf-N": lambda: sinc_transform_direct(
        np.ones(4), GOOD, GOOD, INF),
    "sinc_transform_direct-vector-N": lambda: sinc_transform_direct(
        np.ones(4), GOOD, GOOD, np.array([1.0, 2.0])),
    "sinc_transform_direct-inf-coefficient": lambda: sinc_transform_direct(
        np.where(GOOD == 0.0, INF, 1.0), GOOD, GOOD, 16),
    "sinc_transform_direct-inf-source": lambda: sinc_transform_direct(
        np.ones(4), np.where(GOOD == 0.0, INF, GOOD), GOOD, 16),
    "nndft_direct-nan-node": lambda: nndft_direct(
        np.ones(4), GOOD, np.where(GOOD == 0.0, NAN, GOOD), 16),
    "nndft_direct-nan-frequency": lambda: nndft_direct(
        np.ones(4), np.where(GOOD == 0.0, NAN, GOOD), GOOD, 16),
    "nndft_direct-inf-node": lambda: nndft_direct(
        np.ones(4), GOOD, np.where(GOOD == 0.0, INF, GOOD), 16),
    "nndft_direct-inf-coefficient": lambda: nndft_direct(
        np.where(GOOD == 0.0, INF, 1.0), GOOD, GOOD, 16),
    "nndft_direct-vector-N": lambda: nndft_direct(
        np.ones(4), GOOD, GOOD, np.array([1.0, 2.0])),
    "ndft_direct-nan-node": lambda: ndft_direct(
        np.ones(4), np.where(GOOD == 0.0, NAN, GOOD)),
    "ndft_direct-inf-coefficient": lambda: ndft_direct(
        np.where(GOOD == 0.0, INF, 1.0), GOOD),
    "bound_cc_sinc-nan-N": lambda: bounds.bound_cc_sinc(NAN, 4),
    "bound_cc_sinc-inf-N": lambda: bounds.bound_cc_sinc(INF, 4),
    "bound_nnfft_sinh-nan-N": lambda: bounds.bound_nnfft_sinh(NAN, 2, 2, 4, 4),
    "hat_phi_sinh_at_half-nan-N": lambda: bounds.hat_phi_sinh_at_half(NAN, 2, 4),
    "bound_report-nan-epsilon": lambda: bounds.bound_report(
        128, 6, 6, 2.0, 2.0, 4.0, epsilon=NAN),
    "bound_report-inf-epsilon": lambda: bounds.bound_report(
        128, 6, 6, 2.0, 2.0, 4.0, epsilon=INF),
    "bound_report-negative-epsilon": lambda: bounds.bound_report(
        128, 6, 6, 2.0, 2.0, 4.0, epsilon=-1e-9),
    # finite inputs whose full bound epsilon + 2B + B^2 overflows
    "bound_report-full-overflow": lambda: bounds.bound_report(
        1e170, 6, 6, 2.0, 2.0, 4.0),
    # nu = 1 lies far below the decay threshold: the surrogate bound overflows
    "bound_report-surrogate-overflow": lambda: bounds.bound_report(
        1000, 6, 6, 2.0, 2.0, 1.0),
    "error_bound-surrogate-overflow": lambda: sinc_plan(
        1000, GOOD, GOOD, n=1000).error_bound(),
}


@pytest.mark.parametrize("case", sorted(BAD_PARAMETERS))
def test_bad_parameter_is_rejected(case):
    with pytest.raises(ParameterError):
        BAD_PARAMETERS[case]()


# True == 1 as an int: a bool bandwidth would run as N = 1
BOOL_BANDWIDTHS = {
    "sinc_plan": lambda: sinc_plan(True, GOOD, GOOD),
    "nndft_direct": lambda: nndft_direct(np.ones(4), GOOD, GOOD, True),
    "nndft_direct-numpy": lambda: nndft_direct(np.ones(4), GOOD, GOOD, np.True_),
    "sinc_transform_direct": lambda: sinc_transform_direct(np.ones(4), GOOD, GOOD, True),
    "NnfftGeometry": lambda: NnfftGeometry.from_parameters(True, 4, 4, 2.0, 2.0, 4, 4),
    "NnfftGeometry-M1": lambda: NnfftGeometry.from_parameters(128, True, 4, 2.0, 2.0, 4, 4),
    "rescale_frequencies": lambda: rescale_frequencies(True, GOOD, 2.0, 4),
    "fast_bandwidth": lambda: fast_bandwidth(True, 2.0, 4),
    "nfft_plan": lambda: nfft_plan(True, GOOD),
    "choose_n": lambda: bounds.choose_n(True, 1e-6),
}


@pytest.mark.parametrize("case", sorted(BOOL_BANDWIDTHS))
def test_bool_bandwidth_is_rejected_by_its_type(case):
    with pytest.raises(ParameterError, match="got bool"):
        BOOL_BANDWIDTHS[case]()


def test_both_sinc_plan_routes_reject_the_same_windows():
    # window2 serves no stage of the grid plan, yet both plans check it
    for kwargs in ({"sigma2": 1.1}, {"sigma2": 3.0}, {"sigma2": INF},
                   {"m2": 1}, {"m2": 4.5}):
        for nodes in (GRID, GOOD):
            with pytest.raises(ParameterError):
                sinc_plan(32, nodes, nodes, **kwargs)


def test_grid_plan_needs_no_second_stage_geometry():
    # both stages of the grid plan are NFFTs and never use the second-stage
    # geometry, so sigma2 * K may overflow; only the inner geometry of the
    # certificate needs it, and it raises no OverflowError
    plan = sinc_plan(32, GRID, GRID, sigma2=1e308,
                     window1="bspline", window2="bspline")
    assert plan.mode is SincMode.EQUISPACED_BOTH
    assert np.all(np.isfinite(fast_sinc_transform(plan, np.ones(32))))
    with pytest.raises(ParameterError):
        plan.inner_geometry


@pytest.mark.parametrize("kwargs", [{"window1": "foo"}, {"sigma1": 1.1},
                                    {"m1": 4.5}], ids=["window1", "sigma1", "m1"])
def test_window_is_checked_before_the_quadrature(kwargs):
    # the quadrature of n = 2^20 alone takes tens of MB
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError):
            sinc_plan(16, GOOD, GOOD, n=2**20, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# the truncated Kaiser-Bessel window is no kind: its jump at the support
# edge leaves its aliasing sum with no finite bound
REMOVED_WINDOW = {
    "WindowSpec": lambda w: WindowSpec(w, 4, 2.0, 64),
    "check_window": lambda w: check_window(w, 4, 2.0),
    "nfft_plan": lambda w: nfft_plan(16, GOOD, window=w),
    "nnfft_plan-window1": lambda w: nnfft_plan(16, 0.5 * GOOD, GOOD, window1=w),
    "nnfft_plan-window2": lambda w: nnfft_plan(16, 0.5 * GOOD, GOOD, window2=w),
    "sinc_plan-window1": lambda w: sinc_plan(16, GOOD, GOOD, window1=w),
    "sinc_plan-window2": lambda w: sinc_plan(16, GOOD, GOOD, window2=w),
}


@pytest.mark.parametrize("entry", sorted(REMOVED_WINDOW))
def test_kaiser_bessel_window_is_rejected(entry):
    with pytest.raises(ParameterError, match=r"\('sinh', 'bspline'\)"):
        REMOVED_WINDOW[entry]("kaiser-bessel")


def test_cli_rejects_the_kaiser_bessel_window(tmp_path, capsys):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as info:
        main(["nnfft-error", "--N", "32", "--M1", "4", "--M2", "4", "--m1", "3",
              "--reps", "1", "--window1", "kaiser-bessel", "--out", str(out)])
    assert info.value.code == 2
    assert "kaiser-bessel" in capsys.readouterr().err
    assert not out.exists()
