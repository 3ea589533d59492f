"""Every entry point rejects inputs outside its domain: planning functions
nodes outside [-1/2, 1/2], fractional cut-offs and non-finite oversampling
factors, transforms non-finite coefficients, the direct oracles and the
bounds any non-finite input."""

import numpy as np
import pytest

from sincfft import bounds
from sincfft.direct import ndft_direct, nndft_direct, sinc_transform_direct
from sincfft.errors import ParameterError
from sincfft.fast_sinc import fast_sinc_transform, sinc_plan
from sincfft.nfft import nfft_adjoint, nfft_plan, nfft_trafo
from sincfft.nnfft import nnfft_plan, nnfft_trafo, rescale_frequencies

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
    "rescale_frequencies-2d": lambda: rescale_frequencies(16, np.zeros((2, 3)), 2.0, 4),
    "rescale_frequencies-empty": lambda: rescale_frequencies(16, np.zeros(0), 2.0, 4),
    "sinc_transform_direct-nan": lambda: sinc_transform_direct(
        np.ones(4), np.where(GOOD == 0.0, NAN, GOOD), GOOD, 16),
    "sinc_transform_direct-nan-coefficient": lambda: sinc_transform_direct(
        np.where(GOOD == 0.0, NAN, 1.0), GOOD, GOOD, 16),
    "sinc_transform_direct-inf-N": lambda: sinc_transform_direct(
        np.ones(4), GOOD, GOOD, INF),
    "nndft_direct-nan-node": lambda: nndft_direct(
        np.ones(4), GOOD, np.where(GOOD == 0.0, NAN, GOOD), 16),
    "nndft_direct-nan-frequency": lambda: nndft_direct(
        np.ones(4), np.where(GOOD == 0.0, NAN, GOOD), GOOD, 16),
    "ndft_direct-nan-node": lambda: ndft_direct(
        np.ones(4), np.where(GOOD == 0.0, NAN, GOOD)),
    "ndft_direct-inf-coefficient-compensated": lambda: ndft_direct(
        np.where(GOOD == 0.0, INF, 1.0), GOOD, compensated=True),
    "bound_cc_sinc-nan-N": lambda: bounds.bound_cc_sinc(NAN, 4),
    "bound_cc_sinc-inf-N": lambda: bounds.bound_cc_sinc(INF, 4),
    "bound_nnfft_sinh-nan-N": lambda: bounds.bound_nnfft_sinh(NAN, 2, 2, 4, 4),
    "hat_phi_sinh_at_half-nan-N": lambda: bounds.hat_phi_sinh_at_half(NAN, 2, 4),
    "bound_report-nan-epsilon": lambda: bounds.bound_report(
        128, 6, 6, 2.0, 2.0, 4.0, epsilon=NAN),
    "bound_fast_sinc-nan-epsilon": lambda: bounds.bound_fast_sinc(
        NAN, 1e-4, 2e-4, 1.05, 0.5),
}


@pytest.mark.parametrize("case", sorted(BAD_PARAMETERS))
def test_bad_parameter_is_rejected(case):
    with pytest.raises(ParameterError):
        BAD_PARAMETERS[case]()
