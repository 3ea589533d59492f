"""Every entry point rejects inputs outside its domain: planning functions
nodes outside [-1/2, 1/2], transforms non-finite coefficients."""

import numpy as np
import pytest

from sincfft.errors import ParameterError
from sincfft.fast_sinc import fast_sinc_transform, sinc_plan
from sincfft.nfft import nfft_adjoint, nfft_plan, nfft_trafo
from sincfft.nnfft import nnfft_plan, nnfft_trafo, rescale_frequencies

GOOD = np.array([0.1, 0.0, -0.2, 0.3])
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
