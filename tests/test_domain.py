"""Every planning entry point rejects nodes outside its domain, NaN included."""

import numpy as np
import pytest

from sincfft.errors import ParameterError
from sincfft.fast_sinc import sinc_plan
from sincfft.nfft import nfft_plan
from sincfft.nnfft import nnfft_plan, rescale_frequencies

GOOD = np.array([0.1, 0.0, -0.2, 0.3])

ENTRY_POINTS = {
    "nfft_plan": lambda x: nfft_plan(8, x),
    "nnfft_plan-v": lambda x: nnfft_plan(16, 0.5 * x, GOOD),
    "nnfft_plan-x": lambda x: nnfft_plan(16, 0.5 * GOOD, x),
    "rescale_frequencies": lambda x: rescale_frequencies(16, x, 2.0, 4),
    "sinc_plan-a": lambda x: sinc_plan(16, x, GOOD),
    "sinc_plan-b": lambda x: sinc_plan(16, GOOD, x),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_nan_node_is_rejected(entry):
    call = ENTRY_POINTS[entry]
    call(GOOD)
    bad = GOOD.copy()
    bad[1] = np.nan
    with pytest.raises(ParameterError):
        call(bad)
