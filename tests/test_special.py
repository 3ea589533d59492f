"""The cardinal B-spline against independent references."""

import warnings

import numpy as np
import pytest

from sincfft.errors import ParameterError
from sincfft.windows import cardinal_bspline


def test_bspline_known_center_values():
    # centered linear B-spline peaks at 1, the cubic one at 2/3
    assert cardinal_bspline(2, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert cardinal_bspline(4, 0.0) == pytest.approx(2.0 / 3.0, abs=1e-14)


@pytest.mark.parametrize("order", [2, 3, 4, 8, 12])
def test_bspline_partition_properties(order):
    x = np.linspace(-order / 2 - 1, order / 2 + 1, 4001)
    vals = cardinal_bspline(order, x)
    # even, nonnegative, supported on [-order/2, order/2], unit integral
    assert np.allclose(vals, cardinal_bspline(order, -x), atol=1e-14)
    assert np.all(vals >= -1e-15)
    outside = np.abs(x) > order / 2 + 1e-12
    assert np.max(np.abs(vals[outside])) == 0.0
    integral = np.trapezoid(vals, x)
    assert integral == pytest.approx(1.0, abs=5e-7)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 8, 12])
def test_bspline_support_is_half_open(order):
    # B_order vanishes at the right end of its support, even the box B_1
    assert cardinal_bspline(order, order / 2) == 0.0
    assert cardinal_bspline(order, -order / 2) == (1.0 if order == 1 else 0.0)


def _bspline_de_boor(order, x):
    # the recurrence M_p(t) = (t M_{p-1}(t) + (p - t) M_{p-1}(t - 1))/(p - 1)
    # on t = x + order/2, started from the unit boxes M_1(t - j)
    t = x + order / 2.0
    vals = [np.where((j <= t) & (t < j + 1.0), 1.0, 0.0) for j in range(order)]
    for p in range(2, order + 1):
        vals = [((t - j) * vals[j] + (p - t + j) * vals[j + 1]) / (p - 1)
                for j in range(order - p + 1)]
    return vals[0]


@pytest.mark.parametrize("order", range(1, 25))
def test_bspline_matches_de_boor_recurrence(order):
    # a fine grid plus every breakpoint, where the pieces meet
    x = np.concatenate((np.linspace(-order / 2 - 1, order / 2 + 1, 2001),
                        np.arange(order + 1) - order / 2))
    ref = _bspline_de_boor(order, x)
    vals = cardinal_bspline(order, x)
    assert np.max(np.abs(vals - ref)) <= 1e-15
    # relative accuracy also in the tails, where the values are tiny
    pos = ref > 0.0
    assert np.max(np.abs(vals[pos] - ref[pos]) / ref[pos]) <= 4e-15


@pytest.mark.parametrize("order", [1, 2, 3, 4, 7, 8, 16, 23, 24])
def test_bspline_is_exactly_even(order):
    x = np.linspace(-order / 2, order / 2, 4001)[1:-1]
    x = np.concatenate((x, np.arange(1, order) - order / 2))
    assert np.array_equal(cardinal_bspline(order, x), cardinal_bspline(order, -x))


def test_bspline_rejects_nonfinite_and_ignores_huge_arguments():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ParameterError):
            cardinal_bspline(4, np.array([0.0, bad]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(cardinal_bspline(4, np.array([1e300, -1e300, 1.7e308])) == 0.0)
    assert cardinal_bspline(4, 0.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert isinstance(cardinal_bspline(4, 0.0), float)


def test_bspline_shifted_sum_is_one():
    # sums of integer translates of the cardinal B-spline equal 1
    x = np.linspace(-0.5, 0.5, 101)
    total = sum(cardinal_bspline(4, x - k) for k in range(-4, 5))
    assert np.allclose(total, 1.0, atol=1e-14)
