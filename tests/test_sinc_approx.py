"""Clenshaw-Curtis quadrature and the exponential-sum sinc surrogate."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sincfft.direct import cc_weights_direct, nndft_direct
from sincfft.errors import ParameterError
from sincfft.sinc_approx import (_dct_load, cc_quadrature, sinc_expsum_eval_grid,
                                 sinc_expsum_max_error)


def test_n2_hand_derived_weights():
    # three-point rule on (1, 0, -1): weights 1/6, 2/3, 1/6
    quad = cc_quadrature(2)
    assert np.allclose(quad.points, [1.0, 0.0, -1.0], atol=0)
    assert np.max(np.abs(quad.weights - [1 / 6, 2 / 3, 1 / 6])) <= 1e-15


@pytest.mark.parametrize("n", [2, 3, 5, 8, 20, 64, 257, 1024])
def test_weights_sum_positive_symmetric(n):
    quad = cc_quadrature(n)
    assert abs(np.sum(quad.weights) - 1.0) <= 1e-13
    assert np.all(quad.weights > 0.0)
    assert np.allclose(quad.weights, quad.weights[::-1], atol=1e-15)
    assert np.allclose(quad.points, -quad.points[::-1], atol=0)


@pytest.mark.parametrize("n", [*range(2, 65), 1024, 6144, 65536])
def test_chebyshev_points_are_one_sine(n):
    # z_k = sin(x_k), x_k = fl(fl(pi/(2n)) (n - 2k)): x_k is exactly odd in
    # k, so z is antisymmetric to the bit with an exact zero at k = n/2.
    # x_k is off by at most 2u + 3.9e-17 relative (u = 2^-53, and fl(pi) is
    # 3.9e-17 off), which moves the sine by at most 2.61e-16 x cos x <=
    # 1.47e-16, and the sine itself is within 0.55 ulp, 6.1e-17 for z < 1:
    # 2.1e-16 in all (1.6e-16 measured; a mirrored half table of cosines
    # erred by up to 2.8e-16)
    z = cc_quadrature(n).points
    assert np.array_equal(z, -z[::-1])
    assert n % 2 or z[n // 2] == 0.0
    with mpmath.workdps(40):
        err = max(abs(mpmath.mpf(zk) - mpmath.cos(k * mpmath.pi / n))
                  for k, zk in enumerate(z))
    assert err <= 2.1e-16


@pytest.mark.parametrize("n", [4, 16, 256, 4096])
def test_fast_weights_match_direct(n):
    assert np.max(np.abs(cc_quadrature(n).weights - cc_weights_direct(n))) <= 1e-13


def _check_weights_against_oracle(n):
    w = cc_quadrature(n).weights
    assert np.all(w > 0.0)
    assert abs(np.sum(w) - 1.0) <= 1e-14
    assert np.max(np.abs(w - w[::-1])) <= 1e-15
    assert np.max(np.abs(w - cc_weights_direct(n))) <= 1e-15


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=4096))
def test_dct_weights_match_cosine_sum_for_every_n(n):
    _check_weights_against_oracle(n)


@pytest.mark.parametrize("n", [6144, 12289])
def test_dct_weights_match_cosine_sum_large_n(n):
    # 6144 = 6N at the paper's N = 1024; 12289 is odd and prime
    _check_weights_against_oracle(n)


def test_dct_load_n4():
    ref = np.array([np.sqrt(2), 0.0, -2 / 3, 0.0, -np.sqrt(2) / 15])
    assert np.allclose(_dct_load(4), ref, atol=1e-15)


@pytest.mark.parametrize("n", [2, 6, 17, 32])
def test_polynomial_exactness(n):
    # the rule integrates x^2 against dx/2 exactly: value 1/3
    quad = cc_quadrature(n)
    assert np.sum(quad.weights * quad.points ** 2) == pytest.approx(1 / 3, abs=1e-14)
    assert np.sum(quad.weights * quad.points) == pytest.approx(0.0, abs=1e-15)


def test_surrogate_interpolates_at_zero():
    quad = cc_quadrature(32)
    at_zero = nndft_direct(quad.weights, quad.points, np.zeros(1), 8 / 2)[0]
    assert at_zero == pytest.approx(1.0, abs=1e-14)


def test_surrogate_accuracy_spot_checks():
    # nu = n/N = 6 sits deep in the exponential-decay regime
    N = 16
    quad = cc_quadrature(6 * N)
    x = np.linspace(-1.0, 1.0, 501)
    approx = nndft_direct(quad.weights, quad.points, x, N / 2)
    exact = np.sinc(N * x)
    assert np.max(np.abs(approx - exact)) < 1e-12


def test_grid_path_matches_direct_summation():
    N, R = 16, 128
    quad = cc_quadrature(4 * N)
    grid_vals = sinc_expsum_eval_grid(quad, N, R)
    r = np.arange(R) - R // 2
    direct_vals = nndft_direct(quad.weights, quad.points, 2.0 * r / R, N / 2)
    assert np.max(np.abs(grid_vals - direct_vals)) <= 1e-13


def test_grid_path_is_an_adjoint_style_sum():
    # independent check of the grid evaluator against the plain direct
    # transform with frequencies z_k N / R
    N, R = 8, 64
    quad = cc_quadrature(3 * N)
    vals = sinc_expsum_eval_grid(quad, N, R)
    r = (np.arange(R) - R // 2).astype(float)
    ref = nndft_direct(quad.weights.astype(complex), quad.points * (N / R),
                       r / R, R)
    assert np.max(np.abs(vals - ref)) < 1e-12


def test_max_error_consistent_with_eval():
    N, R = 16, 2000
    quad = cc_quadrature(4 * N)
    reported = sinc_expsum_max_error(quad, N, R)
    r = np.arange(R) - R // 2
    x = 2.0 * r / R
    brute = np.max(np.abs(nndft_direct(quad.weights, quad.points, x, N / 2)
                          - np.sinc(N * x)))
    # the two routes differ only by the grid evaluator's internal rounding
    assert reported == pytest.approx(brute, abs=1e-13)


def test_rejections():
    with pytest.raises(ParameterError):
        cc_quadrature(1)
    with pytest.raises(ParameterError):
        cc_quadrature(4.0)
    with pytest.raises(ParameterError):
        cc_weights_direct(1)
    quad = cc_quadrature(8)
    with pytest.raises(ParameterError):
        sinc_expsum_eval_grid(quad, 4, 7)  # odd grid size
    with pytest.raises(ParameterError):
        sinc_expsum_eval_grid(quad, 64, 64)  # R < 2N
