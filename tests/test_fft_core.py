"""FFT and DCT-I wrappers against quadratic-cost matrix oracles."""

import numpy as np
import pytest

from sincfft import fft_core
from sincfft.errors import ParameterError


def _dft_matrix(L, sign):
    k = np.arange(L)
    return np.exp(sign * 2j * np.pi * np.outer(k, k) / L)


@pytest.mark.parametrize("L", [1, 2, 3, 8, 12, 100, 528])
def test_fft_matches_matrix_oracle(L):
    rng = np.random.default_rng(1234 + L)
    v = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    fwd = fft_core.fft(v.copy(), "forward")
    inv = fft_core.fft(v.copy(), "inverse")
    assert np.allclose(fwd, _dft_matrix(L, -1) @ v, atol=1e-10 * L)
    assert np.allclose(inv, _dft_matrix(L, +1) @ v, atol=1e-10 * L)


@pytest.mark.parametrize("L", [4, 12, 100, 528])
def test_fft_parseval(L):
    rng = np.random.default_rng(7)
    v = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    fwd = fft_core.fft(v.copy(), "forward")
    assert np.sum(np.abs(fwd) ** 2) == pytest.approx(L * np.sum(np.abs(v) ** 2),
                                                     rel=1e-13)


def test_fft_round_trip():
    rng = np.random.default_rng(11)
    v = rng.standard_normal(96) + 1j * rng.standard_normal(96)
    back = fft_core.fft(fft_core.fft(v.copy(), "forward"), "inverse") / 96
    assert np.allclose(back, v, atol=1e-13)


def test_fft_rejects():
    with pytest.raises(ParameterError):
        fft_core.fft(np.ones(4), "backward")
    with pytest.raises(ParameterError):
        fft_core.fft(np.ones((2, 2)), "forward")
    with pytest.raises(ParameterError):
        fft_core.fft(np.ones(6), "forward", blocks=4)
    with pytest.raises(ParameterError, match="got bool"):
        fft_core.fft(np.ones(4), "forward", blocks=True)


@pytest.mark.parametrize("L, P", [(12, 1), (12, 2), (12, 3), (528, 2)])
@pytest.mark.parametrize("direction, sign", [("forward", -1), ("inverse", +1)])
def test_fft_blocks_transform_each_interleaved_column(L, P, direction, sign):
    rng = np.random.default_rng(L + P)
    v = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    ref = (_dft_matrix(L // P, sign) @ v.reshape(-1, P)).ravel()
    # the transform runs in the memory of a complex input
    buf = v.copy()
    out = fft_core.fft(buf, direction, blocks=P)
    assert np.shares_memory(out, buf)
    assert np.allclose(out, ref, atol=1e-10 * L)


def _dct1_matrix(n):
    # orthonormal DCT-I on n+1 points with half-weighted endpoints
    def eps(idx):
        return np.where((idx == 0) | (idx == n), np.sqrt(0.5), 1.0)

    j = np.arange(n + 1)
    mat = (np.sqrt(2.0 / n) * eps(j)[:, None] * eps(j)[None, :]
           * np.cos(np.pi * np.outer(j, j) / n))
    return mat


@pytest.mark.parametrize("n", [2, 4, 7, 16, 64])
def test_dct1_matches_matrix_oracle(n):
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n + 1)
    assert np.allclose(fft_core.dct1(v), _dct1_matrix(n) @ v, atol=1e-12)


def test_dct1_hand_value():
    # (1, 0, 0) -> first column of the n=2 matrix: (1/2, sqrt(2)/2, 1/2)
    out = fft_core.dct1(np.array([1.0, 0.0, 0.0]))
    assert np.allclose(out, [0.5, np.sqrt(2) / 2, 0.5], atol=1e-15)


def test_dct1_involution():
    # the orthonormal DCT-I is its own inverse
    rng = np.random.default_rng(3)
    v = rng.standard_normal(17)
    assert np.allclose(fft_core.dct1(fft_core.dct1(v)), v, atol=1e-13)


def test_dct1_rejects_short():
    with pytest.raises(ParameterError):
        fft_core.dct1(np.ones(2))
