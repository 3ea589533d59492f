"""Exact quadratic-cost references: determinism and hand-checked values."""

import tracemalloc

import mpmath
import numpy as np
import pytest

from sincfft.direct import ndft_direct, nndft_direct, sinc_transform_direct
from sincfft.errors import ParameterError


def test_nndft_single_term():
    # f=1, v=1/4, x=1/2, N=2: exp(-2 pi i * 2 * (1/4) * (1/2)) = exp(-i pi/2) = -i
    out = nndft_direct(np.array([1.0 + 0j]), np.array([0.25]), np.array([0.5]), 2)
    assert out.shape == (1,)
    assert out[0] == pytest.approx(-1j, abs=1e-15)


def test_nndft_linear_phase():
    # two symmetric frequencies give a pure cosine
    v = np.array([-0.2, 0.2])
    f = np.array([0.5 + 0j, 0.5 + 0j])
    x = np.linspace(-0.5, 0.5, 11)
    out = nndft_direct(f, v, x, 5)
    assert np.allclose(out, np.cos(2 * np.pi * 5 * 0.2 * x), atol=1e-14)


def test_nndft_input_order_invariance():
    rng = np.random.default_rng(42)
    M1, M2 = 67, 41
    v = rng.uniform(-0.4, 0.4, M1)
    x = rng.uniform(-0.5, 0.5, M2)
    f = rng.uniform(-1, 1, M1) + 1j * rng.uniform(-1, 1, M1)
    base = nndft_direct(f, v, x, 16)
    perm = rng.permutation(M1)
    scrambled = nndft_direct(f[perm], v[perm], x, 16)
    assert np.max(np.abs(base - scrambled)) < 1e-13 * np.sum(np.abs(f))


def test_ndft_equispaced_is_fft():
    # at nodes x_j = j/L the polynomial evaluation is a re-indexed inverse FFT
    rng = np.random.default_rng(8)
    N = 32
    c = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    x = (np.arange(N) - N // 2) / N
    out = ndft_direct(c, x)
    k = np.arange(N) - N // 2
    ref = np.array([np.sum(c * np.exp(2j * np.pi * k * xi)) for xi in x])
    assert np.allclose(out, ref, atol=1e-12)


def test_ndft_rejects_odd_length():
    with pytest.raises(ParameterError):
        ndft_direct(np.ones(5, dtype=complex), np.zeros(3))


def test_sinc_transform_small_case():
    a = np.array([0.0, 0.25])
    b = np.array([0.0, -0.25])
    c = np.array([1.0 + 0j, 2.0 + 0j])
    N = 4
    out = sinc_transform_direct(c, a, b, N)
    ref0 = c[0] * np.sinc(0.0) + c[1] * np.sinc(N * (0.0 - 0.25))
    ref1 = c[0] * np.sinc(N * (-0.25)) + c[1] * np.sinc(N * (-0.5))
    assert out[0] == pytest.approx(ref0, abs=1e-15)
    assert out[1] == pytest.approx(ref1, abs=1e-15)


def test_direct_linearity():
    rng = np.random.default_rng(9)
    v = rng.uniform(-0.4, 0.4, 20)
    x = rng.uniform(-0.5, 0.5, 15)
    f1 = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    f2 = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    lhs = nndft_direct(f1 + 2.5 * f2, v, x, 12)
    rhs = nndft_direct(f1, v, x, 12) + 2.5 * nndft_direct(f2, v, x, 12)
    assert np.allclose(lhs, rhs, atol=1e-12)


def _mp_sums(coef, targets, term):
    # sum_k coef_k term(x_j, k) of the exact binary inputs at 30 digits
    with mpmath.workdps(30):
        return np.array([complex(mpmath.fsum(
            mpmath.mpc(ck.real, ck.imag) * term(mpmath.mpf(xj), k)
            for k, ck in enumerate(coef))) for xj in targets])


# the sums run in blocks of 4096 terms: one block, several targets per
# block, and two full blocks plus a remainder along each target
@pytest.mark.parametrize("terms, targets", [(300, 17), (100, 50),
                                            (2 * 4096 + 5, 3)])
def test_blocked_sums_agree_with_mpmath(terms, targets):
    rng = np.random.default_rng(terms)
    c = rng.uniform(-1, 1, terms) + 1j * rng.uniform(-1, 1, terms)
    a = rng.uniform(-0.5, 0.5, terms)
    x = rng.uniform(-0.5, 0.5, targets)
    even = c[:terms // 2 * 2]
    pi, src = mpmath.pi, [mpmath.mpf(ak) for ak in a]
    for out, coef, term in (
            (nndft_direct(c, a, x, 8), c,
             lambda xj, k: mpmath.expj(-16 * pi * src[k] * xj)),
            (ndft_direct(even, x), even,
             lambda xj, k: mpmath.expj(2 * pi * (k - even.size // 2) * xj)),
            (sinc_transform_direct(c, a, x, 8), c,
             lambda xj, k: mpmath.sincpi(8 * (xj - src[k])))):
        assert out.shape == (targets,)
        ref = _mp_sums(coef, x, term)
        assert np.max(np.abs(out - ref)) < 1e-13 * np.sum(np.abs(coef))


def _rel_err(out, ref, coef):
    return np.max(np.abs(out - ref)) / np.sum(np.abs(coef))


# reference sums on unreduced phases, np.exp of the whole phase and np.sinc
# of N (b - a): the oracles, which reduce them, must be at least as accurate
def _unreduced_nndft(f, v, x, N):
    return (f * np.exp(-2j * np.pi * N * (x[:, None] * v))).sum(axis=1)


def _unreduced_sinc(c, a, b, N):
    return (c * np.sinc(N * (b[:, None] - a))).sum(axis=1)


@pytest.mark.parametrize("N", [65536, 1200])
def test_nndft_with_large_phases_agrees_with_mpmath(N):
    rng = np.random.default_rng(N)
    f = rng.uniform(-1, 1, 4096) + 1j * rng.uniform(-1, 1, 4096)
    v = rng.uniform(-0.5, 0.5, 4096)
    x = rng.uniform(-0.5, 0.5, 4)
    src = [mpmath.mpf(vk) for vk in v]
    ref = _mp_sums(f, x, lambda xj, k: mpmath.expj(-2 * mpmath.pi * N * src[k] * xj))
    err = _rel_err(nndft_direct(f, v, x, N), ref, f)
    assert err < 1e-13
    assert err <= _rel_err(_unreduced_nndft(f, v, x, N), ref, f)


@pytest.mark.parametrize("N", [16384, 1000, 12345.5])
def test_sinc_with_large_phases_agrees_with_mpmath(N):
    # random targets, a target on a source, targets within and beyond
    # |N (b - a)| = 1 of a source, and targets on the grid k / N
    rng = np.random.default_rng(int(N))
    c = rng.uniform(-1, 1, 4096) + 1j * rng.uniform(-1, 1, 4096)
    a = rng.uniform(-0.5, 0.5, 4096)
    b = np.concatenate([rng.uniform(-0.5, 0.5, 3), a[:1],
                        a[1:4] + np.array([0.999999, -1.0, 1.000001]) / N,
                        np.array([0, 7, -100]) / N])
    Nm, src = mpmath.mpf(N), [mpmath.mpf(ak) for ak in a]
    ref = _mp_sums(c, b, lambda bj, k: mpmath.sincpi(Nm * (bj - src[k])))
    err = _rel_err(sinc_transform_direct(c, a, b, N), ref, c)
    assert err < 1e-13
    assert err <= _rel_err(_unreduced_sinc(c, a, b, N), ref, c)


def test_oracle_temporaries_do_not_grow_with_the_input():
    # one target against 131072 coefficients, as a sampled spot check
    # calls it: blocks of 4096 terms, never a row of all of them
    rng = np.random.default_rng(11)
    M1 = 131072
    f = rng.standard_normal(M1) + 1j * rng.standard_normal(M1)
    v = rng.uniform(-0.5, 0.5, M1)
    x = np.array([0.3])
    for oracle in (lambda: nndft_direct(f, v, x, 1000), lambda: ndft_direct(f, x),
                   lambda: sinc_transform_direct(f, v, x, 1000)):
        oracle()  # first call: one-time costs
        tracemalloc.start()
        try:
            out = oracle()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 256 * 1024 + out.nbytes
