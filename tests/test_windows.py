"""Window shapes: membership in the admissible set and transform accuracy."""

import functools
import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sincfft import windows
from sincfft.errors import ParameterError
from sincfft.windows import (WindowSpec, omega_hat_eval, phi_eval,
                             phi_hat_eval, phi_rows, window_kinds)

SPECS = {
    "sinh": WindowSpec("sinh", 4, 2.0, 64),
    "bspline": WindowSpec("bspline", 4, 2.0, 64),
}


def _omega(spec, x):
    # the shape omega(x) is the window phi(x / 2) on a grid of 2m points
    shape = WindowSpec(spec.kind, spec.m, spec.sigma, 2 * spec.m)
    return phi_eval(shape, np.asarray(x, dtype=float) / 2)


def _quad_transform(spec, v):
    # 2 int_0^1 omega(x) cos(2 pi v x) dx by QUADPACK's cosine-weighted rule
    val, _ = quad(lambda x: _omega(spec, x), 0.0, 1.0, weight="cos",
                  wvar=2.0 * np.pi * v, limit=400, epsabs=1e-13, epsrel=1e-13)
    return 2.0 * val


@pytest.mark.parametrize("kind", window_kinds())
def test_omega_membership(kind):
    """Even, normalized at 0, decreasing on [0,1], zero outside [-1,1]."""
    spec = SPECS[kind]
    x = np.linspace(0.0, 1.0, 501)
    vals = _omega(spec, x)
    assert _omega(spec, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(_omega(spec, -x), vals, atol=1e-15)
    assert np.all(np.diff(vals) <= 1e-14)
    assert np.all(vals >= 0.0)
    assert _omega(spec, 1.2) == 0.0
    assert np.all(_omega(spec, np.array([-3.0, 1.0 + 1e-9])) == 0.0)


@pytest.mark.parametrize("kind", window_kinds())
def test_omega_hat_positive_decreasing_on_band(kind):
    spec = SPECS[kind]
    # positivity band from the admissibility condition: [0, m/(2 sigma)]
    v = np.linspace(0.0, spec.m / (2.0 * spec.sigma), 41)
    hat = omega_hat_eval(spec, v)
    assert np.all(hat > 0.0)
    assert np.all(np.diff(hat) < 1e-13)


@pytest.mark.parametrize("kind", window_kinds())
def test_omega_hat_matches_quadrature(kind):
    """Closed forms agree with direct numerical evaluation of the transform."""
    spec = SPECS[kind]
    v = np.array([0.0, 0.3, 1.0, 2.7, spec.m / (2.0 * spec.sigma), 2.0 * spec.m])
    closed = omega_hat_eval(spec, v)
    for vi, ci in zip(v, closed):
        ref, _ = quad(lambda x: 2.0 * _omega(spec, np.array([x]))[0]
                      * np.cos(2.0 * np.pi * vi * x), 0.0, 1.0, limit=400,
                      epsabs=1e-13, epsrel=1e-13)
        assert ci == pytest.approx(ref, abs=2e-9)


def test_sinh_hat_branch_continuity():
    """The Bessel-I / 0F1 branches join smoothly at w = 0."""
    spec = SPECS["sinh"]
    v0 = spec.beta / (2.0 * np.pi)  # w = beta^2 - 4 pi^2 v^2 vanishes here
    v = v0 + np.linspace(-1e-4, 1e-4, 9)
    hat = omega_hat_eval(spec, v)
    assert np.all(np.isfinite(hat))
    # second differences stay tiny across the seam
    assert np.max(np.abs(np.diff(hat, 2))) < 1e-10


@pytest.mark.parametrize("m", [2, 6, 8, 16, 40])
def test_sinh_hat_off_the_band_against_mpmath(m):
    """From v0 - 1e-2 to v0 + 1e5, v0 = beta/(2 pi), where w = beta^2 -
    4 pi^2 v^2 changes sign: pi beta 0F1(; 2; w/4)/(2 sinh(beta)) to 1e-15
    of max|omega_hat| = omega_hat(0), in one call mixing both branches."""
    for sigma in (1.25, 2.0):
        spec = WindowSpec("sinh", m, sigma, 2 * m)
        v0 = spec.beta / (2.0 * np.pi)
        v = v0 + np.concatenate((np.linspace(-1e-2, 0.0, 6),
                                 np.geomspace(1e-9, 1e5, 40)))
        with mpmath.workdps(50):
            b, pi = mpmath.mpf(spec.beta), mpmath.pi
            ref = [float(pi * b * mpmath.hyp0f1(2, (b * b - 4 * pi * pi
                                                    * mpmath.mpf(vi) ** 2) / 4)
                         / (2 * mpmath.sinh(b))) for vi in v]
        err = np.max(np.abs(omega_hat_eval(spec, v) - ref))
        assert err <= 1e-15 * omega_hat_eval(spec, 0.0)


def test_sinh_hat_against_quadrature_wide_range():
    spec = WindowSpec("sinh", 6, 1.25, 64)
    v = np.linspace(0.0, 2.0 * spec.m, 25)
    closed = omega_hat_eval(spec, v)
    ref = np.array([_quad_transform(spec, vi) for vi in v])
    assert np.max(np.abs(closed - ref)) < 1e-9


def test_bspline_hat_at_zero():
    # integral of the scaled B-spline shape: 1/(m * B_{2m}(0)); m=2 gives 3/4
    spec = WindowSpec("bspline", 2, 2.0, 64)
    assert omega_hat_eval(spec, 0.0) == pytest.approx(0.75, rel=1e-13)


def test_phi_dilations():
    spec = SPECS["sinh"]
    t = np.array([0.0, 0.01, -0.03, 0.06])
    assert np.allclose(phi_eval(spec, t),
                       _omega(spec, t * spec.n_grid / spec.m), atol=0)
    v = np.array([0.0, 1.0, 5.0, 31.0])
    assert np.allclose(phi_hat_eval(spec, v),
                       (spec.m / spec.n_grid)
                       * omega_hat_eval(spec, v * spec.m / spec.n_grid), atol=0)


def test_spec_validation():
    with pytest.raises(ParameterError):
        WindowSpec("gauss", 4, 2.0, 64)
    with pytest.raises(ParameterError):
        WindowSpec("sinh", 1, 2.0, 64)
    with pytest.raises(ParameterError):
        WindowSpec("sinh", 4, 2.5, 64)  # outside [5/4, 2]
    with pytest.raises(ParameterError):
        WindowSpec("sinh", 4, 1.1, 64)
    with pytest.raises(ParameterError):
        WindowSpec("bspline", 4, 2.0, 63)  # odd grid
    with pytest.raises(ParameterError):
        WindowSpec("bspline", 40, 2.0, 64)  # support exceeds grid
    # the B-spline is not tied to the sinh sigma range
    WindowSpec("bspline", 4, 3.0, 64)
    WindowSpec("bspline", 4, 1.1, 64)


@pytest.mark.parametrize("kind", window_kinds())
@pytest.mark.parametrize("shape", [(1,), (16383,), (16384,), (16385,),
                                   (32771,), (5461, 8)])
def test_blocks_match_one_element_at_a_time(kind, shape):
    """A whole array gives, bit for bit, its elements one at a time."""
    spec = SPECS[kind]
    x = np.random.default_rng(len(shape) * 16384 + shape[0]).uniform(
        -1.1, 1.1, shape)
    x.flat[:4] = (0.0, 1.0, -1.0, 0.5)
    t = x * (spec.m / spec.n_grid)
    # every element near the ends and near each multiple of 16384, and a
    # sample from the interior
    n = x.size
    picks = [np.arange(n)[:64], np.arange(n)[-64:],
             np.random.default_rng(n).integers(0, n, 256)]
    picks += [np.arange(max(0, b - 32), min(n, b + 32))
              for b in range(16384, n, 16384)]
    picks = np.unique(np.concatenate(picks))
    for evaluate, arg in ((_omega, x), (phi_eval, t)):
        out = evaluate(spec, arg)
        assert out.shape == shape
        ref = [evaluate(spec, a) for a in arg.flat[picks]]
        assert np.array_equal(out.flat[picks], ref)


@pytest.mark.parametrize("kind", window_kinds())
def test_scalar_argument_gives_float(kind):
    spec = SPECS[kind]
    for evaluate in (_omega, phi_eval):
        val = evaluate(spec, 0.0)
        assert type(val) is float and val == pytest.approx(1.0, abs=1e-14)
        assert evaluate(spec, np.float64(0.0)) == val


@pytest.mark.parametrize("kind", window_kinds())
def test_nonfinite_argument_is_rejected(kind):
    spec = SPECS[kind]
    for evaluate in (_omega, phi_eval, omega_hat_eval, phi_hat_eval):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ParameterError):
                evaluate(spec, bad)
            x = np.zeros(32771)
            x[-1] = bad  # past the first 16384 elements
            with pytest.raises(ParameterError):
                evaluate(spec, x)


@pytest.mark.parametrize("kind", window_kinds())
def test_huge_finite_argument_is_outside_the_support(kind):
    spec = SPECS[kind]
    x = np.array([1e300, -1e300, np.finfo(float).max, -np.finfo(float).max])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for evaluate in (_omega, phi_eval):
            assert np.all(evaluate(spec, x) == 0.0)


def _sinh_exact(m, sigma, ys):
    # the sinh shape sinh(b sqrt(1 - y^2))/sinh(b) at the exact rationals ys,
    # by mpmath at 40 digits
    with mpmath.workdps(40):
        b = 2 * mpmath.pi * m * (1 - 1 / (2 * mpmath.mpf(sigma)))
        v = [mpmath.mpf(y.numerator) / y.denominator for y in ys]
        return [float(mpmath.sinh(b * mpmath.sqrt(1 - y * y)) / mpmath.sinh(b))
                if abs(y) < 1 else 0.0 for y in v]


def _exact_rows(spec, t):
    # phi((t_j - l)/n), l = 1-m .. m, at the exact arguments of the float
    # fractions t: mpmath for sinh, exact rationals for the B-spline (its
    # truncated-power form over B_2m(0))
    m = spec.m
    args = [Fraction(tj) - l for tj in t for l in range(1 - m, m + 1)]
    if spec.kind == "bspline":
        order = 2 * m

        def bspline(x):
            x += m
            return sum((-1) ** k * math.comb(order, k) * (x - k) ** (order - 1)
                       for k in range(order + 1) if x > k)
        b0 = bspline(Fraction(0))
        rows = [float(bspline(x) / b0) for x in args]
    else:
        rows = _sinh_exact(m, spec.sigma, [x / m for x in args])
    return np.reshape(rows, (t.size, 2 * m))


# fractions with at most 44 bits, so that t - l and 1 - t are exact
_DYADIC = st.one_of(st.integers(0, 2**44).map(lambda k: k / 2**44),
                    st.sampled_from([0.0, 1.0 - 2.0**-44, 1.0]))
_FRACTIONS = st.one_of(
    st.floats(0.0, 1.0), _DYADIC,
    st.sampled_from([np.nextafter(1.0, 0.0), 1.0 - 2.0**-52, 5e-324, 1e-13,
                     1.0 - 1e-13]))


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(window_kinds()), m=st.integers(2, 16),
       sigma=st.sampled_from([1.25, 1.5, 2.0]), data=st.data())
def test_phi_rows_match_the_window(kind, m, sigma, data):
    """Within 1e-15 of the window at the exact arguments: sinh for m up to
    16, the B-spline for m up to 10 (absolute, as the transforms' error is
    absolute per unit sum of |coefficients|); exact zeros at both ends."""
    if kind == "bspline":
        m = min(m, 10)
    n = data.draw(st.one_of(
        st.integers(m, 2048).map(lambda k: 2 * k),
        st.integers((2 * m - 1).bit_length(), 16).map(lambda e: 2**e)))
    spec = WindowSpec(kind, m, sigma, n)
    t = np.array(data.draw(st.lists(_FRACTIONS, min_size=1, max_size=12)))
    rows = phi_rows(spec, t)
    assert rows.shape == (t.size, 2 * m) and rows.flags.c_contiguous
    assert np.all(np.abs(rows - _exact_rows(spec, t)) <= 1e-15)
    # a node on a grid point ends, one a step after it starts, in the
    # window's exact zero
    assert np.all(rows[t == 0.0, -1] == 0.0)
    assert np.all(rows[t == 1.0, 0] == 0.0)


def test_phi_rows_clamp_rounded_arguments():
    # at m = 3, n = 210 the first argument of t just below 1, rounded as
    # t/n + (m-1)/n, is 1 + 2^-52 in units of m/n, outside the support; the
    # row takes no rounded argument and keeps the true value, about 1.8e-13
    t = np.array([np.nextafter(1.0, 0.0), 1.0])
    spec = WindowSpec("sinh", 3, 2.0, 210)
    assert (t[0] / 210 + 2 / 210) / (3 / 210) > 1.0
    rows = phi_rows(spec, t)
    exact = _exact_rows(spec, t)
    assert 1e-13 < exact[0, 0] < 1e-12
    assert np.all(np.abs(rows - exact) <= 1e-15) and rows[1, 0] == 0.0


@pytest.mark.parametrize("kind", window_kinds())
@pytest.mark.parametrize("m", [2, 3, 6, 9])
def test_phi_rows_are_mirrored(kind, m):
    """The window is even: the row of 1 - t is the row of t reversed, bit
    for bit, where 1 - t is exact."""
    spec = WindowSpec(kind, m, 1.5, 4 * m)
    t = np.r_[np.random.default_rng(m).integers(0, 2**44, 300) / 2**44,
              0.0, 0.5, 1.0]
    assert np.array_equal(phi_rows(spec, 1.0 - t), phi_rows(spec, t)[:, ::-1])


@pytest.mark.parametrize("kind", window_kinds())
def test_phi_rows_fit_once_for_every_grid(kind, monkeypatch):
    """The coefficient matrix depends on (kind, m, sigma), not on n_grid."""
    fits = []
    fit = windows._row_coefficients.__wrapped__

    def counted(*key):
        fits.append(key)
        return fit(*key)
    monkeypatch.setattr(windows, "_row_coefficients",
                        functools.lru_cache(counted))
    t = np.linspace(0.0, 1.0, 9)
    rows = [phi_rows(WindowSpec(kind, 5, 1.5, n), t) for n in (10, 64, 4096)]
    assert fits == [(kind, 5, 1.5)]
    assert all(np.array_equal(rows[0], r) for r in rows[1:])


def _product_blocks(spec, size):
    # (first, end) rows of every product phi_rows runs: power tables of
    # _POWERS rows, each split into products within _GEMM multiply-adds,
    # a last block or product of one row moved back a row
    if size == 1:
        return [(0, 2)]
    per_product = max(2, windows._GEMM // windows._row_coefficients(
        spec.kind, spec.m, spec.sigma).size)
    blocks = []
    for lo in range(0, size, windows._POWERS):
        lo = min(lo, size - 2)
        rows = min(windows._POWERS, size - lo)
        for s in range(0, rows, per_product):
            s = min(s, rows - 2)
            blocks.append((lo + s, lo + min(s + per_product, rows)))
    return blocks


@pytest.mark.parametrize("kind", window_kinds())
@pytest.mark.parametrize("m", [2, 8, 16])
def test_phi_rows_products_run_on_one_thread(kind, m, monkeypatch):
    """One product of width 2m per block of rows, each with two rows or more
    (one row takes another BLAS path, which rounds differently) and at most
    2^18 multiply-adds, below which OpenBLAS starts no thread."""
    shapes = []
    matmul = np.matmul

    def recorded(a, b, **kw):
        shapes.append(a.shape + b.shape[1:])
        return matmul(a, b, **kw)
    monkeypatch.setattr(np, "matmul", recorded)
    spec = WindowSpec(kind, m, 2.0, 1 << 12)
    per_product = windows._GEMM // windows._row_coefficients(kind, m, 2.0).size
    for size in (1, 2, per_product + 1, 3 * per_product, windows._POWERS + 1,
                 2 * windows._POWERS + 3):
        shapes.clear()
        phi_rows(spec, np.random.default_rng(size).uniform(0.0, 1.0, size))
        blocks = _product_blocks(spec, size)
        assert [r for r, _, _ in shapes] == [hi - lo for lo, hi in blocks]
        assert all(r >= 2 and r * k * c <= 2**18 and c == 2 * m
                   for r, k, c in shapes)


def test_phi_rows_allocate_little_beyond_their_output():
    """The block buffers are sized by the input: a sinc-paper stage table,
    512 nodes at m = 6, takes at most 104 kB beside its rows."""
    spec = WindowSpec("sinh", 6, 2.0, 4096)
    t = np.random.default_rng(5).uniform(0.0, 1.0, 512)
    phi_rows(spec, t)  # the coefficient matrix is made once
    tracemalloc.start()
    try:
        out = phi_rows(spec, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 104_000


def test_phi_rows_allocate_one_power_table_for_a_large_table():
    """131072 rows at m = 8 take their output, one power table of _POWERS
    rows and a few vectors of that length, whatever their number."""
    spec = WindowSpec("sinh", 8, 2.0, 1 << 18)
    t = np.random.default_rng(6).uniform(0.0, 1.0, 131072)
    terms = windows._row_coefficients("sinh", 8, 2.0).shape[0]
    phi_rows(spec, t[:2])
    tracemalloc.start()
    try:
        out = phi_rows(spec, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + (terms + 4) * windows._POWERS * 8


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 12, 16])
@pytest.mark.parametrize("sigma", [1.25, 1.5, 2.0])
def test_sinh_window_agrees_with_mpmath(m, sigma):
    """The closed form within 2^-52 of the window at its float arguments,
    also within 1e-15 of the branch points +-1."""
    spec = WindowSpec("sinh", m, sigma, 2 * m)  # phi(t) = omega(2 t)
    y = np.r_[np.random.default_rng(m).uniform(-1.0, 1.0, 200), 0.0, 1e-8,
              np.multiply.outer([-1.0, 1.0], 1.0 - np.array(
                  [1e-15, 5e-16, 2.0**-53, 1e-13, 0.0])).ravel()]
    exact = _sinh_exact(m, sigma, map(Fraction, y))
    assert np.all(np.abs(phi_eval(spec, y / 2) - exact) <= 2.0**-52)


@pytest.mark.parametrize("kind", window_kinds())
def test_phi_rows_blocks_match_one_row_at_a_time(kind):
    """Rows on both sides of every product's and every power table's edges,
    also where the last of either is moved back a row so as not to hold one
    row alone."""
    spec = WindowSpec(kind, 6, 2.0, 4096)
    per_product = windows._GEMM // windows._row_coefficients(kind, 6, 2.0).size
    for size in (2 * per_product + 3, 2 * per_product + 1,
                 windows._POWERS + 1, windows._POWERS + per_product + 1):
        t = np.random.default_rng(size).uniform(0.0, 1.0, size)
        rows = phi_rows(spec, t)
        picks = {j for lo, _ in _product_blocks(spec, size)
                 for j in range(lo - 2, lo + 2) if 0 <= j < size}
        for j in sorted(picks | {size - 3, size - 2, size - 1}):
            assert np.array_equal(rows[j], phi_rows(spec, t[j:j + 1])[0]), (size, j)
