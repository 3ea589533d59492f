"""Closed-form bounds: frozen oracles, assembly consistency, monotonicity."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sincfft import bounds
from sincfft.errors import ParameterError
from sincfft.windows import WindowSpec, phi_hat_eval

# values computed independently (mpmath / hand assembly) before the
# closed forms were implemented, then frozen
NNFFT_BOUND_PAPER_SCALE = 0.010918764328663988   # N=1200, sigma=2, m1=m2=4
NNFFT_BOUND_DESK_SCALE = 4.233675150056723e-07   # N=128,  sigma=2, m1=m2=6
SINH_E_M6_S2 = 9.60421890348206e-10


def test_decay_constant_vs_mpmath():
    ref = float(mpmath.pi * (mpmath.e ** 2 - 1) / (2 * mpmath.e))
    assert abs(bounds.SINC_DECAY_CONSTANT - ref) <= 1e-15
    # same number as pi*sinh(1)
    assert bounds.SINC_DECAY_CONSTANT == pytest.approx(math.pi * math.sinh(1.0),
                                                       rel=1e-15)


def test_frozen_regression_values():
    assert bounds.bound_nnfft_sinh(1200, 2.0, 2.0, 4, 4) == pytest.approx(
        NNFFT_BOUND_PAPER_SCALE, rel=1e-14)
    assert bounds.bound_nnfft_sinh(128, 2.0, 2.0, 6, 6) == pytest.approx(
        NNFFT_BOUND_DESK_SCALE, rel=1e-14)
    assert bounds.bound_sinh_E(6, 2.0) == pytest.approx(SINH_E_M6_S2, rel=1e-14)


def test_hat_phi_half_matches_window_transform():
    # the closed form must equal the generic window-transform route
    for N, m, sigma in [(128, 6, 2.0), (64, 4, 1.25), (200, 3, 1.5)]:
        n1 = round(sigma * N)
        spec = WindowSpec("sinh", m, sigma, int(n1))
        via_window = phi_hat_eval(spec, N / 2.0)
        closed = bounds.hat_phi_sinh_at_half(N, sigma, m)
        assert closed == pytest.approx(via_window, rel=1e-12)


@pytest.mark.parametrize("sigma", [1.25, 2.0])
@pytest.mark.parametrize("m", [2, 8, 200])
def test_hat_phi_half_matches_mpmath(m, sigma):
    # the closed form in extended precision; I1(arg) alone overflows a
    # double from m of about 160 at sigma = 2
    N = 128
    with mpmath.workdps(40):
        s = mpmath.mpf(sigma)
        beta = 2 * mpmath.pi * m * (1 - 1 / (2 * s))
        arg = 2 * mpmath.pi * m * mpmath.sqrt(1 - 1 / s)
        ref = (m * mpmath.pi / (s * N) * (1 - 1 / (2 * s)) / mpmath.sqrt(1 - 1 / s)
               * mpmath.besseli(1, arg) / mpmath.sinh(beta))
    assert bounds.hat_phi_sinh_at_half(N, sigma, m) == pytest.approx(float(ref), rel=1e-12)


@pytest.mark.parametrize("sigma", [1.25, 1.5, 2.0])
@pytest.mark.parametrize("m", [2, 3, 4, 6, 8])
@pytest.mark.parametrize("N", [64, 128, 1200])
def test_two_stage_assembly_dominates_proof_route(N, m, sigma):
    """e1 + (a / hat_phi1(N/2) via the proof's intermediate estimate) * e2
    never exceeds the packaged closed form."""
    N1 = sigma * N
    a = (N1 + 2 * m) / N1
    e = bounds.bound_sinh_E(m, sigma)
    f_int = (5.0 * N1 * a / (2.0 * math.sqrt(2.0 * m * math.pi))
             / (1.0 - 1.0 / (2.0 * sigma)) * (1.0 - 1.0 / sigma) ** 0.75
             * math.exp(-2.0 * math.pi * m * (math.sqrt(1.0 - 1.0 / sigma)
                                              - 1.0 + 1.0 / (2.0 * sigma))))
    assembled = e + f_int * e
    assert assembled <= bounds.bound_nnfft_sinh(N, sigma, sigma, m, m) + 1e-12


def test_nnfft_bound_monotone_in_cutoff():
    for sigma in (1.25, 1.5, 2.0):
        vals = [bounds.bound_nnfft_sinh(128, sigma, sigma, m, m)
                for m in range(2, 9)]
        assert np.all(np.diff(vals) < 0)


def test_cc_bound_behavior():
    # decreasing in nu, decreasing in N once nu clears the threshold
    vals_nu = [bounds.bound_cc_sinc(64, nu) for nu in (4, 5, 6, 7)]
    assert np.all(np.diff(vals_nu) < 0)
    vals_n = [bounds.bound_cc_sinc(N, 4.0) for N in (8, 16, 32, 64)]
    assert np.all(np.diff(vals_n) < 0)
    # below the threshold the "bound" grows and eventually overflows to inf
    assert bounds.bound_cc_sinc(16, 2.0) > bounds.bound_cc_sinc(16, 4.0)
    assert bounds.bound_cc_sinc(10 ** 6, 1.0) == math.inf


def test_choose_n_crossover():
    assert bounds.choose_n(128, 1e-8) == 512
    n = bounds.choose_n(128, 1e-8)
    assert bounds.bound_cc_sinc(128, n / 128) < 1e-8
    assert bounds.bound_cc_sinc(128, n / 2 / 128) >= 1e-8


def test_fast_sinc_bound_forms():
    eps = 1e-9
    rep = bounds.bound_report(1200, 4, 6, 2.0, 1.5, 4.0, epsilon=eps)
    B = rep.e1 + rep.a * rep.e2 / rep.hat_phi1_half
    assert rep.epsilon == eps and rep.b_term == B < 1.0
    assert rep.full == pytest.approx(eps + 2 * B + B * B, rel=1e-15)
    # the full form holds also for B > 1, where the simplified one does not
    rep = bounds.bound_report(128, 2, 2, 1.25, 1.25, 4.0, epsilon=eps)
    B = rep.b_term
    assert B > 1.0 and not rep.simplified_valid
    assert rep.full == pytest.approx(eps + 2 * B + B * B, rel=1e-15)
    assert rep.full > 1.0


def test_bound_report_assembles_consistently():
    rep = bounds.bound_report(128, 6, 6, 2.0, 2.0, 4.0)
    assert rep.e1 == bounds.bound_sinh_E(6, 2.0)
    # epsilon defaults to the cc level
    assert rep.epsilon == bounds.bound_cc_sinc(128, 4.0)
    assert rep.nnfft_bound == bounds.bound_nnfft_sinh(128, 2.0, 2.0, 6, 6)
    B = rep.e1 + rep.a * rep.e2 / rep.hat_phi1_half
    assert rep.b_term == B
    assert rep.full == pytest.approx(rep.epsilon + 2 * B + B * B, rel=1e-15)
    assert rep.simplified == pytest.approx(
        rep.epsilon + 3 * rep.e1 + 3 * rep.a * rep.e2 / rep.hat_phi1_half,
        rel=1e-15)
    assert rep.simplified_valid
    assert rep.full <= rep.simplified
    # explicit epsilon overrides the cc level
    rep2 = bounds.bound_report(128, 6, 6, 2.0, 2.0, 4.0, epsilon=1e-3)
    assert rep2.epsilon == 1e-3
    assert rep2.full == pytest.approx(1e-3 + 2 * B + B * B, rel=1e-12)


def test_parameter_rejections():
    with pytest.raises(ParameterError):
        bounds.bound_sinh_E(1, 2.0)
    with pytest.raises(ParameterError):
        bounds.bound_sinh_E(4, 2.5)
    with pytest.raises(ParameterError):
        bounds.bound_nnfft_sinh(128, 2.0, 2.0, 6, 4)  # m2 < m1
    with pytest.raises(ParameterError):
        bounds.bound_cc_sinc(0, 4.0)
    with pytest.raises(ParameterError):
        bounds.choose_n(128, 2.0)


def test_large_cutoffs_reference_case():
    # at m1 = m2 = 3000 the growing factor alone overflows a double and
    # hat_phi_1(N/2) underflows to 0; both only meet in the exponent
    assert bounds.bound_nnfft_sinh(128, 2.0, 2.0, 3000, 3000) == 0.0
    rep = bounds.bound_report(128, 3000, 3000, 2.0, 2.0, 4.0)
    assert rep.hat_phi1_half == 0.0 and rep.b_term == 0.0
    assert rep.full == rep.epsilon == bounds.bound_cc_sinc(128, 4.0)


@settings(max_examples=300, deadline=None)
@given(N=st.integers(min_value=1, max_value=10**6),
       sigma1=st.floats(min_value=1.1, max_value=2.2),
       sigma2=st.floats(min_value=1.1, max_value=2.2),
       cutoffs=st.lists(st.integers(min_value=0, max_value=10**4),
                        min_size=2, max_size=2),
       swap=st.booleans(),
       nu=st.floats(min_value=1.0, max_value=8.0))
def test_every_bound_is_finite_or_rejected(N, sigma1, sigma2, cutoffs, swap, nu):
    # m1 <= m2 unless swapped, so that most draws reach the two-stage bounds
    m1, m2 = sorted(cutoffs, reverse=swap)
    calls = [lambda: [bounds.bound_sinh_E(m1, sigma1)],
             lambda: [bounds.hat_phi_sinh_at_half(N, sigma1, m1)],
             lambda: [bounds.bound_nnfft_sinh(N, sigma1, sigma2, m1, m2)],
             lambda: [v for v in dataclasses.astuple(
                 bounds.bound_report(N, m1, m2, sigma1, sigma2, nu))
                 if isinstance(v, float)]]
    for call in calls:
        try:
            values = call()
        except ParameterError:
            continue
        assert all(math.isfinite(v) and v >= 0.0 for v in values)
