"""Closed-form error bounds for the fast transforms.

All bounds are worst-case constants per unit coefficient mass: an
algorithm whose bound is ``E`` satisfies
``max_j |exact_j - computed_j| <= E * sum_k |c_k|``.

The sinc-surrogate bound decays like ``e^{-N (nu - C)}`` with the decay
threshold ``C = pi (e^2 - 1) / (2 e) = pi sinh(1) ~= 3.692``: the
Chebyshev oversampling ``nu = n / N`` must exceed ``C`` before the
surrogate converges, and ``nu = 4`` is the smallest practical integer
choice.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .errors import ParameterError

#: Decay threshold of the Clenshaw-Curtis sinc surrogate:
#: ``pi (e^2 - 1) / (2 e)`` (equivalently ``pi * sinh(1)``).
SINC_DECAY_CONSTANT = math.pi * (math.e ** 2 - 1.0) / (2.0 * math.e)

_SIGMA_TOL = 1e-9


def _check_sinh_params(m, sigma, who):
    if not isinstance(m, (int, np.integer)) or m < 2:
        raise ParameterError(f"{who}: m must be an integer >= 2")
    if not (1.25 - _SIGMA_TOL <= sigma <= 2.0 + _SIGMA_TOL):
        raise ParameterError(
            f"{who}: sinh-type bounds require 5/4 <= sigma <= 2, got {sigma}")


def _log_sinh_E(m, sigma):
    return math.log(24.0 * m ** 1.5 + 10.0) - 2.0 * math.pi * m * math.sqrt(1.0 - 1.0 / sigma)


def bound_sinh_E(m, sigma):
    """Single-stage gridding error constant of the sinh-type window:
    ``(24 m^{3/2} + 10) e^{-2 pi m sqrt(1 - 1/sigma)}``."""
    _check_sinh_params(m, sigma, "bound_sinh_E")
    return math.exp(_log_sinh_E(m, sigma))


def _log_hat_phi_sinh_at_half(N, sigma, m):
    beta = 2.0 * math.pi * m * (1.0 - 1.0 / (2.0 * sigma))
    arg = 2.0 * math.pi * m * math.sqrt(1.0 - 1.0 / sigma)
    # I1(arg)/sinh(beta) with the exponentials paired off (I1(arg) =
    # i1e(arg) e^arg and arg < beta always)
    log_ratio = (math.log(2.0 * float(_sp.i1e(arg))) + (arg - beta)
                 - math.log(-math.expm1(-2.0 * beta)))
    return (math.log(m * math.pi / (sigma * N)) + math.log(1.0 - 1.0 / (2.0 * sigma))
            - 0.5 * math.log(1.0 - 1.0 / sigma) + log_ratio)


def hat_phi_sinh_at_half(N, sigma, m):
    """Exact value of the sinh window transform at the band edge ``N/2``:

        (m pi / (N1 sinh beta)) (1 - 1/(2 sigma)) (1 - 1/sigma)^(-1/2)
            * I_1(2 pi m sqrt(1 - 1/sigma)),

    with ``N1 = sigma N`` and ``beta = 2 pi m (1 - 1/(2 sigma))``; it
    underflows to 0 for ``m`` in the thousands.
    """
    _check_sinh_params(m, sigma, "hat_phi_sinh_at_half")
    if not 0 < N < math.inf:
        raise ParameterError("hat_phi_sinh_at_half: N must be finite and positive")
    return math.exp(_log_hat_phi_sinh_at_half(N, sigma, m))


def bound_nnfft_sinh(N, sigma1, sigma2, m1, m2):
    """Error constant of the two-stage transform with sinh windows.

    Valid for ``m2 >= m1 >= 2`` and oversampling factors in ``[5/4, 2]``;
    decreasing in both cut-offs for fixed oversampling.  The second term,
    a factor growing like ``e^{2 pi m1 (1 - sqrt(1 - 1/sigma1) - 1/(2 sigma1))}``
    times the faster decaying ``bound_sinh_E(m2, sigma2)``, is summed in
    the exponent, so no cut-off overflows it.
    """
    _check_sinh_params(m1, sigma1, "bound_nnfft_sinh")
    _check_sinh_params(m2, sigma2, "bound_nnfft_sinh")
    if m2 < m1:
        raise ParameterError("bound_nnfft_sinh: requires m2 >= m1")
    if not 0 < N < math.inf:
        raise ParameterError("bound_nnfft_sinh: N must be finite and positive")
    N1 = sigma1 * N
    log_factor = (math.log((2.0 * N1 + 4.0 * m1) / math.sqrt(2.0 * m1 * math.pi))
                  + 2.0 * math.pi * m1 * (1.0 - math.sqrt(1.0 - 1.0 / sigma1)
                                          - 1.0 / (2.0 * sigma1)))
    return bound_sinh_E(m1, sigma1) + math.exp(log_factor + _log_sinh_E(m2, sigma2))


def bound_cc_sinc(N, nu):
    """Uniform error of the Clenshaw-Curtis sinc surrogate on ``[-1, 1]``:

        36 (1 + e^{-2 C N}) / (35 (e^2 - 1)) * e^{-N (nu - C)}.

    Decays only for ``nu > C``; returns ``inf`` when the value overflows.
    """
    for name, val in (("N", N), ("nu", nu)):
        if not 0 < val < math.inf:
            raise ParameterError(f"bound_cc_sinc: {name} must be finite and positive")
    C = SINC_DECAY_CONSTANT
    expo = -N * (nu - C)
    if expo > 700.0:
        return math.inf
    return (36.0 * (1.0 + math.exp(-2.0 * C * N))
            / (35.0 * (math.e ** 2 - 1.0)) * math.exp(expo))


def choose_n(N, epsilon):
    """Smallest power of two ``n = 2^t`` (``t >= 2``) whose surrogate bound
    beats ``epsilon``."""
    if not isinstance(N, (int, np.integer)) or N <= 0:
        raise ParameterError("choose_n: N must be a positive integer")
    if not 0.0 < epsilon < 1.0:
        raise ParameterError("choose_n: epsilon must lie in (0, 1)")
    for t in range(2, 64):
        n = 2 ** t
        if bound_cc_sinc(N, n / N) < epsilon:
            return n
    raise ParameterError("choose_n: no admissible n found")


def bound_fast_sinc(epsilon, e1, e2, a, hat_phi1_half):
    """Error constant of the fast sinc transform, per unit ``sum |c_k|``.

    With the surrogate level ``epsilon`` and the two-stage constant
    ``B = e1 + a e2 / hat_phi1_half``, the guaranteed bound is
    ``epsilon + 2B + B^2``.  The simplified form that holds for ``B <= 1``
    is assembled by :func:`bound_report`.
    """
    for name, val in (("epsilon", epsilon), ("e1", e1), ("e2", e2)):
        if not val >= 0:  # NaN included
            raise ParameterError(f"bound_fast_sinc: {name} must be >= 0")
    if not a >= 1.0:
        raise ParameterError("bound_fast_sinc: a must be >= 1")
    if not hat_phi1_half > 0.0:
        raise ParameterError("bound_fast_sinc: hat_phi1_half must be positive")
    B = e1 + a * e2 / hat_phi1_half
    return epsilon + 2.0 * B + B * B


@dataclass(frozen=True)
class BoundReport:
    """All bound ingredients for one parameter set, fully assembled.

    ``epsilon`` is the surrogate level the fast sinc bounds use and
    ``b_term = e1 + a e2 / hat_phi1_half`` the two-stage constant.
    """

    N: int
    m1: int
    m2: int
    sigma1: float
    sigma2: float
    nu: float
    e1: float
    e2: float
    hat_phi1_half: float
    a: float
    nnfft_bound: float
    cc_bound: float
    epsilon: float
    b_term: float
    fast_sinc_bound_full: float
    fast_sinc_bound_simplified: float
    simplified_valid: bool


def bound_report(N, m1, m2, sigma1, sigma2, nu, epsilon=None):
    """Assemble a :class:`BoundReport`.

    ``epsilon`` defaults to the surrogate bound at oversampling ``nu``.
    The simplified bound ``epsilon + 3 e1 + 3 a e2 / hat_phi1_half`` is
    reported even when its condition ``b_term <= 1`` fails;
    ``simplified_valid`` says whether it may be used.
    """
    nnfft = bound_nnfft_sinh(N, sigma1, sigma2, m1, m2)  # checks the parameters
    e1 = bound_sinh_E(m1, sigma1)
    e2 = bound_sinh_E(m2, sigma2)
    hat = hat_phi_sinh_at_half(N, sigma1, m1)
    a = 1.0 + 2.0 * m1 / (sigma1 * N)
    cc = bound_cc_sinc(N, nu)
    eps = cc if epsilon is None else float(epsilon)
    # e2/hat, with e2 decaying faster than hat; once hat leaves the normal
    # range (m1 in the thousands) the quotient is formed in the exponent
    num, den = e2, hat
    if hat < sys.float_info.min:
        num, den = math.exp(_log_sinh_E(m2, sigma2)
                            - _log_hat_phi_sinh_at_half(N, sigma1, m1)), 1.0
    B = e1 + a * num / den
    return BoundReport(
        N=int(N), m1=int(m1), m2=int(m2), sigma1=float(sigma1),
        sigma2=float(sigma2), nu=float(nu), e1=e1, e2=e2, hat_phi1_half=hat,
        a=a, nnfft_bound=nnfft,
        cc_bound=cc, epsilon=eps, b_term=B,
        fast_sinc_bound_full=bound_fast_sinc(eps, e1, num, a, den),
        fast_sinc_bound_simplified=eps + 3.0 * e1 + 3.0 * a * num / den,
        simplified_valid=bool(B <= 1.0))
