"""Fast sinc transforms and nonequispaced FFTs with guaranteed error bounds.

The package provides three layers:

* nonequispaced discrete Fourier transforms — a gridding-based NFFT for
  nonequispaced spatial nodes and a two-stage transform for data that is
  nonequispaced in both space and frequency (:mod:`sincfft.nfft`,
  :mod:`sincfft.nnfft`), plus exact quadratic-cost references
  (:mod:`sincfft.direct`);
* an exponential-sum surrogate of the sinc kernel built from
  Clenshaw-Curtis quadrature and the fast sinc transform assembled from
  it (:mod:`sincfft.sinc_approx`, :mod:`sincfft.fast_sinc`);
* closed-form error bounds for every approximation step
  (:mod:`sincfft.bounds`).
"""

from . import bounds
from .direct import (cc_weights_direct, ndft_direct, nndft_direct,
                     sinc_transform_direct)
from .errors import ParameterError, PositivityError
from .fast_sinc import SincMode, SincPlan, fast_sinc_transform, sinc_plan
from .nfft import NfftPlan, nfft_adjoint, nfft_plan, nfft_trafo
from .nnfft import (NnfftGeometry, NnfftPlan, nnfft_plan, nnfft_trafo,
                    rescale_frequencies)
from .sinc_approx import (CcQuadrature, cc_quadrature, sinc_expsum_eval_grid,
                          sinc_expsum_max_error)
from .windows import (WindowSpec, omega_hat_eval, phi_eval, phi_hat_eval,
                      window_kinds)

__version__ = "0.1.0"

__all__ = [
    "ParameterError", "PositivityError",
    "WindowSpec", "window_kinds", "omega_hat_eval",
    "phi_eval", "phi_hat_eval",
    "ndft_direct", "nndft_direct", "sinc_transform_direct",
    "cc_weights_direct",
    "NfftPlan", "nfft_plan", "nfft_trafo", "nfft_adjoint",
    "NnfftGeometry", "NnfftPlan", "nnfft_plan", "nnfft_trafo",
    "rescale_frequencies",
    "CcQuadrature", "cc_quadrature",
    "sinc_expsum_eval_grid", "sinc_expsum_max_error",
    "SincMode", "SincPlan", "sinc_plan", "fast_sinc_transform",
    "bounds",
    "__version__",
]
