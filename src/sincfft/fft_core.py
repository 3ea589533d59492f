"""Uniform transform kernels the fast algorithms are built on.

An unnormalized complex FFT of arbitrary length, also as interleaved
blocks, that may reuse its input buffer, and the orthogonal (self-inverse) cosine transform
of type I, both from pocketfft, and the product of a real sparse stencil
matrix with a complex vector.
"""

import numpy as np
import scipy.fft

from .errors import ParameterError, integer


def fft(values, direction="forward", *, blocks=1):
    """Unnormalized discrete Fourier transform of a 1-d complex array.

    ``forward`` computes ``X_s = sum_l x_l e^{-2 pi i l s / L}``;
    ``inverse`` flips the sign of the exponent and applies no scaling, so
    ``fft(fft(x), "inverse") == L * x``.

    With ``blocks=P`` (a divisor of ``L``) the array is read as ``L/P``
    rows of ``P`` values and each column, the subsequence ``x[s::P]``, is
    transformed on its own with length ``L/P``; the result keeps that
    layout.  A complex ``values`` serves as the work buffer: its contents
    are undefined afterwards, and the result may share its memory.
    """
    v = np.asarray(values)
    if v.ndim != 1 or v.size == 0:
        raise ParameterError("fft: need a nonempty 1-d array")
    if v.size % integer(blocks, "fft: blocks"):
        raise ParameterError(f"fft: blocks must be a positive divisor of {v.size}")
    cols = v.reshape(-1, blocks)
    if direction == "forward":
        return scipy.fft.fft(cols, axis=0, overwrite_x=True).ravel()
    if direction == "inverse":
        return scipy.fft.ifft(cols, axis=0, norm="forward", overwrite_x=True).ravel()
    raise ParameterError(f"fft: direction must be 'forward' or 'inverse', got {direction!r}")


def dct1(values):
    """Orthogonal cosine transform of type I of a length-(n+1) real array.

    Applies the symmetric orthogonal matrix
    ``sqrt(2/n) * (eps(j) eps(k) cos(j k pi / n))`` with half-weights
    ``eps = sqrt(2)/2`` at the two boundary indices; the transform is its
    own inverse.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 3:
        raise ParameterError("dct1: need a 1-d array of length n+1 >= 3")
    return scipy.fft.dct(v, type=1, norm="ortho")


def sparse_apply(op, values):
    """``op @ values`` for a real sparse ``op`` and a contiguous complex vector,
    as one real product with its ``(n, 2)`` view (a complex operand would
    make scipy upcast ``op`` on every call)."""
    return (op @ values.view(float).reshape(-1, 2)).view(complex).ravel()
