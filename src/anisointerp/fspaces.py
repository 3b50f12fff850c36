"""Ellipsoidal smoothness weights and the associated coefficient norms.

The weight ``(1 + ||M||_2^2 ||M^{-T} k||_2^2)^(beta/2)`` grades frequency
indices by the anisotropic ellipsoid of the pattern matrix; weighted
``l_q`` norms of Fourier coefficients over finite supports give the
smoothness norms used throughout the error bounds.  Norms here are always
finite sums; truncation tails of infinite series are the caller's concern.
"""

from __future__ import annotations

import math

import numpy as np

from .intlat import PatternMatrix
from .ptransform import AliasGrid, FourierSeries, check_unique_rows, gset_freqs
from .spectral import inv_t_apply, spectral_data


def weights_many(ks: np.ndarray, beta: float, pm: PatternMatrix) -> np.ndarray:
    """Vectorized ellipsoidal weight for an ``(n, d)`` integer index array;
    ``ValueError`` unless ``beta >= 0``."""
    if not beta >= 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    y = inv_t_apply(np.asarray(ks, dtype=np.int64), pm)
    r2 = np.einsum("ij,ij->i", y, y)
    return (1.0 + spectral_data(pm).norm2**2 * r2) ** (beta / 2.0)


def grid_weights(grid: AliasGrid, beta: float, rows: slice = slice(None)) -> np.ndarray:
    """:func:`weights_many` at every entry ``h + M^T z`` of the grid's
    ``rows``, from ``M^{-T} (h + M^T z) = M^{-T} h + z``, as a
    ``(len(rows), nz)`` array; ``ValueError`` unless ``beta >= 0``."""
    if not beta >= 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    y = inv_t_apply(gset_freqs(grid.pm)[rows], grid.pm)
    r2 = sum((y[:, a, None] + grid.shifts[:, a]) ** 2 for a in range(grid.pm.d))
    return (1.0 + spectral_data(grid.pm).norm2**2 * r2) ** (beta / 2.0)


def lq_norm(values: np.ndarray, q: float, axis: int | None = None):
    """``l_q`` norm of a nonnegative array, with the sup convention for inf;
    with ``axis``, the array of norms along it.  Each sum is scaled by its
    largest term before the power, so it overflows only when the norm does;
    an empty sum is 0.  ``ValueError`` unless ``q >= 1``."""
    if not q >= 1:
        raise ValueError(f"q must be >= 1 or inf, got {q}")
    values = np.asarray(values, dtype=float)
    top = values.max(axis=axis, keepdims=True, initial=0.0)
    if not math.isinf(q):
        scale = np.where((top > 0.0) & (top < math.inf), top, 1.0)
        terms = values / scale
        terms **= q
        top = scale * terms.sum(axis=axis, keepdims=True) ** (1.0 / q)
    return float(top.squeeze()) if axis is None else top.squeeze(axis)


def a_norm(f: FourierSeries, beta: float, pm: PatternMatrix, q: float) -> float:
    """Weighted coefficient norm ``||{sigma_beta(k) c_k(f)}||_{l_q}`` of the
    space ``A^beta_q`` of ``pm``; raises as :func:`weights_many` and
    :func:`lq_norm` do, and ``ValueError`` if ``f`` repeats a frequency row."""
    check_unique_rows(f)
    return lq_norm(weights_many(f.freqs, beta, pm) * np.abs(f.coeffs), q)
