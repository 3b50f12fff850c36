"""Ellipsoidal smoothness weights and the associated coefficient norms.

The weight ``(1 + ||M||_2^2 ||M^{-T} k||_2^2)^(beta/2)`` grades frequency
indices by the anisotropic ellipsoid of the pattern matrix; weighted
``l_q`` norms of Fourier coefficients over finite supports give the
smoothness norms used throughout the error bounds.  Norms here are always
finite sums; truncation tails of infinite series are the caller's concern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotExpanding
from .intlat import PatternMatrix
from .ptransform import AliasGrid, FourierSeries, check_unique_rows, gset_freqs
from .spectral import inv_t_apply, is_expanding, spectral_data

SUBMULT_RANGE = 50


def weights_many(ks: np.ndarray, beta: float, pm: PatternMatrix) -> np.ndarray:
    """Vectorized ellipsoidal weight for an ``(n, d)`` integer index array;
    ``ValueError`` unless ``beta >= 0``."""
    if not beta >= 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    y = inv_t_apply(np.asarray(ks, dtype=np.int64), pm)
    r2 = np.einsum("ij,ij->i", y, y)
    return (1.0 + spectral_data(pm).norm2**2 * r2) ** (beta / 2.0)


def grid_weights(grid: AliasGrid, beta: float) -> np.ndarray:
    """:func:`weights_many` at every entry ``h + M^T z`` of a grid, from
    ``M^{-T} (h + M^T z) = M^{-T} h + z``, as an ``(m, nz)`` array;
    ``ValueError`` unless ``beta >= 0``."""
    if not beta >= 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    y = inv_t_apply(gset_freqs(grid.pm), grid.pm)
    r2 = sum((y[:, a, None] + grid.shifts[:, a]) ** 2 for a in range(grid.pm.d))
    return (1.0 + spectral_data(grid.pm).norm2**2 * r2) ** (beta / 2.0)


def lq_norm(values: np.ndarray, q: float, axis: int | None = None):
    """``l_q`` norm of a nonnegative array, with the sup convention for inf;
    with ``axis``, the array of norms along it.  Each sum is scaled by its
    largest term before the power, so it overflows only when the norm does.
    ``ValueError`` unless ``q >= 1``."""
    if not q >= 1:
        raise ValueError(f"q must be >= 1 or inf, got {q}")
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return 0.0
    top = values.max(axis=axis, keepdims=True)
    if not math.isinf(q):
        scale = np.where((top > 0.0) & (top < math.inf), top, 1.0)
        top = scale * ((values / scale) ** q).sum(axis=axis, keepdims=True) ** (1.0 / q)
    return float(top.squeeze()) if axis is None else top.squeeze(axis)


def a_norm(f: FourierSeries, beta: float, pm: PatternMatrix, q: float) -> float:
    """Weighted coefficient norm ``||{sigma_beta(k) c_k(f)}||_{l_q}`` of the
    space ``A^beta_q`` of ``pm``; raises as :func:`weights_many` and
    :func:`lq_norm` do, and ``ValueError`` if ``f`` repeats a frequency row."""
    check_unique_rows(f)
    return lq_norm(weights_many(f.freqs, beta, pm) * np.abs(f.coeffs), q)


@dataclass(frozen=True)
class SubmultReport:
    """Outcome of the random submultiplicativity audit."""

    trials: int
    violations: int
    max_ratio: float
    relaxed: bool

    @property
    def ok(self) -> bool:
        return self.violations == 0


def check_submultiplicativity(
    trials: int,
    beta: float,
    pm: PatternMatrix,
    relaxed: bool = False,
    rng: np.random.Generator | None = None,
) -> SubmultReport:
    """Randomized audit of the weight splitting inequality.

    Checks ``sigma_beta(k + M^T z) <= C sigma_beta(k) sigma_beta(z)`` on
    random index pairs in ``[-SUBMULT_RANGE, SUBMULT_RANGE]^d``, with
    ``C = ||M||_2^beta`` in strict mode (requires an expanding matrix) and
    ``C = 2^beta ||M||_2^beta`` in relaxed mode (any regular matrix with
    ``||M||_2 >= 1``).

    Raises
    ------
    NotExpanding
        In strict mode when ``|lambda_max(M)| < 2``.
    """
    if beta <= 0:
        raise ValueError("beta must be > 0")
    sd = spectral_data(pm)
    if not relaxed and not is_expanding(sd):
        raise NotExpanding("strict mode needs |lambda_max(M)| >= 2; "
                           "use relaxed=True for the 2^beta variant")
    if rng is None:
        rng = np.random.default_rng(0)
    factor = sd.norm2**beta * (2.0**beta if relaxed else 1.0)
    ks = rng.integers(-SUBMULT_RANGE, SUBMULT_RANGE + 1, size=(trials, pm.d))
    zs = rng.integers(-SUBMULT_RANGE, SUBMULT_RANGE + 1, size=(trials, pm.d))
    lhs = weights_many(ks + zs @ pm.mat_np, beta, pm)
    rhs = factor * weights_many(ks, beta, pm) * weights_many(zs, beta, pm)
    ratio = lhs / rhs
    max_ratio = float(ratio.max())
    violations = int((ratio > 1.0 + 1e-12).sum())
    return SubmultReport(trials=trials, violations=violations,
                         max_ratio=max_ratio, relaxed=relaxed)
