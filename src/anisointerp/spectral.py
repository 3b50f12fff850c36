"""Floating-point spectral quantities of a pattern matrix.

Provides the spectral norm from the Gram eigenvalues of ``M^T M``, the
condition number ``kappa = ||M||_2 ||M^{-1}||_2``, the eigenvalue
magnitudes of ``M`` itself, and the expanding test ``|lambda_max| >= 2``.
Integer pattern matrices are generally non-normal, so the eigenvalue
magnitudes and the singular values are distinct quantities and both are
exposed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceFailure
from .intlat import PatternMatrix

_EXPAND_TOL = 1e-12


@dataclass(frozen=True)
class SpectralData:
    """Spectral quantities of a pattern matrix.

    Attributes
    ----------
    norm2 : float
        Spectral norm ``||M||_2 = sqrt(max gram eigenvalue)``.
    inv_norm2 : float
        ``||M^{-1}||_2 = 1 / sqrt(min gram eigenvalue)``.
    kappa : float
        Condition number ``||M||_2 ||M^{-1}||_2 >= 1``.
    eig_mags : tuple of float
        Magnitudes of the (possibly complex) eigenvalues of ``M``, increasing.
    """

    norm2: float
    inv_norm2: float
    kappa: float
    eig_mags: tuple[float, ...]


@lru_cache(maxsize=16)
def spectral_data(pm: PatternMatrix) -> SpectralData:
    """Compute :class:`SpectralData` for a validated pattern matrix.

    Raises
    ------
    ConvergenceFailure
        If the underlying eigenvalue iterations fail.
    """
    m = pm.mat_np.astype(float)
    try:
        gram = np.linalg.eigvalsh(m.T @ m)  # in increasing order
        eigs = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    norm2 = float(np.sqrt(gram[-1]))
    inv_norm2 = float(1.0 / np.sqrt(gram[0]))
    return SpectralData(
        norm2=norm2,
        inv_norm2=inv_norm2,
        kappa=norm2 * inv_norm2,
        eig_mags=tuple(float(x) for x in np.sort(np.abs(eigs))),
    )


def is_expanding(sd: SpectralData) -> bool:
    """Whether ``|lambda_max(M)| >= 2`` up to a 1e-12 comparison tolerance."""
    return sd.eig_mags[-1] >= 2.0 - _EXPAND_TOL


def inv_t_apply(ks: np.ndarray, pm: PatternMatrix) -> np.ndarray:
    """``M^{-T} k`` for an ``(n, d)`` integer array (``ValueError`` if not), via
    adjugate over det, in floats (which cannot wrap around; exact while ``d |k|
    max|adj M| < 2^53``)."""
    ks = np.asarray(ks, dtype=np.int64)
    if ks.ndim != 2 or ks.shape[1] != pm.d:
        raise ValueError(f"rows of shape {ks.shape}, not (n, {pm.d}), for the pattern of {pm.mat}")
    return ks.astype(float) @ np.array(pm.adj, dtype=float) / pm.det
