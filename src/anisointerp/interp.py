"""Fundamental interpolants and the interpolation operator on a pattern.

Given a kernel with known Fourier coefficients, the unique element of its
translate space taking value 1 at the origin node and 0 at all other
pattern nodes has coefficients ``c_k(kernel) / (m * folded_class(kernel))``
whenever no folded class coefficient vanishes.  This module constructs
that cardinal function as a class x shift :class:`AliasGrid`, where the fold
is a row sum and the scaling a row product, applies the induced
interpolation operator to node samples, and provides the supporting
translate, node-evaluation and partial-sum functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import AnisoError, NonExistent
from .intlat import (GRID_MAX, IntVec, PatternMatrix, canonical_classes, freq_phase_residues,
                     reduce_freq_many)
from .ptransform import (AliasGrid, CoeffVector, FourierSeries, SampleVector, alias_fold,
                         dft_inverse, discrete_coeffs, gset_freqs)

EXISTENCE_EPS_REL = 1e-12


def translate(f: FourierSeries, g: IntVec, pm: PatternMatrix) -> FourierSeries:
    """Coefficients of ``f`` shifted by the pattern point ``y = M^{-1} g``.

    Each coefficient picks up the phase ``e^{-2 pi i k^T y}``, computed from
    the exact rational ``k^T adj(M) g / det`` reduced mod 1.
    """
    if len(f) == 0:
        return f
    res = freq_phase_residues(f.freqs, np.array([g], dtype=np.int64), pm)[:, 0]
    phases = np.exp(-2j * np.pi * res / pm.m)
    return FourierSeries(f.freqs, f.coeffs * phases)


def evaluate_at_nodes(f: FourierSeries, pm: PatternMatrix) -> np.ndarray:
    """Values ``f(2 pi y)`` over the canonical pattern order, exactly.

    On pattern nodes the character ``e^{2 pi i k^T y}`` depends only on the
    congruence class of ``k``, so the finite synthesis collapses to the
    folded coefficients; this is exact for any finite series and avoids
    per-mode phase evaluation.
    """
    return pm.m * dft_inverse(alias_fold(f, pm)).values


@dataclass(frozen=True)
class FundamentalInterpolant:
    """The cardinal function of a translate space, in coefficient form.

    Attributes
    ----------
    grid : AliasGrid
        Coefficients ``c_{h + M^T z}``; the flat view is the property ``series``.
    a_hat : CoeffVector
        Translate coefficients in the frequency domain,
        ``1 / (m * folded_h)``; zero on degenerate classes.
    incorrect_modes : list of tuple
        Canonical classes where the folded kernel coefficient vanished and
        the fallback ``c_h = 1/m`` was applied.
    """

    grid: AliasGrid
    a_hat: CoeffVector
    incorrect_modes: list[IntVec] = field(default_factory=list)

    @property
    def pm(self) -> PatternMatrix:
        return self.grid.pm

    @property
    def series(self) -> FourierSeries:
        return self.grid.series


def fundamental_interpolant(grid: AliasGrid, *,
                            allow_incorrect: bool = False) -> FundamentalInterpolant:
    """Build the fundamental interpolant of the translate space of the kernel
    ``grid``, on the grid's pattern and with its shifts and window; a series
    kernel becomes a grid through :meth:`AliasGrid.from_series`.

    Coefficients are ``c_k / (m * folded)`` classwise.  On classes
    where the folded coefficient vanishes the interpolant does not exist;
    with ``allow_incorrect`` those classes fall back to the single
    canonical coefficient ``1/m`` (all non-canonical modes of the class are
    zeroed) and are recorded in ``incorrect_modes``.  A folded coefficient
    vanishes when its magnitude is at most ``EXISTENCE_EPS_REL`` times the
    largest one, since an exact "nonzero" test is meaningless in floats.

    Raises
    ------
    NonExistent
        If a folded class vanishes and ``allow_incorrect`` is not set; the
        message lists the vanishing classes.
    AnisoError
        If a folded class coefficient is not finite.
    """
    if not isinstance(grid, AliasGrid):
        raise TypeError(f"fundamental_interpolant takes an AliasGrid, not "
                        f"{type(grid).__name__}; build a series kernel's grid with "
                        "AliasGrid.from_series(f, pm, window)")
    return _interpolant(replace(grid, coeffs=grid.coeffs.copy()), allow_incorrect)


def _interpolant(grid: AliasGrid, allow_incorrect: bool) -> FundamentalInterpolant:
    """:func:`fundamental_interpolant`, scaling a fresh grid (no ``series`` yet) in place."""
    pm = grid.pm
    folded = grid.coeffs.sum(axis=1)
    mags = np.abs(folded)
    if not np.isfinite(mags).all():
        h = tuple(gset_freqs(pm)[np.argmin(np.isfinite(mags))].tolist())
        raise AnisoError(f"folded kernel coefficient of class {h} is not finite")
    flag = mags <= EXISTENCE_EPS_REL * float(mags.max(initial=0.0))
    flagged = [tuple(h) for h in gset_freqs(pm)[flag].tolist()]
    if flagged and not allow_incorrect:
        raise NonExistent(f"folded kernel coefficient vanishes on classes {flagged}")

    a_hat = np.zeros(pm.m, dtype=folded.dtype)
    a_hat[~flag] = 1.0 / (pm.m * folded[~flag])
    np.multiply(grid.coeffs, a_hat[:, None], out=grid.coeffs)
    grid.coeffs[np.ix_(flag, ~grid.shifts.any(axis=1))] = 1.0 / pm.m
    return FundamentalInterpolant(
        grid=grid,
        a_hat=CoeffVector(a_hat, pm),
        incorrect_modes=flagged,
    )


def interpolation_operator(samples: SampleVector,
                           ifun: FundamentalInterpolant) -> FourierSeries:
    """Series matching the node samples within the interpolant's space.

    ``c_{h + M^T z} = m * folded_sample_coeff(h) * c_{h + M^T z}(interpolant)``
    over the stored support of the interpolant, as a flat series.
    """
    coeffs = ifun.pm.m * discrete_coeffs(samples).values[:, None] * ifun.grid.coeffs
    return FourierSeries(ifun.series.freqs, coeffs.ravel())


def canonical_mask(freqs: np.ndarray, pm: PatternMatrix) -> np.ndarray:
    """Which rows of an ``(n, d)`` index array lie in the canonical
    generating set of ``M^T`` (the fixed points of the reduction)."""
    freqs = np.asarray(freqs, dtype=np.int64).reshape(-1, pm.d)
    return np.all(reduce_freq_many(freqs, pm) == freqs, axis=1)


def fourier_partial_sum(f: FourierSeries, pm: PatternMatrix) -> FourierSeries:
    """Restriction of the support to the canonical generating set of ``M^T``."""
    keep = canonical_mask(f.freqs, pm)
    return FourierSeries(f.freqs[keep], f.coeffs[keep])


def dirichlet_kernel(pm: PatternMatrix) -> AliasGrid:
    """Kernel with coefficient 1 on every canonical frequency, 0 elsewhere:
    the grid of the one shift ``z = 0``; ``AnisoError``, before anything is
    allocated, if ``m`` passes ``GRID_MAX``."""
    if pm.m > GRID_MAX:
        raise AnisoError(f"m = {pm.m} classes of {pm.mat} pass GRID_MAX = {GRID_MAX}")
    return AliasGrid(pm, np.zeros((1, pm.d), dtype=np.int64), np.ones((pm.m, 1)),
                     window=math.inf)


def cardinal_residual(ifun: FundamentalInterpolant) -> float:
    """Max deviation of the interpolant from the cardinal values at nodes."""
    pm = ifun.pm
    vals = pm.m * dft_inverse(CoeffVector(ifun.grid.coeffs.sum(axis=1), pm)).values
    target = np.zeros(pm.m, dtype=np.complex128)
    target[canonical_classes(pm, False)[2][0]] = 1.0  # label 0 is the origin
    return float(np.abs(vals - target).max())
