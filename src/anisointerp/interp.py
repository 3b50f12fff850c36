"""Fundamental interpolants and the interpolation operator on a pattern.

Given a kernel with known Fourier coefficients, the unique element of its
translate space taking value 1 at the origin node and 0 at all other
pattern nodes has coefficients ``c_k(kernel) / (m * folded_class(kernel))``
whenever no folded class coefficient vanishes.  This module constructs
that cardinal function as a class x shift :class:`AliasGrid`, where the fold
is a row sum and the scaling a row product, applies the induced
interpolation operator to node samples, and provides the supporting
translate and node-evaluation functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AnisoError, NonExistent
from .intlat import GRID_MAX, IntVec, PatternMatrix, canonical_classes, freq_phase_residues
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


@dataclass(frozen=True, eq=False)
class FundamentalInterpolant:
    """The cardinal function of a translate space: the ``grid`` of its
    coefficients ``c_{h + M^T z}`` (flat view ``series``), and what the last
    full walk of it ``found``: ``a_hat = 1 / (m * folded_h)`` (0 where the
    fold vanished) and those classes, ``incorrect_modes``.  Reading either
    walks the grid if no walk has ended, so it raises as a walk does."""

    grid: AliasGrid
    found: dict = field(repr=False)

    @property
    def pm(self) -> PatternMatrix:
        return self.grid.pm

    @property
    def series(self) -> FourierSeries:
        return self.grid.series

    def _walked(self, key: str):
        if not self.found:
            for _ in self.grid.row_blocks():
                pass
        return self.found[key]

    a_hat = property(lambda self: self._walked("a_hat"))
    incorrect_modes = property(lambda self: self._walked("incorrect_modes"))


def fundamental_interpolant(grid: AliasGrid, *,
                            allow_incorrect: bool = False) -> FundamentalInterpolant:
    """The fundamental interpolant of the translate space of the kernel
    ``grid``, on its pattern, shifts and window (a series kernel becomes a
    grid through :meth:`AliasGrid.from_series`): the kernel's row blocks,
    each row scaled by ``1 / (m * folded)`` as it passes (in place if the
    kernel made the block; a held kernel is never written to).

    A folded coefficient vanishes when its magnitude is at most
    ``EXISTENCE_EPS_REL`` times the largest one.  Then the interpolant does
    not exist: the first full walk of its grid raises ``NonExistent``,
    listing those classes (``AnisoError`` if a fold is not finite), as its
    last block is taken, so before any reader (``verify_sfc``,
    ``interp_error``, ``coeffs``, ``series``, ``a_hat``) gives a result.
    With ``allow_incorrect`` such classes fall back to the single canonical
    coefficient ``1/m``, the class's other modes zeroed; that needs every
    fold before any row is kept, so the grid is assembled, and a non-finite
    fold refused, here.
    """
    if not isinstance(grid, AliasGrid):
        raise TypeError(f"fundamental_interpolant takes an AliasGrid, not "
                        f"{type(grid).__name__}; build a series kernel's grid with "
                        "AliasGrid.from_series(f, pm, window)")
    pm, found = grid.pm, {}

    def scaled():
        walked = []  # (fold, scale) of each block
        for rows, block in grid.row_blocks():
            fold = block.sum(axis=1)
            # a vanishing or non-finite fold, refused below, scales by a quiet NaN
            with np.errstate(all="ignore"):
                scale = 1.0 / (pm.m * fold)
                scale[~np.isfinite(scale * fold)] = np.nan
            walked.append((fold, scale))
            yield rows, np.multiply(block, scale[:, None],
                                    out=block if callable(grid.source) else None)
        folded, scale = map(np.concatenate, zip(*walked))
        flag, flagged = _check_folds(pm, folded, allow_incorrect)
        found.update(flag=flag, incorrect_modes=flagged,
                     a_hat=CoeffVector(np.where(flag, 0.0, scale), pm))

    ifun = FundamentalInterpolant(AliasGrid(pm, grid.shifts, scaled, grid.window), found)
    if allow_incorrect:
        coeffs = ifun.grid.coeffs
        coeffs[found["flag"]] = 0.0
        coeffs[np.ix_(found["flag"], ~grid.shifts.any(axis=1))] = 1.0 / pm.m
        ifun = FundamentalInterpolant(AliasGrid(pm, grid.shifts, coeffs, grid.window), found)
    return ifun


def _check_folds(pm: PatternMatrix, folded: np.ndarray, allow_incorrect: bool):
    """Vanishing folded kernel coefficients, as a mask and a list of classes;
    raises as :func:`fundamental_interpolant` does."""
    mags = np.abs(folded)
    if not np.isfinite(mags).all():
        h = tuple(gset_freqs(pm)[np.argmin(np.isfinite(mags))].tolist())
        raise AnisoError(f"folded kernel coefficient of class {h} is not finite")
    flag = mags <= EXISTENCE_EPS_REL * float(mags.max(initial=0.0))
    flagged = [tuple(h) for h in gset_freqs(pm)[flag].tolist()]
    if flagged and not allow_incorrect:
        raise NonExistent(f"folded kernel coefficient vanishes on classes {flagged}")
    return flag, flagged


def interpolation_operator(samples: SampleVector,
                           ifun: FundamentalInterpolant) -> FourierSeries:
    """Series matching the node samples within the interpolant's space.

    ``c_{h + M^T z} = m * folded_sample_coeff(h) * c_{h + M^T z}(interpolant)``
    over the stored support of the interpolant, as a flat series.
    """
    coeffs = ifun.pm.m * discrete_coeffs(samples).values[:, None] * ifun.grid.coeffs
    return FourierSeries(ifun.series.freqs, coeffs.ravel())


def dirichlet_kernel(pm: PatternMatrix) -> AliasGrid:
    """Kernel with coefficient 1 on every canonical frequency, 0 elsewhere:
    the grid of the one shift ``z = 0``; ``AnisoError``, before anything is
    allocated, if ``m`` passes ``GRID_MAX``."""
    if pm.m > GRID_MAX:
        raise AnisoError(f"m = {pm.m} classes of {pm.mat} pass GRID_MAX = {GRID_MAX}")
    return AliasGrid(pm, np.zeros((1, pm.d), dtype=np.int64), np.ones((pm.m, 1)),
                     window=math.inf)


def cardinal_residual(ifun: FundamentalInterpolant) -> float:
    """Max deviation of the interpolant from the cardinal values at nodes, from
    one walk of its row blocks."""
    pm = ifun.pm
    folded = np.concatenate([block.sum(axis=1) for _, block in ifun.grid.row_blocks()])
    vals = pm.m * dft_inverse(CoeffVector(folded, pm)).values
    target = np.zeros(pm.m, dtype=np.complex128)
    target[canonical_classes(pm, False)[2][0]] = 1.0  # label 0 is the origin
    return float(np.abs(vals - target).max())
