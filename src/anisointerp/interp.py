"""Fundamental interpolants and the interpolation operator on a pattern.

Given a kernel with known Fourier coefficients, the unique element of its
translate space taking value 1 at the origin node and 0 at all other
pattern nodes has coefficients ``c_k(kernel) / (m * folded_class(kernel))``
whenever no folded class coefficient vanishes.  This module constructs
that cardinal function, applies the induced interpolation operator to node
samples, and provides the supporting translate / evaluate / partial-sum
machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AnisoError, NonExistent, NotInSpace
from .intlat import (IntVec, PatternMatrix, canonical_classes, freq_phase_residues,
                     reduce_freq_many)
from .ptransform import (
    CoeffVector,
    FourierSeries,
    SampleVector,
    alias_fold,
    dft_inverse,
    discrete_coeffs,
    fold_classes,
    freq_class_indices,
    gset_freqs,
)

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
    return FourierSeries(f.freqs, f.coeffs * phases, window=f.window)


def evaluate(f: FourierSeries, x) -> complex:
    """Fourier synthesis ``sum_k c_k e^{i k^T x}`` at a torus point ``x``."""
    if len(f) == 0:
        return 0.0 + 0.0j
    x = np.asarray(x, dtype=float)
    return complex(np.sum(f.coeffs * np.exp(1j * (f.freqs @ x))))


def evaluate_at_nodes(f: FourierSeries, pm: PatternMatrix) -> np.ndarray:
    """Values ``f(2 pi y)`` over the canonical pattern order, exactly.

    On pattern nodes the character ``e^{2 pi i k^T y}`` depends only on the
    congruence class of ``k``, so the finite synthesis collapses to the
    folded coefficients; this is exact for any finite series and avoids
    per-mode phase evaluation.
    """
    return pm.m * dft_inverse(alias_fold(f, pm)).values


@dataclass
class ExistenceReport:
    """Folded kernel coefficients and the classes flagged as (near) zero."""

    folded: CoeffVector
    flagged: list[IntVec]
    eps: float

    @property
    def ok(self) -> bool:
        return not self.flagged


def check_existence(phi: FourierSeries, pm: PatternMatrix,
                    eps_rel: float = EXISTENCE_EPS_REL) -> ExistenceReport:
    """Flag every congruence class whose folded coefficient (nearly) vanishes.

    The threshold is relative: ``eps_rel`` times the largest folded
    magnitude, since an exact "nonzero" test is meaningless in floats.
    """
    return _flag_vanishing(alias_fold(phi, pm), eps_rel)


def _flag_vanishing(folded: CoeffVector, eps_rel: float) -> ExistenceReport:
    mags = np.abs(folded.values)
    eps = eps_rel * float(mags.max(initial=0.0))
    flagged = [tuple(h) for h in gset_freqs(folded.pm)[mags <= eps].tolist()]
    return ExistenceReport(folded=folded, flagged=flagged, eps=eps)


@dataclass(frozen=True)
class FundamentalInterpolant:
    """The cardinal function of a translate space, in coefficient form.

    Attributes
    ----------
    series : FourierSeries
        Fourier coefficients of the interpolant.
    pm : PatternMatrix
        The pattern matrix.
    a_hat : CoeffVector
        Translate coefficients in the frequency domain,
        ``1 / (m * folded_h)``; zero on degenerate classes.
    labels : np.ndarray
        Read-only canonical position of the class ``h`` of each mode ``k``
        of ``series``, as :func:`freq_class_indices` gives it; the aliasing
        shift ``z`` with ``k = h + M^T z`` is the property ``shifts``.
    incorrect_modes : list of tuple
        Canonical classes where the folded kernel coefficient vanished and
        the fallback ``c_h = 1/m`` was applied.
    """

    series: FourierSeries
    pm: PatternMatrix
    a_hat: CoeffVector
    labels: np.ndarray
    incorrect_modes: list[IntVec] = field(default_factory=list)

    @cached_property
    def shifts(self) -> np.ndarray:
        """Read-only exact ``(n, d)`` shifts ``z`` of the modes, computed on
        first use; ``AnisoError`` unless ``d (max|k| + max|h|) max|adj M| <
        2^63``, which keeps ``(k - h) adj M`` exact in int64."""
        pm, freqs, hs = self.pm, self.series.freqs, gset_freqs(self.pm)
        kmax = max(int(freqs.max(initial=0)), -int(freqs.min(initial=0)))
        amax = max(abs(a) for row in pm.adj for a in row)
        if pm.d * (kmax + int(np.abs(hs).max())) * amax >= 2**63:
            k = freqs[np.argmax(np.abs(freqs.astype(float)).max(axis=1))]
            raise AnisoError(f"mode {tuple(k.tolist())} is too large for exact "
                             "int64 aliasing shifts")
        zs = pm.sign * ((freqs - hs[self.labels]) @ pm.adj_np) // pm.m
        zs.flags.writeable = False
        return zs


def fundamental_interpolant(
    phi: FourierSeries,
    pm: PatternMatrix,
    allow_incorrect: bool = False,
    eps_rel: float = EXISTENCE_EPS_REL,
) -> FundamentalInterpolant:
    """Build the fundamental interpolant of the translate space of ``phi``.

    Coefficients are ``c_k(phi) / (m * folded)`` classwise.  On classes
    where the folded coefficient vanishes the interpolant does not exist;
    with ``allow_incorrect`` those classes fall back to the single
    canonical coefficient ``1/m`` (all non-canonical modes of the class are
    dropped) and are recorded in ``incorrect_modes``.

    Raises
    ------
    NonExistent
        If a folded class vanishes and ``allow_incorrect`` is not set.
    """
    labels = freq_class_indices(phi.freqs, pm)
    report = _flag_vanishing(fold_classes(labels, phi.coeffs, pm), eps_rel)
    folded = report.folded.values
    if report.flagged and not allow_incorrect:
        raise NonExistent(
            f"folded kernel coefficient vanishes on classes {report.flagged}"
        )
    flag = np.abs(folded) <= report.eps  # the classes report.flagged lists

    a_hat = np.zeros(pm.m, dtype=np.complex128)
    a_hat[~flag] = 1.0 / (pm.m * folded[~flag])

    keep, extra = ~flag[labels], np.flatnonzero(flag)
    freqs = np.vstack([phi.freqs.reshape(-1, pm.d)[keep], gset_freqs(pm)[extra]])
    coeffs = np.concatenate([phi.coeffs[keep] * a_hat[labels[keep]],
                             np.full(len(extra), 1.0 / pm.m)])
    labels = np.concatenate([labels[keep], extra])
    labels.flags.writeable = False
    return FundamentalInterpolant(
        series=FourierSeries(freqs, coeffs, window=phi.window),
        pm=pm,
        a_hat=CoeffVector(a_hat, pm),
        labels=labels,
        incorrect_modes=list(report.flagged),
    )


def membership_coeffs(xi: FourierSeries, phi: FourierSeries, pm: PatternMatrix,
                      tol: float = 1e-10) -> CoeffVector:
    """Translate coefficients ``a_hat`` with ``c_k(xi) = a_hat_h c_k(phi)``.

    Scans every stored mode of either series, grouped by congruence class,
    and demands a consistent ratio per class.

    Raises
    ------
    NotInSpace
        With the first inconsistent index pair, if no consistent coefficient
        vector exists.
    """
    freqs = np.vstack([f.freqs.reshape(-1, pm.d) for f in (xi, phi)])
    keys, inv = np.unique(freqs, axis=0, return_inverse=True)
    cx, cp = np.zeros((2, len(keys)), dtype=np.complex128)
    np.add.at(cx, inv.ravel()[:len(xi)], xi.coeffs)
    np.add.at(cp, inv.ravel()[len(xi):], phi.coeffs)
    # each series is tested against its own largest coefficient, so scaling
    # either one does not change which of its modes count as zero
    zero_x, zero_p = (np.abs(c) <= tol * (np.abs(c).max(initial=0.0) or 1.0)
                      for c in (cx, cp))
    stray = zero_p & ~zero_x
    if stray.any():
        raise NotInSpace(f"mode {tuple(keys[np.argmax(stray)].tolist())} "
                         "not proportional to the kernel")
    idx = np.flatnonzero(~zero_p)
    labels = freq_class_indices(keys[idx], pm)
    ratio = cx[idx] / cp[idx]
    first = np.full(pm.m, len(idx))  # the first nonzero kernel mode per class
    np.minimum.at(first, labels, np.arange(len(idx)))
    a_hat = np.append(ratio, 0.0)[first]  # 0 on classes without one
    bad = np.abs(ratio - a_hat[labels]) > tol * (1.0 + np.abs(a_hat[labels]))
    if bad.any():
        i = np.argmax(bad)
        witness, k = (tuple(keys[idx[j]].tolist()) for j in (first[labels[i]], i))
        raise NotInSpace(f"inconsistent ratio within class: modes {witness} and {k}")
    return CoeffVector(a_hat, pm)


def interpolation_operator(samples: SampleVector,
                           ifun: FundamentalInterpolant) -> FourierSeries:
    """Series matching the node samples within the interpolant's space.

    ``c_k = m * folded_sample_coeff(class of k) * c_k(interpolant)`` over
    the stored support of the interpolant.
    """
    ch = discrete_coeffs(samples).values
    f = ifun.series
    coeffs = ifun.pm.m * ch[ifun.labels] * f.coeffs
    return FourierSeries(f.freqs, coeffs, window=f.window)


def canonical_mask(freqs: np.ndarray, pm: PatternMatrix) -> np.ndarray:
    """Which rows of an ``(n, d)`` index array lie in the canonical
    generating set of ``M^T`` (the fixed points of the reduction)."""
    freqs = np.asarray(freqs, dtype=np.int64).reshape(-1, pm.d)
    return np.all(reduce_freq_many(freqs, pm) == freqs, axis=1)


def fourier_partial_sum(f: FourierSeries, pm: PatternMatrix) -> FourierSeries:
    """Restriction of the support to the canonical generating set of ``M^T``."""
    keep = canonical_mask(f.freqs, pm)
    return FourierSeries(f.freqs[keep], f.coeffs[keep], window=math.inf)


def dirichlet_kernel(pm: PatternMatrix) -> FourierSeries:
    """Kernel with coefficient 1 on every canonical frequency, 0 elsewhere."""
    h = gset_freqs(pm)
    return FourierSeries(h.copy(), np.ones(pm.m, dtype=np.complex128),
                         window=math.inf)


def cardinal_residual(ifun: FundamentalInterpolant) -> float:
    """Max deviation of the interpolant from the cardinal values at nodes."""
    pm = ifun.pm
    vals = pm.m * dft_inverse(fold_classes(ifun.labels, ifun.series.coeffs, pm)).values
    target = np.zeros(pm.m, dtype=np.complex128)
    target[canonical_classes(pm, False)[2][0]] = 1.0  # label 0 is the origin
    return float(np.abs(vals - target).max())
