"""Reference functions that only the tests call.

Each one is a small oracle or a convenience built on the package's public
API: a randomized audit of the weight-splitting inequality, pointwise
Fourier synthesis, translate-space membership, the pattern group law, the
partial sum ``S_M f``, the coefficient-CSV reader and the ``{z: b_z}`` view
of a Strang-Fix report.
The exceptions they raise are defined here, below the package's
:class:`AnisoError`, so each ``pytest.raises`` still checks a refusal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from anisointerp import (AnisoError, CoeffVector, FourierSeries, PatternMatrix, SFReport,
                         is_expanding, reduce_freq, reduce_freq_many, spectral_data,
                         weights_many)
from anisointerp.intlat import IntVec
from anisointerp.ptransform import freq_class_indices, merge_rows

SUBMULT_RANGE = 50


class NotAMember(AnisoError):
    """A point failed an exact pattern/generating-set membership test."""


class NotExpanding(AnisoError):
    """The matrix does not satisfy the expanding condition |lambda_max| >= 2."""


class NotInSpace(AnisoError):
    """A series is not contained in the translate space of the given kernel."""


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
    ``C = ||M||_2^beta`` in strict mode (requires an expanding matrix, else
    ``NotExpanding``) and ``C = 2^beta ||M||_2^beta`` in relaxed mode (any
    regular matrix with ``||M||_2 >= 1``).
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
    return SubmultReport(trials=trials, violations=int((ratio > 1.0 + 1e-12).sum()),
                         max_ratio=float(ratio.max()), relaxed=relaxed)


def evaluate(f: FourierSeries, x) -> complex:
    """Fourier synthesis ``sum_k c_k e^{i k^T x}`` at a torus point ``x``."""
    if len(f) == 0:
        return 0.0 + 0.0j
    x = np.asarray(x, dtype=float)
    return complex(np.sum(f.coeffs * np.exp(1j * (f.freqs @ x))))


def membership_coeffs(xi: FourierSeries, phi: FourierSeries, pm: PatternMatrix,
                      tol: float = 1e-10) -> CoeffVector:
    """Translate coefficients ``a_hat`` with ``c_k(xi) = a_hat_h c_k(phi)``.

    Scans every stored mode of either series, grouped by congruence class,
    and demands a consistent ratio per class; ``NotInSpace`` with the first
    inconsistent index pair otherwise.
    """
    freqs = np.vstack([f.freqs.reshape(-1, pm.d) for f in (xi, phi)])
    coeffs = np.zeros((len(freqs), 2), dtype=np.complex128)
    coeffs[:len(xi), 0], coeffs[len(xi):, 1] = xi.coeffs, phi.coeffs
    keys, merged = merge_rows(freqs, coeffs)
    cx, cp = merged.T
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


def pattern_add(a: IntVec, b: IntVec, pm: PatternMatrix) -> IntVec:
    """Group addition on canonical pattern generators: the generator of the
    representative of ``M^{-1}(a + b) mod Z^d``, by the exact reduction mod
    ``M`` (``reduce_freq`` reduces mod the transpose of its matrix);
    ``NotAMember`` if ``a`` or ``b`` is not a canonical generator."""
    pmt = pm.transposed()
    for g in (a, b):
        if reduce_freq(g, pmt) != tuple(int(x) for x in g):
            raise NotAMember(f"{g} is not a canonical generator of the pattern")
    return reduce_freq([x + y for x, y in zip(a, b)], pmt)


def fourier_partial_sum(f: FourierSeries, pm: PatternMatrix) -> FourierSeries:
    """``S_M f``: ``f`` restricted to the canonical generating set of ``M^T``,
    the modes that the exact reduction leaves fixed."""
    keep = np.all(reduce_freq_many(f.freqs, pm) == f.freqs, axis=1)
    return FourierSeries(f.freqs[keep], f.coeffs[keep])


def series_from_csv(text: str) -> FourierSeries:
    """Parse the ``k1,...,kd,re,im`` format that ``series_to_csv`` writes."""
    header, *rows = [ln.split(",") for ln in text.strip().splitlines() if ln.strip()]
    d = len(header) - 2
    freqs = np.array([[int(x) for x in r[:d]] for r in rows], dtype=np.int64).reshape(-1, d)
    return FourierSeries(freqs, [complex(float(r[d]), float(r[d + 1])) for r in rows],
                         dedup=True)


def sf_b(rep: SFReport) -> dict[IntVec, float]:
    """``{z: b_z}`` over the report's ``shifts``."""
    return dict(zip(map(tuple, rep.shifts.tolist()), rep.bz.tolist()))
