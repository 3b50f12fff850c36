"""Fourier transforms of multi-directional box splines and their periodization.

For dimension 2 these are the classical 3-directional box splines with
directions ``e1, e2, e1+e2``; in general dimension the simplex family uses
the ``d(d+1)/2`` directions ``e_j`` and ``e_i + e_j`` (i < j).  The full
``d^2`` family additionally includes ``e_i - e_j``; its periodization has
vanishing folded coefficients, which exercises the incorrect-interpolation
fallback.  Everything stays in the Fourier domain: a spline enters the
pipeline only through its transform values on the dual lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import TailTooLarge
from .intlat import PatternMatrix
from .ptransform import FourierSeries, gset_freqs
from .spectral import inv_t_apply


@dataclass(frozen=True)
class BoxSplineSpec:
    """Dimension, multiplicity vector, and direction family of a box spline.

    ``family`` is ``"simplex"`` (``d(d+1)/2`` directions) or ``"full"``
    (``d^2`` directions, adding the differences ``e_i - e_j``).
    """

    d: int
    p: tuple[int, ...]
    family: str = "simplex"

    def __post_init__(self):
        dirs = self.directions()
        if len(self.p) != len(dirs):
            raise ValueError(
                f"multiplicity vector has {len(self.p)} entries, "
                f"family needs {len(dirs)}"
            )
        if any(pj < 1 for pj in self.p):
            raise ValueError("all multiplicities must be >= 1")

    def directions(self) -> np.ndarray:
        """Direction vectors as an ``(ndir, d)`` integer array."""
        d = self.d
        dirs = [tuple(int(i == j) for i in range(d)) for j in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                v = [0] * d
                v[i] = v[j] = 1
                dirs.append(tuple(v))
        if self.family == "full":
            for i in range(d):
                for j in range(i + 1, d):
                    v = [0] * d
                    v[i], v[j] = 1, -1
                    dirs.append(tuple(v))
        elif self.family != "simplex":
            raise ValueError(f"unknown family {self.family!r}")
        return np.array(dirs, dtype=np.int64)


@dataclass(frozen=True)
class PeriodizationWindow:
    """Aliasing truncation radius and the acceptable tail bound.

    ``tail_eps`` bounds the reported per-class sum of dropped coefficient
    magnitudes; ``None`` disables the check.
    """

    radius: int = 32
    tail_eps: float | None = 1e-6

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError("radius must be >= 1")


def boxspline_hat(xi, spec: BoxSplineSpec) -> float:
    """Fourier transform value: product of sinc powers over the directions."""
    y = np.asarray(xi, dtype=float).reshape(1, -1) / (2.0 * np.pi)
    return float(_hat_on_lattice(y, spec)[0])


def _hat_on_lattice(y: np.ndarray, spec: BoxSplineSpec) -> np.ndarray:
    """Vectorized transform at ``xi = 2 pi y`` for an ``(n, d)`` float array.

    ``sinc(pi u) = np.sinc(u)`` with numpy's normalized convention.
    """
    out = np.ones(len(y))
    for direction, pj in zip(spec.directions(), spec.p):
        out *= np.sinc(y @ direction.astype(float)) ** pj
    return out


def periodized_coeff(k, spec: BoxSplineSpec, pm: PatternMatrix) -> float:
    """Fourier coefficient of the periodized spline:
    ``(1/m) * hat(2 pi M^{-T} k)``."""
    y = inv_t_apply(np.array([k], dtype=np.int64), pm)
    return float(_hat_on_lattice(y, spec)[0]) / pm.m


def _int_box(d: int, radius: int) -> np.ndarray:
    """Every ``z`` with ``||z||_inf <= radius``, in lexicographic order."""
    side = 2 * radius + 1
    return np.indices((side,) * d, dtype=np.int64).reshape(d, -1).T - radius


def _alias_bound(z: np.ndarray, spec: BoxSplineSpec) -> np.ndarray:
    """Upper bound on ``sup_y |hat(2 pi (y + z))|`` over the unit half-cube.

    Per direction ``v``: ``|sinc(pi (y + z)^T v)| <= 1 / (pi (|z^T v| - w))``
    with ``w = sum|v| / 2`` whenever ``|z^T v| > w``, else 1.
    """
    out = np.ones(len(z))
    for direction, pj in zip(spec.directions(), spec.p):
        t = np.abs(z @ direction)
        w = np.abs(direction).sum() / 2.0
        factor = np.ones(len(z))
        mask = t > w
        factor[mask] = (np.pi * (t[mask] - w)) ** (-float(pj))
        out *= factor
    return out


def periodization_tail(spec: BoxSplineSpec, pm: PatternMatrix, radius: int,
                       extra: int | None = None) -> float:
    """Bound on the per-class magnitude sum of the dropped coefficients.

    Sums the analytic product bound over the shells just outside the
    window and extrapolates the remaining power-law tail from the last two
    shell sums.  Infinite when the fitted decay does not converge.
    """
    return _tail_sum(spec, radius, extra) / pm.m


@lru_cache(maxsize=64)
def _tail_sum(spec: BoxSplineSpec, radius: int, extra: int | None) -> float:
    if extra is None:
        extra = 512 if spec.d == 2 else 64
    r_far = radius + extra
    zs = _int_box(spec.d, r_far)
    rad = np.abs(zs).max(axis=1)
    sel = rad > radius
    zs, rad = zs[sel], rad[sel]
    vals = _alias_bound(zs, spec)
    shell_sums = np.bincount(rad, weights=vals, minlength=r_far + 1)
    total = float(shell_sums.sum())
    s_far = float(shell_sums[r_far])
    s_mid = float(shell_sums[(radius + r_far) // 2])
    if s_far <= 0.0:
        remainder = 0.0
    else:
        beta = math.log(s_mid / s_far) / math.log(r_far / ((radius + r_far) / 2))
        if beta <= 1.0:
            return math.inf
        remainder = s_far * r_far / (beta - 1.0)
    return total + remainder


def periodize(spec: BoxSplineSpec, pm: PatternMatrix,
              win: PeriodizationWindow) -> FourierSeries:
    """Coefficients of the periodized spline on all classes up to the window.

    The support is exactly every ``k = h + M^T z`` with canonical ``h`` and
    ``||z||_inf <= radius`` (exact zeros included, so shell coverage stays
    checkable).  The series ``window`` attribute records the radius.

    Raises
    ------
    TailTooLarge
        If the computed tail bound exceeds ``win.tail_eps``.
    """
    if spec.d != pm.d:
        raise ValueError("spline dimension and matrix dimension differ")
    if win.tail_eps is not None:
        tail = periodization_tail(spec, pm, win.radius)
        if not tail <= win.tail_eps:
            raise TailTooLarge(
                f"tail bound {tail:.3e} exceeds requested {win.tail_eps:.3e}"
            )
    h = gset_freqs(pm)
    z = _int_box(pm.d, win.radius)
    ks = (h[:, None, :] + (z @ pm.mat_np)[None, :, :]).reshape(-1, pm.d)
    y = inv_t_apply(ks, pm)
    coeffs = _hat_on_lattice(y, spec) / pm.m
    return FourierSeries(ks, coeffs.astype(np.complex128), window=win.radius)


def sf_order(spec: BoxSplineSpec) -> int:
    """Reproduction order of the bivariate 3-directional spline:
    the minimum pairwise sum of the three multiplicities."""
    if spec.d != 2 or spec.family != "simplex":
        raise ValueError("order formula applies to the bivariate "
                         "3-directional spline")
    p1, p2, p3 = spec.p
    return min(p1 + p2, p1 + p3, p2 + p3)
