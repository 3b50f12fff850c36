"""Numerical verification of the ellipsoidal periodic Strang-Fix conditions.

The conditions demand that the fundamental interpolant's coefficients obey

    |1 - m c_h|          <= b_0 kappa^{-s} ||M^{-T} h||^s          (inner)
    |m c_{h + M^T z}|    <= b_z kappa^{-s} ||M||^{-alpha} ||M^{-T} h||^s

for all canonical ``h != 0`` and ``z != 0``, with the weighted sequence
``{sigma_alpha(z) b_z}`` summable in ``l_q``.  The verifier computes the
tightest admissible ``b_z`` (the Definition asks only for existence of
some sequence, so the minimal witness is the canonical one) on the shells
``||z||_inf <= window`` that the interpolant's grid declares complete, and
reports the truncated ``gamma_SF``.  A periodized kernel's window is its
radius; the Dirichlet kernel's is infinite, and its sums are exact.  The
verifier reads the class x shift grid directly: the shells are a set of
its columns, streamed in blocks of rows of about ``GRID_BLOCK`` entries.
Each block's ``|c_{h + M^T z}|`` serves both constants, ``b_z`` as a
running maximum down each column and the aliasing-theorem constant
``gamma_IP`` as a norm along each row, so the working memory beyond the
grid is ``O(block * nz)``, not ``O(m * nz)``.  That one pass is the only
reader of the shells: ``gamma_IP`` is read from the report, never
recomputed.

On a fixed finite index set any order is attainable with large enough
constants, so finiteness alone cannot refute an overclaimed order.  The
verifier therefore also fits the decay exponent of ``|1 - m c_h|`` against
``||M^{-T} h||`` over the generating set and fails when the claimed order
exceeds the fitted one beyond a slack; this is what makes the check
falsifiable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .boxspline import _shell_sums
from .errors import AnisoError, DivergentSeries, InsufficientSupport
from .fspaces import lq_norm, weights_many
from .interp import FundamentalInterpolant
from .intlat import IntVec
from .ptransform import gset_freqs
from .spectral import inv_t_apply, spectral_data

H0_TOL = 1e-10
TAIL_FRAC = 1e-6
ORDER_SLACK = 0.75
SM_REL_TOL = 1e-13
SM_MAX_SHELL = 200


@dataclass(frozen=True)
class SFParams:
    """Claimed finite order ``s``, weight exponent ``alpha``, norm index
    ``q``, and mode (``"strict"`` keeps the ``kappa^{-s}`` factor,
    ``"relaxed"`` omits it)."""

    s: float
    alpha: float = 0.0
    q: float = 2.0
    mode: str = "strict"

    def __post_init__(self):
        if not (0 < self.s < math.inf and self.alpha >= 0 and self.q >= 1):
            raise ValueError("need a finite order s > 0, alpha >= 0 and q >= 1 (q may be inf)")
        if self.mode not in ("strict", "relaxed"):
            raise ValueError("mode must be 'strict' or 'relaxed'")


@dataclass(eq=False)
class SFReport:
    """Outcome of the Strang-Fix verification.

    ``shifts`` holds ``z = 0`` and each aliasing shift on the checked shells
    (those of the interpolant's grid window) with a positive tightest
    admissible constant, and ``bz`` those constants, row for row; ``gamma_sf``
    is the (truncated) weighted ``l_q`` norm of that sequence, and
    ``gamma_ip`` the aliasing-theorem constant on the same shells.
    ``fitted_order`` is the measured decay exponent of the inner
    condition, ``None`` when the interpolant reproduces exactly.
    """

    params: SFParams
    shifts: np.ndarray
    bz: np.ndarray
    gamma_sf: float
    gamma_ip: float
    passed: bool
    witness: tuple[IntVec, IntVec] | None = None
    fitted_order: float | None = None
    failures: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "order": self.params.s,
            "alpha": self.params.alpha,
            "q": self.params.q,
            "mode": self.params.mode,
            "gamma_sf": self.gamma_sf,
            "fitted_order": self.fitted_order,
            "pass": self.passed,
            "witness": self.witness,
            "gamma_ip": self.gamma_ip,
        }


# every overflow in it ends in an AnisoError that names the parameters at fault
@np.errstate(over="ignore")
def verify_sfc(ifun: FundamentalInterpolant, params: SFParams) -> SFReport:
    """Verify the Strang-Fix conditions, and compute ``gamma_IP``, on the
    shells ``||z||_inf <= window`` that the interpolant's grid declares
    complete (the window :meth:`AliasGrid.from_series` was given, for a
    series kernel), in one pass over the grid's row blocks.

    ``gamma_IP`` is ``m`` times the worst per-class ``l_q`` norm of ``|c_h|``
    and ``||M||^alpha sigma_alpha(z) |c_{h + M^T z}|``; it depends on
    ``alpha`` and ``q`` only.  Raises ``InsufficientSupport`` when the
    grid's window is ``None`` or not ``>= 0``, and ``AnisoError`` when
    ``||M||^alpha sigma_alpha`` overflows on the shells, when the bound
    ``kappa^{-s} ||M||^{-alpha} ||M^{-T} h||^s`` leaves the float range at
    some ``h != 0``, or when ``gamma_SF`` overflows.
    """
    pm, grid = ifun.pm, ifun.grid
    window = grid.window
    if window is None or not window >= 0:
        raise InsufficientSupport(f"the kernel declares no complete shells (window {window})")
    sd = spectral_data(pm)
    s, alpha, q = params.s, params.alpha, params.q
    keep = np.abs(grid.shifts).max(axis=1) <= window
    zs = grid.shifts[keep]
    sig = weights_many(zs, alpha, pm)
    if not np.isfinite(np.float64(sd.norm2) ** alpha * sig.max()):
        raise AnisoError(f"alpha = {alpha} overflows ||M||^alpha sigma_alpha(z)")
    center = int(np.flatnonzero(~zs.any(axis=1))[0])
    kappa_fac = sd.kappa ** (-s) if params.mode == "strict" else 1.0

    hs = gset_freqs(pm)
    ynorm = np.linalg.norm(inv_t_apply(hs, pm), axis=1)
    origin = int(np.flatnonzero(~hs.any(axis=1))[0])
    hmask = np.arange(pm.m) != origin
    with np.errstate(invalid="ignore"):
        rhs_inner = kappa_fac * ynorm**s
        rhs_outer = kappa_fac * sd.norm2 ** (-alpha) * ynorm**s
    # rhs_outer <= rhs_inner, so this also guards the inner quotients
    if not np.isfinite(rhs_inner[hmask]).all() or not (rhs_outer[hmask] > 0.0).all():
        raise AnisoError(f"order s = {s} with alpha = {alpha} puts the bound "
                         "kappa^-s ||M||^-alpha ||M^-T h||^s out of float range")
    rhs_outer[origin] = math.inf  # the zero class is checked below

    failures: list[str] = []
    witness = None

    # inner condition (z = 0); missing modes count as coefficient 0
    inner = np.abs(1.0 - pm.m * grid.coeffs[:, np.flatnonzero(keep)[center]])
    if inner[origin] > H0_TOL:
        failures.append(f"|1 - m c_0| = {inner[origin]:.3e} exceeds {H0_TOL}")
        witness = witness or (tuple(int(x) for x in hs[origin]), (0,) * pm.d)
    b0 = float((inner[hmask] / rhs_inner[hmask]).max()) if pm.m > 1 else 0.0

    # outer condition (z != 0)
    outer = np.arange(len(zs)) != center
    bad = outer & (pm.m * np.abs(grid.coeffs[origin, keep]) > H0_TOL)
    if bad.any():
        failures.append("nonzero coefficient on the zero class at z != 0")
        witness = witness or ((0,) * pm.d, tuple(int(x) for x in zs[np.argmax(bad)]))
    # one pass over the shells' row blocks: each block's |c_{h + M^T z}| gives
    # b_z as a running maximum down each column of m |c| / rhs_outer, and
    # gamma_IP as the worst norm along its rows
    weight = sd.norm2**alpha
    best, worst = np.zeros(len(zs)), np.zeros(())
    for rows, block in grid.row_blocks(None if keep.all() else keep):
        mags = np.abs(block)
        ratio = np.multiply(pm.m, mags)
        ratio /= rhs_outer[rows, None]
        np.maximum(best, ratio.max(axis=0, initial=0.0), out=best)
        terms = mags
        if alpha:  # sigma_0 is exactly 1, and so is ||M||^0
            terms = weight * (sig * mags)
            terms[:, center] = mags[:, center]
        worst = np.maximum(worst, lq_norm(terms, q, axis=1).max())
    # b_z on the shells, kept where positive, and always at z = 0
    best[center] = b0
    hit = (best > 0.0) | ~outer
    zkeys, bvals = zs[hit], best[hit]

    # truncated gamma_SF and its shell-convergence diagnostic
    weighted = sig[hit] * bvals
    gamma_sf = lq_norm(weighted, q)
    if not math.isfinite(gamma_sf):
        raise AnisoError(f"order s = {s} with alpha = {alpha} and q = {q} overflows gamma_SF")
    last = np.abs(zkeys).max(axis=1) == window
    # the last shell's share of gamma_SF^q is at most TAIL_FRAC (its max at
    # most sqrt(TAIL_FRAC) gamma_SF for q = inf)
    frac = math.sqrt(TAIL_FRAC) if math.isinf(q) else TAIL_FRAC ** (1.0 / q)
    if gamma_sf > 0.0 and window >= 1 and lq_norm(weighted[last], q) > frac * gamma_sf:
        failures.append("no geometric tail: last shell dominates gamma_SF")
        j = int(np.flatnonzero(last)[np.argmax(weighted[last])])
        witness = witness or (None, tuple(int(x) for x in zkeys[j]))

    # decay-order fit of the inner condition; needs genuine dynamic range
    # in ||M^{-T} h|| to say anything about asymptotic decay, so it is
    # skipped for small patterns (where b_0 legitimately absorbs the order)
    fitted_order = None
    tvals = inner[hmask]
    yv = ynorm[hmask]
    usable = tvals > 1e-13
    enough_range = (usable.sum() >= 8
                    and yv[usable].max() / yv[usable].min() >= 4.0)
    if enough_range:
        slope, _ = np.polyfit(np.log(yv[usable]), np.log(tvals[usable]), 1)
        fitted_order = float(slope)
        if fitted_order < s - ORDER_SLACK:
            failures.append(
                f"claimed order {s} exceeds fitted decay {fitted_order:.2f}"
            )
            j = int(np.argmax(tvals / rhs_inner[hmask]))
            witness = witness or (tuple(int(x) for x in hs[hmask][j]), (0,) * pm.d)

    return SFReport(
        params=params,
        shifts=zkeys,
        bz=bvals,
        gamma_sf=gamma_sf,
        gamma_ip=pm.m * float(worst),
        passed=not failures,
        witness=witness,
        fitted_order=fitted_order,
        failures=failures,
    )


@functools.cache
def gamma_sm(mu: float, alpha: float, q: float, d: int) -> float:
    """Smoothness constant of the aliasing theorem, as a certified upper bound.

    ``(1+d)^{alpha/2} 2^{mu}`` times the conjugate-``l_p`` norm of
    ``||2|z| - 1||^{-mu}`` over nonzero shifts (the maximum, reached on
    the shell ``||z||_inf = 1``, for ``q = 1``).  The ``2^{mu}`` factor
    comes from extracting ``(||M||^2 / 4)^{-p mu / 2}`` out of the shift
    sum ``sum_z sigma_{-p mu}(h + M^T z)``.

    The series is summed exactly one shell ``||z||_inf = r`` at a time up
    to some ``R``; since ``||2|z| - 1|| >= 2r - 1`` on a shell of at most
    ``2d (2r+1)^{d-1}`` points, the shells past ``R`` add at most
    ``d ((2R+1)/(2R-1))^{d-1} (2R-1)^{d - p mu} / (p mu - d)``.  The sum
    stops once that remainder is below ``1e-13`` of the partial sum, or at
    ``R = 200``, and the remainder is included.

    Raises
    ------
    ValueError
        Unless ``q >= 1``.
    DivergentSeries
        If ``mu <= d (1 - 1/q)``.
    """
    if not q >= 1:
        raise ValueError(f"q must be >= 1 or inf, got {q}")
    qinv = 0.0 if math.isinf(q) else 1.0 / q
    if mu <= d * (1.0 - qinv) + 1e-12:
        raise DivergentSeries(f"mu = {mu} must exceed d(1 - 1/q) = {d * (1 - qinv)}")
    pref = (1.0 + d) ** (alpha / 2.0) * 2.0**mu
    if q == 1:  # every z on the shell ||z||_inf = 1 has ||2|z| - 1|| = sqrt(d)
        return pref * math.sqrt(d) ** (-mu)
    p = 1.0 if math.isinf(q) else q / (q - 1.0)
    e = p * mu
    total = 0.0
    shells = _shell_sums(d, 1, SM_MAX_SHELL,
                         lambda z: np.linalg.norm(2.0 * np.abs(z) - 1.0, axis=1) ** (-e))
    for r, shell in enumerate(shells, 1):
        total += shell
        rest = d * ((2 * r + 1) / (2 * r - 1)) ** (d - 1) * (2 * r - 1) ** (d - e) / (e - d)
        if rest <= SM_REL_TOL * total:
            break
    return pref * float((total + rest) ** (1.0 / p))


def c_rho(gamma_sf: float, gamma_ip_val: float, gamma_sm_val: float,
          s: float, mu: float, alpha: float, d: int) -> tuple[float, float]:
    """Combined-bound exponent ``rho = min(s, mu - alpha)`` and constant."""
    rho = min(s, mu - alpha)
    tail = 2.0 ** (mu - alpha) + gamma_ip_val * gamma_sm_val
    if rho == s:
        return rho, gamma_sf + tail
    return rho, (1.0 + d) ** (s + alpha - mu) * gamma_sf + tail
