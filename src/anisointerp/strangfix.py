"""Numerical verification of the ellipsoidal periodic Strang-Fix conditions.

The conditions demand that the fundamental interpolant's coefficients obey

    |1 - m c_h|          <= b_0 kappa^{-s} ||M^{-T} h||^s          (inner)
    |m c_{h + M^T z}|    <= b_z kappa^{-s} ||M||^{-alpha} ||M^{-T} h||^s

for all canonical ``h != 0`` and ``z != 0``, with the weighted sequence
``{sigma_alpha(z) b_z}`` summable in ``l_q``.  The verifier computes the
tightest admissible ``b_z`` on a truncated shell range (the Definition
asks only for existence of some sequence, so the minimal witness is the
canonical one) and reports the truncated ``gamma_SF``.

On a fixed finite index set any order is attainable with large enough
constants, so finiteness alone cannot refute an overclaimed order.  The
verifier therefore also fits the decay exponent of ``|1 - m c_h|`` against
``||M^{-T} h||`` over the generating set and fails when the claimed order
exceeds the fitted one beyond a slack; this is what makes the check
falsifiable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergentSeries, InsufficientSupport
from .fspaces import WeightSpec, lq_norm, weights_many
from .interp import FundamentalInterpolant
from .intlat import IntVec
from .ptransform import fold_classes, gset_freqs
from .spectral import inv_t_apply, spectral_data

H0_TOL = 1e-10
TAIL_FRAC = 1e-6
ORDER_SLACK = 0.75


@dataclass(frozen=True)
class SFParams:
    """Claimed order ``s``, weight exponent ``alpha``, norm index ``q``,
    and mode (``"strict"`` keeps the ``kappa^{-s}`` factor, ``"relaxed"``
    omits it)."""

    s: float
    alpha: float = 0.0
    q: float = 2.0
    mode: str = "strict"

    def __post_init__(self):
        if not (self.s > 0 and self.alpha >= 0 and self.q >= 1):
            raise ValueError("need order s > 0, alpha >= 0 and q >= 1 (q may be inf)")
        if self.mode not in ("strict", "relaxed"):
            raise ValueError("mode must be 'strict' or 'relaxed'")


@dataclass
class SFReport:
    """Outcome of the Strang-Fix verification.

    ``b`` maps each tested aliasing shift ``z`` to the tightest admissible
    constant; ``gamma_sf`` is the (truncated) weighted ``l_q`` norm of that
    sequence.  ``fitted_order`` is the measured decay exponent of the inner
    condition, ``None`` when the interpolant reproduces exactly.
    """

    params: SFParams
    zmax: int
    b: dict[IntVec, float]
    gamma_sf: float
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
        }


def _shell_view(ifun: FundamentalInterpolant, zmax: int):
    """Class labels, exact aliasing shifts ``z`` (``k = h + M^T z``) and
    coefficients of the interpolant's modes with ``||z||_inf <= zmax``,
    and the mask of ``z = 0``.  Raises ``InsufficientSupport`` unless the
    series window certifies coverage of those shells.
    """
    if zmax < 0:
        raise ValueError(f"zmax must be >= 0, got {zmax}")
    win = ifun.series.window
    if win is None or win < zmax:
        raise InsufficientSupport(
            f"series window {win} does not cover requested shells {zmax}"
        )
    zinf = np.abs(ifun.shifts).max(axis=1)
    sel = zinf <= zmax
    return ifun.labels[sel], ifun.shifts[sel], ifun.series.coeffs[sel], zinf[sel] == 0


def verify_sfc(ifun: FundamentalInterpolant, params: SFParams, zmax: int,
               order_slack: float = ORDER_SLACK,
               tail_frac: float = TAIL_FRAC) -> SFReport:
    """Verify the Strang-Fix conditions on the shells ``||z||_inf <= zmax``.

    Raises ``InsufficientSupport`` when the interpolant's window does not
    cover those shells, and ``ValueError`` for a negative ``zmax``.
    """
    pm = ifun.pm
    labels, zs, coeffs, at0 = _shell_view(ifun, zmax)
    sd = spectral_data(pm)
    s = params.s
    kappa_fac = sd.kappa ** (-s) if params.mode == "strict" else 1.0

    hs = gset_freqs(pm)
    ynorm = np.linalg.norm(inv_t_apply(hs, pm), axis=1)
    origin = int(np.flatnonzero(~hs.any(axis=1))[0])

    failures: list[str] = []
    witness = None

    # inner condition (z = 0); missing modes count as coefficient 0
    inner = np.abs(1.0 - pm.m * fold_classes(labels[at0], coeffs[at0], pm).values)
    if inner[origin] > H0_TOL:
        failures.append(f"|1 - m c_0| = {inner[origin]:.3e} exceeds {H0_TOL}")
        witness = witness or (tuple(int(x) for x in hs[origin]),
                              (0,) * pm.d)

    hmask = np.arange(pm.m) != origin
    rhs_inner = kappa_fac * ynorm**s
    b0 = float((inner[hmask] / rhs_inner[hmask]).max()) if pm.m > 1 else 0.0

    # outer condition (z != 0)
    out = ~at0
    lab_o, zs_o, c_o = labels[out], zs[out], coeffs[out]
    zero_class = lab_o == origin
    bad = np.abs(pm.m * c_o[zero_class]) > H0_TOL
    if bad.any():
        j = np.flatnonzero(zero_class)[np.flatnonzero(bad)[0]]
        failures.append("nonzero coefficient on the zero class at z != 0")
        witness = witness or ((0,) * pm.d, tuple(int(x) for x in zs_o[j]))
    rhs_outer = kappa_fac * sd.norm2 ** (-params.alpha) * ynorm**s
    keep = ~zero_class
    ratios = np.abs(pm.m * c_o[keep]) / rhs_outer[lab_o[keep]]
    # b_z over the box ||z||_inf <= zmax, which holds every selected shift,
    # so z + zmax indexes it exactly; kept where positive, and always at z = 0
    box = (2 * zmax + 1,) * pm.d
    best = np.zeros(math.prod(box))
    np.maximum.at(best, np.ravel_multi_index((zs_o[keep] + zmax).T, box), ratios)
    center = np.ravel_multi_index((zmax,) * pm.d, box)
    best[center] = b0
    hit = np.union1d(np.flatnonzero(best > 0.0), center)
    zkeys = np.stack(np.unravel_index(hit, box), axis=1) - zmax
    bvals = best[hit]
    b = dict(zip(map(tuple, zkeys.tolist()), bvals.tolist()))

    # truncated gamma_SF and its shell-convergence diagnostic
    sig = weights_many(zkeys, params.alpha, pm)
    weighted = sig * bvals
    gamma_sf = lq_norm(weighted, params.q)
    shell = np.abs(zkeys).max(axis=1)
    last = shell == zmax
    tail_ok = True
    if gamma_sf > 0.0 and zmax >= 1:
        if math.isinf(params.q):
            tail_ok = weighted[last].max(initial=0.0) <= math.sqrt(tail_frac) * gamma_sf
        else:
            tail_ok = float((weighted[last] ** params.q).sum()) <= tail_frac * gamma_sf**params.q
    if not tail_ok:
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
        if fitted_order < s - order_slack:
            failures.append(
                f"claimed order {s} exceeds fitted decay {fitted_order:.2f}"
            )
            j = int(np.argmax(tvals / rhs_inner[hmask]))
            witness = witness or (tuple(int(x) for x in hs[hmask][j]), (0,) * pm.d)

    return SFReport(
        params=params,
        zmax=zmax,
        b=b,
        gamma_sf=gamma_sf,
        passed=not failures,
        witness=witness,
        fitted_order=fitted_order,
        failures=failures,
    )


def gamma_ip(ifun: FundamentalInterpolant, alpha: float, q: float,
             zmax: int) -> float:
    """Aliasing-theorem constant: ``m`` times the worst per-class aggregate
    of inner and weighted outer interpolant coefficients.

    Truncated at ``||z||_inf <= zmax`` (coverage checked like
    :func:`verify_sfc`).  Raises ``ValueError`` unless ``alpha >= 0`` and
    ``q >= 1`` (``q`` may be inf).
    """
    pm = ifun.pm
    WeightSpec(alpha, pm, q)
    labels, zs, coeffs, at0 = _shell_view(ifun, zmax)
    sd = spectral_data(pm)

    inner = np.abs(fold_classes(labels[at0], coeffs[at0], pm).values)
    sig = weights_many(zs[~at0], alpha, pm)
    outer_terms = sig * np.abs(coeffs[~at0])
    if math.isinf(q):
        per_h = inner.copy()
        scale = sd.norm2**alpha
        np.maximum.at(per_h, labels[~at0], scale * outer_terms)
        return pm.m * float(per_h.max())
    per_h = inner**q
    np.add.at(per_h, labels[~at0], sd.norm2 ** (alpha * q) * outer_terms**q)
    return pm.m * float(per_h.max() ** (1.0 / q))


def gamma_sm(mu: float, alpha: float, q: float, d: int,
             zmax: int = 200) -> float:
    """Smoothness constant of the aliasing theorem.

    ``(1+d)^{alpha/2} 2^{mu}`` times the conjugate-``l_p`` norm of
    ``||2|z| - 1||^{-mu}`` over nonzero shifts (sup for ``q = 1``), with a
    power-law extrapolation of the truncated series.  The ``2^{mu}`` factor
    comes from extracting ``(||M||^2 / 4)^{-p mu / 2}`` out of the shift
    sum ``sum_z sigma_{-p mu}(h + M^T z)``.

    Raises
    ------
    DivergentSeries
        If ``mu <= d (1 - 1/q)``.
    """
    qinv = 0.0 if math.isinf(q) else 1.0 / q
    if mu <= d * (1.0 - qinv) + 1e-12:
        raise DivergentSeries(f"mu = {mu} must exceed d(1 - 1/q) = {d * (1 - qinv)}")
    pref = (1.0 + d) ** (alpha / 2.0) * 2.0**mu
    from .boxspline import _int_box

    zs = _int_box(d, zmax)
    zs = zs[np.abs(zs).max(axis=1) > 0]
    norms = np.linalg.norm(2.0 * np.abs(zs) - 1.0, axis=1)
    if q == 1:
        return pref * float((norms ** (-mu)).max())
    p = 1.0 if math.isinf(q) else q / (q - 1.0)
    vals = norms ** (-p * mu)
    shell = np.abs(zs).max(axis=1)
    total = float(vals.sum())
    s_far = float(vals[shell == zmax].sum())
    s_mid = float(vals[shell == zmax // 2].sum())
    beta = math.log(s_mid / s_far) / math.log(zmax / (zmax // 2))
    remainder = s_far * zmax / (beta - 1.0) if beta > 1.0 else math.inf
    return pref * float((total + remainder) ** (1.0 / p))


def c_rho(gamma_sf: float, gamma_ip_val: float, gamma_sm_val: float,
          s: float, mu: float, alpha: float, d: int) -> tuple[float, float]:
    """Combined-bound exponent ``rho = min(s, mu - alpha)`` and constant."""
    rho = min(s, mu - alpha)
    tail = 2.0 ** (mu - alpha) + gamma_ip_val * gamma_sm_val
    if rho == s:
        return rho, gamma_sf + tail
    return rho, (1.0 + d) ** (s + alpha - mu) * gamma_sf + tail
