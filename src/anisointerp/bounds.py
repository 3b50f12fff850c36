"""Interpolation-error measurement and empirical validation of the bounds.

The error of interpolating ``f`` on the pattern splits by the triangle
inequality into three measurable pieces,

    f - L_M f = (S_M f - L_M S_M f) + (f - S_M f) - L_M (f - S_M f),

each with its own proven bound: the trigonometric-polynomial estimate
``gamma_SF ||M||^{-s}``, the partial-sum estimate ``(2/||M||)^{mu-alpha}``
and the aliasing estimate ``gamma_IP gamma_Sm ||M||^{alpha-mu}``.  This
module measures the actual weighted-norm errors, evaluates the right-hand
sides with the constants computed in :mod:`anisointerp.strangfix`, and runs
dilation studies ``M_j = 2^j M_0`` checking both the one-sided inequalities
and the observed log-log decay rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boxspline import BoxSplineSpec, PeriodizationWindow, periodize, sf_order
from .errors import AnisoError
from .fspaces import WeightSpec, a_norm, lq_norm, weights_many
from .interp import (
    FundamentalInterpolant,
    canonical_mask,
    dirichlet_kernel,
    evaluate_at_nodes,
    fundamental_interpolant,
    interpolation_operator,
)
from .intlat import PatternMatrix, validate_matrix
from .ptransform import FourierSeries, SampleVector, dft_inverse, fold_classes
from .spectral import is_expanding, spectral_data
from .strangfix import SFParams, SFReport, c_rho, gamma_ip, gamma_sm, verify_sfc

RATIO_TOL = 1e-9
NODE_TOL = 1e-6
_TINY = 1e-13


@dataclass
class ErrorBreakdown:
    """Measured interpolation error and its triangle-inequality components.

    ``total`` is ``||f - L_M f | A^alpha_q||``; the components are the
    trig-polynomial part ``||S_M f - L_M S_M f||``, the partial-sum part
    ``||f - S_M f||`` and the aliasing part ``||L_M (f - S_M f)||``.
    """

    total: float
    trig: float
    partial: float
    aliasing: float
    node_residual: float
    scale: float


def _find_rows(rows: np.ndarray, ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``rows`` that occur in ``ref`` (unique rows), as the pair
    ``(hit, at)`` with ``rows[hit] == ref[at]`` and ``hit`` increasing.

    Exact for any int64 entries, and ``rows`` is neither sorted nor copied.
    Axis by axis, an entry is replaced by its rank among ``ref``'s entries
    on that axis, and the key of the axes so far by the rank of that prefix
    among ``ref``'s prefixes, so every key stays below ``len(ref)**2``; a
    row drops out at the first axis or prefix that ``ref`` lacks.
    """
    n, d = ref.shape
    if n == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    if n * n >= 2**63:
        raise AnisoError(f"{n} rows are too many for exact int64 row keys")
    hit, key, ref_key = np.arange(len(rows)), 0, 0
    for a in range(d):
        vals = np.unique(ref[:, a])
        col = rows[:, a] if a == 0 else rows[hit, a]
        pos = np.minimum(np.searchsorted(vals, col), len(vals) - 1)
        keep = vals[pos] == col
        hit, key = hit[keep], (key * len(vals) + pos)[keep]
        ref_key = ref_key * len(vals) + np.searchsorted(vals, ref[:, a])
        prefixes = np.unique(ref_key)
        pos = np.minimum(np.searchsorted(prefixes, key), len(prefixes) - 1)
        keep = prefixes[pos] == key
        hit, key, ref_key = hit[keep], pos[keep], np.searchsorted(prefixes, ref_key)
    if len(prefixes) < n:
        raise ValueError("the series has repeated frequency rows")
    return hit, np.argsort(ref_key)[key]


def interp_error(f: FourierSeries, ifun: FundamentalInterpolant,
                 alpha: float, q: float) -> ErrorBreakdown:
    """Measure ``||f - L_M f | A^alpha_q||`` with the component breakdown.

    ``L_M f`` and ``L_M S_M f`` are applied to node samples and live on the
    interpolant's support; ``f - S_M f`` is ``f`` on its non-canonical
    modes.  No union of supports is formed: :func:`_find_rows` finds each of
    ``f``'s modes in the interpolant's support by exact per-axis ranks, so
    ``f - L_M f`` and ``S_M f - L_M S_M f`` are the support's rows, less
    ``f``'s coefficient where it has one, together with ``f``'s modes off
    the support.  One weight pass over the support serves the total, trig
    and aliasing norms, one over ``f``'s modes the rest.  Both supports must
    have unique rows, as :class:`FourierSeries` stores them (``ValueError``
    if ``f``'s repeat).  Every norm is an exact finite sum; the interpolant
    must cover the congruence classes of ``f``'s support (guaranteed when it
    stores every class, as the built-in kernels do).
    """
    pm = ifun.pm
    ws = WeightSpec(alpha, pm, q)
    freqs, fc = f.freqs.reshape(-1, pm.d), f.coeffs
    canon = canonical_mask(freqs, pm)
    fvals = evaluate_at_nodes(f, pm)
    lc, lsc = (interpolation_operator(SampleVector(v, pm), ifun).coeffs for v in
               (fvals, evaluate_at_nodes(FourierSeries(freqs[canon], fc[canon]), pm)))
    hit, at = _find_rows(ifun.series.freqs, freqs)
    off = np.ones(len(fc), dtype=bool)
    off[at] = False
    w, wf = (weights_many(ks, ws.beta, pm) for ks in (ifun.series.freqs, freqs))

    def error_norm(c, lg):  # ||g - L g||, g with coefficients c on f's modes
        diff = -lg
        diff[hit] += c[at]
        return lq_norm(np.concatenate([w * np.abs(diff), wf[off] * np.abs(c[off])]), ws.q)

    total, trig = error_norm(fc, lc), error_norm(np.where(canon, fc, 0), lsc)
    aliasing = lq_norm(w * np.abs(lc - lsc), ws.q)
    partial = lq_norm(wf[~canon] * np.abs(fc[~canon]), ws.q)
    residual = np.abs(pm.m * dft_inverse(fold_classes(ifun.labels, lc, pm)).values - fvals)
    return ErrorBreakdown(total=total, trig=trig, partial=partial, aliasing=aliasing,
                          node_residual=float(residual.max(initial=0.0)),
                          scale=float(np.abs(fc).max(initial=0.0)))


def _safe_ratio(num: float, den: float, scale: float) -> float:
    if den <= _TINY * scale:
        return 0.0 if num <= _TINY * scale else math.inf
    return num / den


def check_trig_theorem(f: FourierSeries, ifun: FundamentalInterpolant,
                       report: SFReport) -> float:
    """Ratio of the measured error of a trig polynomial ``f`` in ``T_M``
    to the bound ``||M||^{-s} gamma_SF ||f | A^{alpha+s}_q||``.

    ``f`` must be supported on the canonical generating set; ``report`` is
    a passing Strang-Fix verification of the interpolant.
    """
    pm = ifun.pm
    if not canonical_mask(f.freqs, pm).all():
        raise ValueError("f is not a trigonometric polynomial in T_M")
    p = report.params
    err = interp_error(f, ifun, p.alpha, p.q)
    sd = spectral_data(pm)
    rhs = sd.norm2 ** (-p.s) * report.gamma_sf * a_norm(
        f, p.alpha + p.s, WeightSpec(p.alpha, pm, p.q)
    )
    return _safe_ratio(err.total, rhs, err.scale)


def check_partial_sum_theorem(f: FourierSeries, pm: PatternMatrix,
                              alpha: float, mu: float, q: float) -> float:
    """Ratio of ``||f - S_M f | A^alpha_q||`` to
    ``(2/||M||)^{mu-alpha} ||f | A^mu_q||``; holds for any regular matrix."""
    if mu < alpha:
        raise ValueError("mu must be >= alpha")
    ws = WeightSpec(alpha, pm, q)
    hi = ~canonical_mask(f.freqs, pm)
    num = a_norm(FourierSeries(f.freqs[hi], f.coeffs[hi]), alpha, ws)
    sd = spectral_data(pm)
    rhs = (2.0 / sd.norm2) ** (mu - alpha) * a_norm(f, mu, ws)
    return _safe_ratio(num, rhs, float(np.abs(f.coeffs).max(initial=0.0)))


def check_aliasing_theorem(f: FourierSeries, ifun: FundamentalInterpolant,
                           alpha: float, mu: float, q: float,
                           zmax: int) -> float:
    """Ratio of ``||L_M (f - S_M f) | A^alpha_q||`` to the product bound
    ``gamma_IP gamma_Sm ||M||^{alpha-mu} ||f | A^mu_q||``."""
    pm = ifun.pm
    err = interp_error(f, ifun, alpha, q)
    sd = spectral_data(pm)
    gip = gamma_ip(ifun, alpha, q, zmax)
    gsm = gamma_sm(mu, alpha, q, pm.d)
    rhs = gip * gsm * sd.norm2 ** (alpha - mu) * a_norm(
        f, mu, WeightSpec(alpha, pm, q)
    )
    return _safe_ratio(err.aliasing, rhs, err.scale)


@dataclass(frozen=True)
class ExperimentSpec:
    """Configuration of a dilation convergence study.

    ``kernel`` is a :class:`BoxSplineSpec` or the string ``"dirichlet"``;
    ``test_function`` is the finite series interpolated at every scale.
    ``s`` defaults to the box-spline reproduction order.
    """

    base_matrix: PatternMatrix
    scales: tuple[int, ...]
    test_function: FourierSeries
    alpha: float
    mu: float
    q: float
    kernel: BoxSplineSpec | str = "dirichlet"
    s: float | None = None
    radius: int = 16
    tail_eps: float | None = 1e-5

    def __post_init__(self):
        if not self.scales:
            raise ValueError("need at least one scale")
        if not (math.isfinite(self.alpha) and math.isfinite(self.mu)):
            raise ValueError("alpha and mu must be finite")
        if not (self.mu >= self.alpha >= 0):
            raise ValueError("need mu >= alpha >= 0")
        qinv = 0.0 if math.isinf(self.q) else 1.0 / self.q
        if self.mu <= self.base_matrix.d * (1.0 - qinv):
            raise ValueError("need mu > d(1 - 1/q)")

    def order(self) -> float:
        if self.s is not None:
            return self.s
        if isinstance(self.kernel, BoxSplineSpec):
            return float(sf_order(self.kernel))
        raise ValueError("order s must be given for the Dirichlet kernel")


@dataclass
class ScaleRow:
    """One dilation level of a convergence study."""

    j: int
    m: int
    norm2: float
    error: float
    bound: float
    ratio: float
    node_residual: float
    gamma_sf: float
    sf_passed: bool


@dataclass
class BoundReport:
    """Per-scale records, the all-ratios verdict, and the fitted decay."""

    spec: ExperimentSpec
    rho: float
    rows: list[ScaleRow] = field(default_factory=list)
    fitted_rate: float | None = None
    fit_residual: float | None = None

    @property
    def verdict(self) -> bool:
        return all(
            r.ratio <= 1.0 + RATIO_TOL and r.node_residual <= NODE_TOL
            and r.sf_passed
            for r in self.rows
        )


def decay_profile(d: int, decay: float, kmax: int) -> FourierSeries:
    """Truncated series with real coefficients ``(1 + ||k||_2)^(-decay)``
    on the box ``||k||_inf <= kmax``; ``decay`` must be finite."""
    from .boxspline import _int_box

    if not math.isfinite(decay):
        raise ValueError("decay must be finite")
    ks = _int_box(d, kmax)
    coeffs = (1.0 + np.linalg.norm(ks, axis=1)) ** (-decay)
    return FourierSeries(ks, coeffs.astype(np.complex128), window=math.inf)


def build_interpolant(kernel: BoxSplineSpec | str, pm: PatternMatrix, radius: int,
                      tail_eps: float | None, allow_incorrect: bool = False
                      ) -> FundamentalInterpolant:
    """Fundamental interpolant of a box spline periodized with ``radius`` and
    ``tail_eps`` (window ``radius``), or of the Dirichlet kernel (window inf)."""
    phi = (periodize(kernel, pm, PeriodizationWindow(radius=radius, tail_eps=tail_eps))
           if isinstance(kernel, BoxSplineSpec) else dirichlet_kernel(pm))
    return fundamental_interpolant(phi, pm, allow_incorrect=allow_incorrect)


def _study_row(spec: ExperimentSpec, j: int, gsm: float) -> ScaleRow:
    mat = [[(2**j) * e for e in row] for row in spec.base_matrix.mat]
    pm = validate_matrix(mat)
    sd = spectral_data(pm)
    if not is_expanding(sd):
        raise ValueError(f"scale matrix at j={j} is not expanding")
    s = spec.order()
    ifun = build_interpolant(spec.kernel, pm, spec.radius, spec.tail_eps)
    f = spec.test_function
    err = interp_error(f, ifun, spec.alpha, spec.q)
    # the interpolant's window, spec.radius or inf, covers the shells up to spec.radius
    rep = verify_sfc(ifun, SFParams(s=s, alpha=spec.alpha, q=spec.q), zmax=spec.radius)
    rho, c_rho_val = c_rho(rep.gamma_sf, rep.gamma_ip, gsm, s, spec.mu, spec.alpha, pm.d)
    fmu = a_norm(f, spec.mu, WeightSpec(spec.alpha, pm, spec.q))
    bound = c_rho_val * sd.norm2 ** (-rho) * fmu
    return ScaleRow(
        j=j,
        m=pm.m,
        norm2=sd.norm2,
        error=err.total,
        bound=bound,
        ratio=_safe_ratio(err.total, bound, err.scale),
        node_residual=err.node_residual,
        gamma_sf=rep.gamma_sf,
        sf_passed=rep.passed,
    )


def convergence_study(spec: ExperimentSpec) -> BoundReport:
    """Run the dilation family ``M_j = 2^j M_0`` and validate the combined
    bound ``C_rho ||M_j||^{-rho} ||f | A^mu_q||`` at every scale.

    Rows are in increasing ``j``.  The decay rate is a least-squares
    log-log fit over ``j >= 1``, reported but not part of the verdict
    (the bound is one-sided).
    """
    s = spec.order()
    rho = min(s, spec.mu - spec.alpha)
    report = BoundReport(spec=spec, rho=rho)
    gsm = gamma_sm(spec.mu, spec.alpha, spec.q, spec.base_matrix.d)
    report.rows = [_study_row(spec, j, gsm) for j in sorted(spec.scales)]

    pts = [(math.log(r.norm2), math.log(r.error))
           for r in report.rows if r.j >= 1 and r.error > _TINY]
    if len(pts) >= 2:
        x, y = np.array([p[0] for p in pts]), np.array([p[1] for p in pts])
        slope, icpt = np.polyfit(x, y, 1)
        report.fitted_rate = float(slope)
        report.fit_residual = float(np.abs(y - (slope * x + icpt)).max())
    return report


def report_to_csv(report: BoundReport, path) -> None:
    """Write the per-scale records with the fixed ``j,m,norm2,error,bound,
    ratio`` header and 17-significant-digit floats (byte deterministic)."""
    lines = ["j,m,norm2,error,bound,ratio"]
    for r in report.rows:
        lines.append(
            f"{r.j},{r.m},{r.norm2:.17g},{r.error:.17g},"
            f"{r.bound:.17g},{r.ratio:.17g}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def report_to_svg(report: BoundReport, path) -> None:
    """Hand-emitted SVG log-log plot: error and bound vs ``||M||_2`` with
    the fitted slope annotated.  No plotting dependency."""
    rows = [r for r in report.rows if r.error > 0 and r.bound > 0]
    w, h, pad = 640, 480, 60
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
    ]
    if rows:
        xs = [math.log10(r.norm2) for r in rows]
        ys = [math.log10(r.error) for r in rows] + [math.log10(r.bound) for r in rows]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        x1 = x1 if x1 > x0 else x0 + 1.0
        y1 = y1 if y1 > y0 else y0 + 1.0

        def px(x):
            return pad + (x - x0) / (x1 - x0) * (w - 2 * pad)

        def py(y):
            return h - pad - (y - y0) / (y1 - y0) * (h - 2 * pad)

        parts.append(
            f'<rect x="{pad}" y="{pad}" width="{w - 2 * pad}" '
            f'height="{h - 2 * pad}" fill="none" stroke="black"/>'
        )
        for xv in sorted({round(v) for v in xs} | {math.floor(x0), math.ceil(x1)}):
            if x0 <= xv <= x1:
                parts.append(
                    f'<line x1="{px(xv):.1f}" y1="{h - pad}" x2="{px(xv):.1f}" '
                    f'y2="{h - pad + 6}" stroke="black"/>'
                    f'<text x="{px(xv):.1f}" y="{h - pad + 20}" font-size="11" '
                    f'text-anchor="middle">1e{xv:g}</text>'
                )
        for yv in range(math.floor(y0), math.ceil(y1) + 1):
            if y0 <= yv <= y1:
                parts.append(
                    f'<line x1="{pad - 6}" y1="{py(yv):.1f}" x2="{pad}" '
                    f'y2="{py(yv):.1f}" stroke="black"/>'
                    f'<text x="{pad - 10}" y="{py(yv):.1f}" font-size="11" '
                    f'text-anchor="end">1e{yv}</text>'
                )
        for key, color in (("error", "crimson"), ("bound", "steelblue")):
            pts = " ".join(
                f"{px(math.log10(r.norm2)):.1f},{py(math.log10(getattr(r, key))):.1f}"
                for r in rows
            )
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="2"/>'
            )
        parts.append(
            f'<text x="{w - pad}" y="{pad - 10}" font-size="12" text-anchor="end">'
            f'error (red) / bound (blue) vs ||M||_2; rho={report.rho:g}'
            + (f", fitted slope={report.fitted_rate:.2f}"
               if report.fitted_rate is not None else "")
            + "</text>"
        )
        parts.append(
            f'<text x="{w / 2:.0f}" y="{h - 15}" font-size="12" '
            f'text-anchor="middle">||M||_2 (log)</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
