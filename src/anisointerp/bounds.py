"""Interpolation-error measurement and empirical validation of the bounds.

The error of interpolating ``f`` on the pattern splits by the triangle
inequality into three measurable pieces,

    f - L_M f = (S_M f - L_M S_M f) + (f - S_M f) - L_M (f - S_M f),

each with its own proven bound: the trigonometric-polynomial estimate
``gamma_SF ||M||^{-s}``, the partial-sum estimate ``(2/||M||)^{mu-alpha}``
and the aliasing estimate ``gamma_IP gamma_Sm ||M||^{alpha-mu}``.  One call
of :func:`part_bounds` measures the error and its three parts and evaluates
the three right-hand sides, with ``gamma_SF`` and ``gamma_IP`` read from a
Strang-Fix report of :mod:`anisointerp.strangfix`, never recomputed.  A
dilation study ``M_j = 2^j M_0`` keeps that result in every row, checks
the combined one-sided bound and fits the observed log-log decay rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .boxspline import BoxSplineSpec, _int_box, periodize, sf_order
from .errors import AnisoError, DivergentSeries
from .fspaces import a_norm, grid_weights, lq_norm, weights_many
from .interp import FundamentalInterpolant, dirichlet_kernel, fundamental_interpolant
from .intlat import GRID_MAX, PatternMatrix, freq_shifts, validate_matrix
from .ptransform import (CoeffVector, FourierSeries, SampleVector, check_unique_rows,
                         dft_inverse, discrete_coeffs, fold_classes, freq_class_indices,
                         row_keys)
from .spectral import is_expanding, spectral_data
from .strangfix import SFParams, SFReport, _sf_pass, c_rho, gamma_sm

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


def interp_error(f: FourierSeries, ifun: FundamentalInterpolant,
                 alpha: float, q: float) -> ErrorBreakdown:
    """Measure ``||f - L_M f | A^alpha_q||`` with the component breakdown.

    ``L_M g`` is the interpolant's grid ``C`` with row ``h`` scaled by
    ``g_h = m ghat_h``, and ``f - S_M f`` is ``f`` off the canonical set;
    only ``f``'s modes are labelled, and found among the columns by their
    exact ``z``.  A difference is ``L_M g`` off ``f``'s modes (norm ``|g_h|``
    times a row norm of ``sigma_alpha |C|``), ``g - L_M g`` on them and
    ``g`` off the grid.  One walk of the grid's row blocks, in
    ``O(block * nz)`` memory, gives the row norms and the ``L_M f`` fold,
    and raises the interpolant's ``NonExistent`` before any result.  Every
    norm is an exact finite sum; ``f`` must have unique rows (``ValueError``).
    """
    add, result, _ = _error_pass(f, ifun.pm, ifun.grid.shifts, alpha, q)
    for rows, block in ifun.grid.row_blocks():
        add(rows, block)
    return result()


def _error_pass(f: FourierSeries, pm: PatternMatrix, shifts: np.ndarray, alpha: float, q: float):
    """:func:`interp_error` as ``add(rows, block)`` per row block, then ``result()``,
    and the partial sum ``S_M f``: ``f`` on its modes with aliasing shift ``z = 0``."""
    check_unique_rows(f)
    freqs, fc = f.freqs.reshape(-1, pm.d), f.coeffs
    labels, zf = freq_class_indices(freqs, pm), freq_shifts(freqs, pm)
    canon = ~(zf != 0).any(axis=1)
    # a shift past the grid's range, perhaps past int64, is off the grid
    near = ((zf >= shifts.min(axis=0)) & (zf <= shifts.max(axis=0))).all(axis=1)
    cols, key = row_keys(shifts), row_keys(np.where(near[:, None], zf, 0))
    col = np.minimum(np.searchsorted(cols, key), len(cols) - 1)
    off = ~near | (cols[col] != key)
    hit = np.flatnonzero(~off)
    lab, col = labels[hit], col[hit]
    fvals, svals = (pm.m * dft_inverse(fold_classes(labels[keep], fc[keep], pm)).values
                    for keep in (slice(None), canon))
    gf, gs = (pm.m * discrete_coeffs(SampleVector(v, pm)).values for v in (fvals, svals))
    wf = weights_many(freqs, alpha, pm)
    rows, on_f, on_c = np.empty(pm.m), np.empty(len(hit)), np.empty(len(hit), dtype=np.complex128)
    folded = np.empty(pm.m, dtype=np.complex128)

    def add(block_rows, block):
        table = np.abs(block)
        if alpha:  # sigma_0 is exactly 1
            table *= grid_weights(pm, shifts, alpha, block_rows)
        mine = np.flatnonzero((lab >= block_rows.start) & (lab < block_rows.stop))
        here = (lab[mine] - block_rows.start, col[mine])
        on_f[mine], on_c[mine] = table[here], block[here]
        table[here] = 0.0
        rows[block_rows] = lq_norm(table, q, axis=1)
        # L_M f folded in column order, as folding its flat series adds its modes
        lf = gf[block_rows, None] * block
        folded[block_rows] = np.cumsum(lf, axis=1, out=lf)[:, -1]

    def norm(*parts):
        return lq_norm(np.concatenate(parts), q)

    def error_norm(c, g):  # ||g - L g||, g with coefficients c on f's modes
        return norm(np.abs(g) * rows, wf[hit] * np.abs(c[hit] - g[lab] * on_c),
                    wf[off] * np.abs(c[off]))

    def result():
        total, trig = error_norm(fc, gf), error_norm(np.where(canon, fc, 0), gs)
        dg = np.abs(gf - gs)
        aliasing = norm(dg * rows, dg[lab] * on_f)
        partial = lq_norm(wf[~canon] * np.abs(fc[~canon]), q)
        residual = np.abs(pm.m * dft_inverse(CoeffVector(folded, pm)).values - fvals)
        return ErrorBreakdown(total=total, trig=trig, partial=partial, aliasing=aliasing,
                              node_residual=float(residual.max(initial=0.0)),
                              scale=float(np.abs(fc).max(initial=0.0)))
    return add, result, FourierSeries(freqs[canon], fc[canon])


def _safe_ratio(num: float, den: float, scale: float) -> float:
    if den <= _TINY * scale:
        return 0.0 if num <= _TINY * scale else math.inf
    return num / den


@dataclass
class PartBounds:
    """An error breakdown with its parts' bounds: ``trig`` is
    ``gamma_SF ||M||^{-s} ||S_M f | A^{alpha+s}_q||``, ``partial``
    ``(2/||M||)^{mu-alpha} f_mu`` and ``aliasing``
    ``gamma_IP gamma_Sm ||M||^{alpha-mu} f_mu``, with ``f_mu = ||f | A^mu_q||``
    and ``gsm = gamma_Sm``."""

    error: ErrorBreakdown
    trig: float
    partial: float
    aliasing: float
    f_mu: float
    gsm: float

    @property
    def ratios(self) -> dict[str, float]:
        e = self.error
        return {k: _safe_ratio(getattr(e, k), getattr(self, k), e.scale)
                for k in ("trig", "partial", "aliasing")}


def part_bounds(f: FourierSeries, ifun: FundamentalInterpolant, report: SFReport,
                mu: float) -> PartBounds:
    """Measure ``f``'s error at the ``alpha`` and ``q`` of ``report``, a
    Strang-Fix verification of ``ifun``, and bound its parts.  The trig bound
    needs a passing report; the others hold for any ``s`` and mode (``gamma_IP``
    depends on neither); the aliasing bound is ``inf`` if ``gamma_Sm`` diverges,
    ``mu <= d(1 - 1/q)``.  ``ValueError`` if ``mu < alpha``."""
    p = report.params
    if mu < p.alpha:
        raise ValueError("mu must be >= alpha")
    add, result, smf = _error_pass(f, ifun.pm, ifun.grid.shifts, p.alpha, p.q)
    for rows, block in ifun.grid.row_blocks():
        add(rows, block)
    return _part_bounds(result(), f, smf, ifun.pm, report, mu)


def _part_bounds(err: ErrorBreakdown, f: FourierSeries, smf: FourierSeries,
                 pm: PatternMatrix, report: SFReport, mu: float) -> PartBounds:
    """:func:`part_bounds` of a measured ``err`` and the error pass's ``smf = S_M f``."""
    p = report.params
    norm2 = spectral_data(pm).norm2
    f_mu = a_norm(f, mu, pm, p.q)
    try:
        gsm = gamma_sm(mu, p.alpha, p.q, pm.d)
        aliasing = report.gamma_ip * gsm * norm2 ** (p.alpha - mu) * f_mu
    except DivergentSeries:  # not gsm * f_mu, which is nan at f = 0
        gsm = aliasing = math.inf
    return PartBounds(
        error=err,
        trig=norm2 ** (-p.s) * report.gamma_sf * a_norm(smf, p.alpha + p.s, pm, p.q),
        partial=(2.0 / norm2) ** (mu - p.alpha) * f_mu,
        aliasing=aliasing, f_mu=f_mu, gsm=gsm,
    )


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
    tail_eps: float = 1e-4

    def __post_init__(self):
        if not self.scales:
            raise ValueError("need at least one scale")
        if len(set(self.scales)) < len(self.scales):
            raise ValueError(f"scales must be distinct, got {self.scales}")
        if not (math.isfinite(self.alpha) and math.isfinite(self.mu)):
            raise ValueError("alpha and mu must be finite")
        if not (self.mu >= self.alpha >= 0):
            raise ValueError("need mu >= alpha >= 0")
        if not self.q >= 1:
            raise ValueError(f"q must be >= 1 or inf, got {self.q}")
        qinv = 0.0 if math.isinf(self.q) else 1.0 / self.q
        if self.mu <= self.base_matrix.d * (1.0 - qinv):
            raise ValueError("need mu > d(1 - 1/q)")


def kernel_order(kernel: BoxSplineSpec | str, s: float | None) -> float:
    """``s``, by default the box spline's order; the Dirichlet kernel needs it."""
    if s is not None:
        return s
    if isinstance(kernel, BoxSplineSpec):
        return float(sf_order(kernel))
    raise ValueError("order s (--order) must be given for the Dirichlet kernel")


@dataclass
class ScaleRow:
    """One dilation level of a convergence study, with its :class:`PartBounds`
    and the Strang-Fix report's failure messages (none when it passed)."""

    j: int
    m: int
    norm2: float
    error: float
    bound: float
    ratio: float
    node_residual: float
    gamma_sf: float
    sf_failures: list[str]
    parts: PartBounds

    @property
    def failure(self) -> str | None:
        """The first of the ratio, node residual and Strang-Fix check to fail."""
        if not self.ratio <= 1.0 + RATIO_TOL:
            return f"ratio {self.ratio:.6e} exceeds 1"
        if not self.node_residual <= NODE_TOL:
            return f"node residual {self.node_residual:.3e} exceeds {NODE_TOL:g}"
        if self.sf_failures:
            return f"Strang-Fix: {self.sf_failures[0]}"
        return None


@dataclass
class BoundReport:
    """Per-scale records, the all-ratios verdict, and the fitted decay."""

    spec: ExperimentSpec
    rho: float
    rows: list[ScaleRow] = field(default_factory=list)
    fitted_rate: float | None = None

    @property
    def verdict(self) -> bool:
        return all(r.failure is None for r in self.rows)


def decay_profile(d: int, decay: float, kmax: int) -> FourierSeries:
    """Truncated series with real coefficients ``(1 + ||k||_2)^(-decay)``
    on the box ``||k||_inf <= kmax``; ``decay`` must be finite and
    ``kmax >= 0``.  ``AnisoError``, before anything is allocated, if the box
    holds more than ``GRID_MAX`` modes."""
    if not math.isfinite(decay):
        raise ValueError("decay must be finite")
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    if (2 * kmax + 1) ** d > GRID_MAX:
        raise AnisoError(f"kmax {kmax} needs a box of over {GRID_MAX} modes")
    ks = _int_box(d, kmax)
    coeffs = (1.0 + np.linalg.norm(ks, axis=1)) ** (-decay)
    return FourierSeries(ks, coeffs.astype(np.complex128))


def build_interpolant(kernel: BoxSplineSpec | str, pm: PatternMatrix, radius: int,
                      tail_eps: float, allow_incorrect: bool = False
                      ) -> FundamentalInterpolant:
    """Fundamental interpolant of a box spline periodized with ``radius`` and
    ``tail_eps`` (window ``radius``), or of the Dirichlet kernel (window inf)."""
    phi = (periodize(kernel, pm, radius, tail_eps)
           if isinstance(kernel, BoxSplineSpec) else dirichlet_kernel(pm))
    return fundamental_interpolant(phi, allow_incorrect=allow_incorrect)


def _study_row(spec: ExperimentSpec, j: int) -> ScaleRow:
    """One scale in one walk of its interpolant's row blocks, which feeds both
    the Strang-Fix pass and the error pass and holds no grid."""
    mat = [[Fraction(2) ** j * e for e in row] for row in spec.base_matrix.mat]
    if any(x.denominator != 1 for row in mat for x in row):
        raise ValueError(f"scale matrix 2^j M_0 at j={j} is not an integer matrix")
    pm = validate_matrix(mat)
    sd = spectral_data(pm)
    if not is_expanding(sd):
        raise ValueError(f"scale matrix at j={j} is not expanding")
    s = kernel_order(spec.kernel, spec.s)
    grid = build_interpolant(spec.kernel, pm, spec.radius, spec.tail_eps).grid
    check, report = _sf_pass(pm, grid.shifts, grid.window,
                             SFParams(s=s, alpha=spec.alpha, q=spec.q))
    measure, error, smf = _error_pass(spec.test_function, pm, grid.shifts, spec.alpha, spec.q)
    for rows, block in grid.row_blocks():  # NonExistent, if due, comes before either result
        check(rows, block)
        measure(rows, block)
    rep = report()
    parts = _part_bounds(error(), spec.test_function, smf, pm, rep, spec.mu)
    err = parts.error
    rho, const = c_rho(rep.gamma_sf, rep.gamma_ip, parts.gsm, s, spec.mu, spec.alpha, pm.d)
    bound = const * sd.norm2 ** (-rho) * parts.f_mu
    return ScaleRow(j=j, m=pm.m, norm2=sd.norm2, error=err.total, bound=bound,
                    ratio=_safe_ratio(err.total, bound, err.scale),
                    node_residual=err.node_residual, gamma_sf=rep.gamma_sf,
                    sf_failures=rep.failures, parts=parts)


def convergence_study(spec: ExperimentSpec) -> BoundReport:
    """Run the dilation family ``M_j = 2^j M_0`` and validate the combined
    bound ``C_rho ||M_j||^{-rho} ||f | A^mu_q||`` at every scale.

    Rows are in increasing ``j``.  The decay rate is a least-squares
    log-log fit over ``j >= 1``, reported but not part of the verdict
    (the bound is one-sided).
    """
    s = kernel_order(spec.kernel, spec.s)
    rho = min(s, spec.mu - spec.alpha)
    report = BoundReport(spec=spec, rho=rho)
    report.rows = [_study_row(spec, j) for j in sorted(spec.scales)]

    pts = [(math.log(r.norm2), math.log(r.error))
           for r in report.rows if r.j >= 1 and r.error > _TINY]
    if len(pts) >= 2:
        x, y = np.array(pts).T
        report.fitted_rate = float(np.polyfit(x, y, 1)[0])
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
