"""Strang-Fix verification and the theorem constants."""

import json
import math
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from anisointerp import (
    AliasGrid,
    AnisoError,
    BoxSplineSpec,
    DivergentSeries,
    FourierSeries,
    InsufficientSupport,
    SFParams,
    c_rho,
    cardinal_residual,
    dirichlet_kernel,
    fundamental_interpolant,
    gamma_sm,
    gset_freqs,
    inv_t_apply,
    lq_norm,
    periodize,
    reduce_freq,
    sf_order,
    spectral_data,
    validate_matrix,
    verify_sfc,
    weights_many,
)
from anisointerp.boxspline import _int_box
from reference_api import sf_b, translate_coeffs

FIG1 = validate_matrix([[8, 3], [0, 8]])
B222 = BoxSplineSpec(2, (2, 2, 2))


@pytest.fixture(scope="module")
def box_ifun():
    phi = periodize(B222, FIG1, 16, 1e-4)
    return fundamental_interpolant(phi)


def test_sfparams_validation():
    with pytest.raises(ValueError):
        SFParams(s=0.0)
    with pytest.raises(ValueError):
        SFParams(s=2.0, mode="loose")
    for bad in ({"s": math.nan}, {"s": math.inf}, {"s": 2.0, "q": math.nan},
                {"s": 2.0, "q": 0.5}, {"s": 2.0, "alpha": -1.0}, {"s": 2.0, "alpha": math.nan}):
        with pytest.raises(ValueError):
            SFParams(**bad)
    assert SFParams(s=2.0, alpha=math.inf, q=math.inf).q == math.inf


@pytest.mark.parametrize("alpha,q", [(0.0, 0.0), (0.0, math.nan), (0.0, 0.5),
                                     (-1.0, 2.0), (math.nan, 2.0)])
def test_gamma_ip_rejects_invalid_alpha_and_q(alpha, q):
    """``gamma_IP`` comes only from ``verify_sfc``, whose parameters refuse
    an ``alpha`` or ``q`` outside its domain."""
    pm = validate_matrix([[2, 1], [0, 2]])
    ifun = fundamental_interpolant(dirichlet_kernel(pm))
    with pytest.raises(ValueError):
        verify_sfc(ifun, SFParams(s=2.0, alpha=alpha, q=q))


def test_shifts_past_int64_raise():
    """Shifts come from the exact reduction, so a mode past the int64 range
    of ``(k - h) adj M`` still gets its exact shift as a grid column; only a
    shift that does not itself fit in int64 is refused, when the
    interpolant is built."""
    def with_mode(k, pm):
        phi = dirichlet_kernel(pm).series
        return FourierSeries(np.vstack([phi.freqs, [k]]), np.append(phi.coeffs, 0.5))

    pm = validate_matrix([[2, 1], [0, 2]])
    assert reduce_freq((2**63 - 1, 2**62 - 1), pm) == (-1, -1)
    position = {h: i for i, h in enumerate(map(tuple, gset_freqs(pm).tolist()))}
    mt = pm.transposed()
    params = SFParams(s=2.0)
    for k in ((2**63 - 1, 2**62 - 1), (2**61 - 2, -(2**61 - 2))):
        kernel = with_mode(k, pm)
        grid = AliasGrid.from_series(kernel, pm, math.inf)
        ifun, a_hat = fundamental_interpolant(grid), translate_coeffs(grid).values
        h = reduce_freq(k, pm)
        z = tuple(int(x) for x in mt.inv_apply(tuple(a - b for a, b in zip(k, h))))
        assert ifun.grid.shifts.tolist() == [[0, 0], list(z)]
        assert ifun.grid.coeffs[position[h], 1] == 0.5 * a_hat[position[h]]
        # the kernel grid declares itself complete (window inf), so the far shell
        # is checked: it enters b, gamma_SF and gamma_IP
        rep = verify_sfc(ifun, params)
        assert z in sf_b(rep) and math.isfinite(rep.gamma_sf)
        # the oracle's modes come from the kernel (the interpolant's flat
        # view would wrap), each scaled by its class's a_hat
        modes = []
        for kk, c in zip(kernel.freqs.tolist(), kernel.coeffs):
            hh = reduce_freq(kk, pm)
            zz = mt.inv_apply(tuple(a - b for a, b in zip(kk, hh)))
            modes.append((position[hh], tuple(int(x) for x in zz),
                          complex(c * a_hat[position[hh]])))
        expect_b, expect_ip = _table_oracle(ifun, params, math.inf, modes)
        expect_b[(0, 0)] = sf_b(rep)[(0, 0)]
        assert sf_b(rep) == expect_b
        assert rep.gamma_ip == pytest.approx(expect_ip, rel=1e-12)
        assert cardinal_residual(ifun) < 1e-12
    # h' + M^T z for the other classes h' would wrap: the flat view refuses
    kernel = AliasGrid.from_series(with_mode((2**63 - 1, 2**62 - 1), pm), pm)
    with pytest.raises(AnisoError, match="int64"):
        fundamental_interpolant(kernel).series

    # on M = [[2, 100], [0, 2]] the shift of (2^60, 0) is (2^59, -25 2^60)
    pm = validate_matrix([[2, 100], [0, 2]])
    with pytest.raises(AnisoError, match="does not fit in int64"):
        AliasGrid.from_series(with_mode((2**60, 0), pm), pm)


def test_dirichlet_passes_any_order_with_zero_gamma():
    ifun = fundamental_interpolant(dirichlet_kernel(FIG1))
    for s in (1.0, 4.0, 12.0):
        rep = verify_sfc(ifun, SFParams(s=s, alpha=1.0, q=2.0))
        assert rep.passed
        assert rep.gamma_sf == 0.0
        assert rep.fitted_order is None  # exact reproduction, nothing to fit
        assert all(b == 0.0 for b in sf_b(rep).values())


def test_box_spline_passes_at_its_order(box_ifun):
    s = sf_order(B222)
    for alpha in (0.0, 1.0):
        claim = s - alpha
        assert claim > 2  # hypothesis of the combined theorem
        rep = verify_sfc(box_ifun, SFParams(s=claim, alpha=alpha, q=2.0))
        assert rep.passed, rep.failures
        assert rep.gamma_sf > 0.0
        assert math.isfinite(rep.gamma_sf)


def test_box_spline_fails_at_inflated_order(box_ifun):
    s = sf_order(B222)
    rep = verify_sfc(box_ifun, SFParams(s=float(s + 4), alpha=0.0, q=2.0))
    assert not rep.passed
    assert rep.fitted_order is not None
    assert rep.fitted_order < s + 4 - 0.5
    assert rep.witness is not None
    assert any("fitted decay" in msg for msg in rep.failures)


def test_fitted_order_matches_reproduction_order(box_ifun):
    rep = verify_sfc(box_ifun, SFParams(s=4.0, alpha=0.0, q=2.0))
    assert rep.fitted_order == pytest.approx(4.0, abs=0.75)


def test_relaxed_mode_scales_b_by_kappa(box_ifun):
    s = 4.0
    strict = verify_sfc(box_ifun, SFParams(s=s, alpha=0.0, q=2.0))
    relaxed = verify_sfc(box_ifun, SFParams(s=s, alpha=0.0, q=2.0, mode="relaxed"))
    assert relaxed.passed
    kappa = spectral_data(FIG1).kappa
    assert relaxed.gamma_sf == pytest.approx(strict.gamma_sf * kappa**-s,
                                             rel=1e-10)


def test_insufficient_support_raised():
    """A series kernel given no window (or a negative or NaN one) says
    nothing of which shells it holds completely, so neither ``gamma_SF`` nor
    ``gamma_IP`` can be truncated."""
    phi = dirichlet_kernel(FIG1).series
    for window in (None, -1, math.nan):
        ifun = fundamental_interpolant(AliasGrid.from_series(phi, FIG1, window))
        for alpha in (0.0, 1.5):
            with pytest.raises(InsufficientSupport, match="window"):
                verify_sfc(ifun, SFParams(s=4.0, alpha=alpha))


def test_gamma_sf_is_weighted_lq_of_b(box_ifun):
    rep = verify_sfc(box_ifun, SFParams(s=4.0, alpha=1.0, q=2.0))
    zs = np.array(sorted(sf_b(rep)), dtype=np.int64)
    bv = np.array([sf_b(rep)[tuple(int(x) for x in z)] for z in zs])
    sig = weights_many(zs, 1.0, FIG1)
    assert rep.gamma_sf == pytest.approx(
        float(np.sqrt(((sig * bv) ** 2).sum())), rel=1e-12
    )


def test_b_matches_dict_loop_oracle(box_ifun):
    """The per-shift constants equal a plain per-mode maximum over a dict,
    with each mode's class from ``reduce_freq`` and its shift
    ``z = M^{-T} (k - h)`` in exact fractions, on every shell of the
    fixture's radius."""
    params, radius = SFParams(s=4.0, alpha=1.0, q=2.0), 16
    assert box_ifun.grid.window == radius
    rep = verify_sfc(box_ifun, params)
    sd = spectral_data(FIG1)
    hs = gset_freqs(FIG1)
    ynorm = np.linalg.norm(inv_t_apply(hs, FIG1), axis=1)
    rhs = sd.kappa ** -params.s * sd.norm2 ** -params.alpha * ynorm ** params.s
    position = {h: i for i, h in enumerate(map(tuple, hs.tolist()))}
    mt = FIG1.transposed()
    expect = {(0, 0): sf_b(rep)[(0, 0)]}
    for k, c in zip(box_ifun.series.freqs.tolist(), box_ifun.series.coeffs):
        h = reduce_freq(k, FIG1)
        z = mt.inv_apply(tuple(a - b for a, b in zip(k, h)))
        assert all(x.denominator == 1 for x in z)
        key = tuple(int(x) for x in z)
        lab = position[h]
        if not any(key) or max(map(abs, key)) > radius or not any(h):
            continue
        r = abs(FIG1.m * c) / rhs[lab]
        if r > expect.get(key, 0.0):
            expect[key] = float(r)
    assert sf_b(rep) == expect


def _table_oracle(ifun, params, window, modes):
    """``b_z`` (z != 0) and ``gamma_IP`` as plain per-mode loops over the
    ``modes`` with ``||z||_inf <= window``, a list of (class position,
    exact shift, coefficient)."""
    pm = ifun.pm
    sd = spectral_data(pm)
    hs = gset_freqs(pm)
    ynorm = np.linalg.norm(inv_t_apply(hs, pm), axis=1)
    rhs = sd.kappa ** -params.s * sd.norm2 ** -params.alpha * ynorm ** params.s
    mt = pm.transposed()
    b, inner, outer = {}, [0j] * pm.m, [[] for _ in range(pm.m)]
    for lab, z, c in modes:
        if max(map(abs, z)) > window:
            continue
        if not any(z):
            inner[lab] += c
            continue
        if any(hs[lab]):
            r = abs(pm.m * c) / rhs[lab]
            if r > b.get(z, 0.0):
                b[z] = float(r)
        y2 = sum(float(x) ** 2 for x in mt.inv_apply(z))
        sigma = (1.0 + sd.norm2**2 * y2) ** (params.alpha / 2.0)
        outer[lab].append(sd.norm2**params.alpha * sigma * abs(c))
    q = params.q
    if math.isinf(q):
        per_h = [max([abs(c0)] + t) for c0, t in zip(inner, outer)]
    else:
        per_h = [(abs(c0) ** q + sum(t**q for t in ts)) ** (1.0 / q)
                 for c0, ts in zip(inner, outer)]
    return b, pm.m * max(per_h)


def _rewindowed(phi, pm, window):
    """The fundamental interpolant of the series ``phi`` declared complete
    only up to ``window``: the shells past it stay stored but are not
    checked."""
    return fundamental_interpolant(AliasGrid.from_series(phi, pm, window))


def _oracle_modes(ifun):
    """Each mode of ``ifun`` as (class position, exact shift, coefficient),
    its class from ``reduce_freq`` and its shift ``z = M^{-T} (k - h)``."""
    pm = ifun.pm
    position = {h: i for i, h in enumerate(map(tuple, gset_freqs(pm).tolist()))}
    mt = pm.transposed()
    modes = []
    for k, c in zip(ifun.series.freqs.tolist(), ifun.series.coeffs):
        h = reduce_freq(k, pm)
        z = mt.inv_apply(tuple(a - b for a, b in zip(k, h)))
        assert all(x.denominator == 1 for x in z)
        modes.append((position[h], tuple(int(x) for x in z), complex(c)))
    return modes


def test_shell_table_matches_dict_loop_oracle():
    """``b`` and ``gamma_IP`` of ``verify_sfc`` equal per-mode loops over
    each mode's class from ``reduce_freq`` and its shift
    ``z = M^{-T} (k - h)`` in exact fractions, on the kernel's grid and on
    its series re-windowed one shell short, whose outermost stored shell is
    masked out."""
    from test_interp import _labelled_interpolants

    pm3 = validate_matrix([[2, 1, 0], [0, 2, 1], [1, 0, 2]])
    phi3 = periodize(BoxSplineSpec(3, (1,) * 6), pm3, 2, math.inf)
    for base in [*_labelled_interpolants(),
                 fundamental_interpolant(phi3, allow_incorrect=True)]:
        pm, win = base.pm, base.grid.window
        variants = [base] + ([_rewindowed(base.series, pm, win - 1)] if math.isfinite(win) else [])
        for ifun in variants:
            modes = _oracle_modes(ifun)
            for alpha in (0.0, 1.5):
                for q in (1.0, 2.0, math.inf):
                    params = SFParams(s=2.0, alpha=alpha, q=q)
                    rep = verify_sfc(ifun, params)
                    expect_b, expect_ip = _table_oracle(ifun, params, ifun.grid.window, modes)
                    expect_b[(0,) * pm.d] = sf_b(rep)[(0,) * pm.d]
                    assert sf_b(rep) == expect_b
                    assert rep.gamma_ip == pytest.approx(expect_ip, rel=1e-12)


def test_complex_kernel_matches_dict_loop_oracle():
    """On complex grids ``b_z`` is ``m |c|`` over the bound where the loop
    takes ``|m c|``, which may differ by an ulp; ``gamma_IP`` agrees as on
    real grids, on the kernel's radius-2 grid and re-windowed to 1."""
    from test_bounds import complex_kernels

    for kernel in complex_kernels(FIG1, 2):
        for ifun in (fundamental_interpolant(kernel), _rewindowed(kernel.series, FIG1, 1)):
            assert ifun.grid.coeffs.dtype == np.complex128
            modes = _oracle_modes(ifun)
            for alpha in (0.0, 1.5):
                for q in (1.0, 2.0, math.inf):
                    params = SFParams(s=2.0, alpha=alpha, q=q)
                    rep = verify_sfc(ifun, params)
                    expect_b, expect_ip = _table_oracle(ifun, params, ifun.grid.window, modes)
                    expect_b[(0, 0)] = sf_b(rep)[(0, 0)]
                    assert sf_b(rep).keys() == expect_b.keys()
                    for z, want in expect_b.items():
                        assert sf_b(rep)[z] == pytest.approx(want, rel=1e-15, abs=0.0), z
                    assert rep.gamma_ip == pytest.approx(expect_ip, rel=1e-12)


def test_study_and_sfcheck_take_gamma_ip_from_verify_sfc(monkeypatch, tmp_path, capsys, box_ifun):
    """``verify_sfc`` is the only reader of the shells: it makes exactly one
    pass over the interpolant's row blocks, which makes each block of its
    kernel once and scales it, and weights at most ``(2 R + 1)^d`` rows on a
    radius-``R`` grid; ``part_bounds`` makes one pass, its error pass, and no
    Strang-Fix pass of its own, and ``sfcheck`` reads ``gamma_IP`` from that
    one pass.  A study row holds no grid: it
    walks its interpolant once, making each kernel block once, into one
    Strang-Fix pass and one error pass, each fed every row block once, and
    reads ``gamma_IP`` from the former."""
    import anisointerp
    from anisointerp import (ExperimentSpec, boxspline, bounds, cli, convergence_study,
                             decay_profile, part_bounds, ptransform, strangfix)

    assert not any(hasattr(mod, "gamma_ip") for mod in (anisointerp, bounds, cli, strangfix))
    passes, rows, made = [], [], []
    row_blocks, weights = AliasGrid.row_blocks, strangfix.weights_many
    row_slices = boxspline._row_slices

    def counting(grid, *args):
        passes.append(sys._getframe(1).f_code.co_name)
        return row_blocks(grid, *args)

    def making(m, nz):  # the rows of each kernel block periodize makes
        for block_rows in row_slices(m, nz):
            made.append(block_rows)
            yield block_rows

    monkeypatch.setattr(AliasGrid, "row_blocks", counting)
    monkeypatch.setattr(boxspline, "_row_slices", making)
    monkeypatch.setattr(strangfix, "weights_many",
                        lambda ks, *args: rows.append(len(ks)) or weights(ks, *args))
    radius = 16
    assert box_ifun.grid.window == radius
    every_block = list(row_slices(FIG1.m, (2 * radius + 1) ** 2))
    rep = verify_sfc(box_ifun, SFParams(s=4.0, alpha=1.0, q=2.0))
    # the interpolant's walk is its kernel's walk, block for block
    assert passes == ["verify_sfc", "scaled"] and made == every_block
    assert sum(rows) <= (2 * radius + 1) ** 2

    passes.clear()
    made.clear()
    parts = part_bounds(decay_profile(2, 8.0, 12), box_ifun, rep, 6.0)
    assert 0.0 < parts.ratios["aliasing"] <= 1.0
    assert passes == ["part_bounds", "scaled"] and made == every_block

    passes.clear()
    made.clear()
    spec = ExperimentSpec(base_matrix=validate_matrix([[2, 1], [0, 2]]), scales=(0, 1),
                          test_function=decay_profile(2, 9.0, 8),
                          alpha=0.0, mu=6.0, q=2.0, kernel=B222, radius=8, tail_eps=1e-3)
    seen = {"_sf_pass": [], "_error_pass": []}

    def counting_pass(make):
        def made(*args):
            add, result, *rest = make(*args)
            mine = seen[make.__name__]
            return (lambda rows, block: mine.append(rows) or add(rows, block),
                    lambda: mine.append("result") or result(), *rest)
        return made

    for name in seen:
        monkeypatch.setattr(bounds, name, counting_pass(getattr(bounds, name)))
    nz = (2 * spec.radius + 1) ** 2
    monkeypatch.setattr(ptransform, "GRID_BLOCK", 3 * nz)  # 2 blocks at m = 4, 6 at m = 16
    assert convergence_study(spec).verdict
    # per row, each kernel block is made once, and each pass sees every row
    # block once and in order, then gives its result
    want = [rows for m in (4, 16) for rows in [*ptransform._row_slices(m, nz), "result"]]
    assert passes == ["_study_row", "scaled"] * 2 and seen == {name: want for name in seen}
    assert made == [rows for rows in want if rows != "result"]

    passes.clear()
    made.clear()
    mat = tmp_path / "M.txt"
    mat.write_text("2\n8 3\n0 8\n")
    assert cli.run(["sfcheck", str(mat), "--kernel", "2; 2,2,2", "--radius", "8",
                    "--tail-eps", "1e-3"]) == 0
    assert json.loads(capsys.readouterr().out)["gamma_ip"] > 0.0
    assert passes == ["verify_sfc", "scaled"] and made == list(row_slices(FIG1.m, 17**2))


def test_huge_alpha_raises():
    """An alpha that overflows ||M||^alpha sigma_alpha on the checked
    shells is refused by name, not turned into an infinite constant."""
    ifun = fundamental_interpolant(periodize(B222, FIG1, 8, 1e-3))
    for alpha in (math.inf, 400.0):
        for q in (math.inf, 2.0):
            with pytest.raises(AnisoError, match="alpha"):
                verify_sfc(ifun, SFParams(s=4.0, alpha=alpha, q=q))
    # the weights fit, but the weighted b_z do not
    with np.errstate(over="ignore"), pytest.raises(AnisoError, match="overflows gamma_SF"):
        verify_sfc(ifun, SFParams(s=12.0, alpha=140.0, q=4.0))


def test_lq_sums_do_not_overflow_before_the_norm():
    """``l_q`` sums are scaled by their largest term, so a norm that fits
    is returned, without a RuntimeWarning, even where ``x^q`` overflows."""
    assert lq_norm([1e100, 1e100], 4.0) == pytest.approx(2**0.25 * 1e100, rel=1e-15)
    assert lq_norm(np.array([[3.0, 4.0], [0.0, 0.0], [1e300, 1e300]]), 2.0,
                   axis=1) == pytest.approx([5.0, 0.0, 2**0.5 * 1e300], rel=1e-15)
    ifun = fundamental_interpolant(periodize(B222, FIG1, 8, 1e-3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = verify_sfc(ifun, SFParams(s=4.0, alpha=100.0, q=4.0))
    assert math.isfinite(rep.gamma_ip) and math.isfinite(rep.gamma_sf)
    # the same norms in exact rationals, scaled by a power of two that fits
    scale = 2.0**-900
    sig = weights_many(np.array(list(sf_b(rep))), 100.0, FIG1)
    exact = sum(Fraction(x * scale) ** 4 for x in sig * np.array(list(sf_b(rep).values())))
    assert rep.gamma_sf == pytest.approx(float(exact) ** 0.25 / scale, rel=1e-13)


def _report_ip(ifun, alpha, q):
    return verify_sfc(ifun, SFParams(s=4.0, alpha=alpha, q=q)).gamma_ip


def test_gamma_ip_dirichlet_is_one():
    ifun = fundamental_interpolant(dirichlet_kernel(FIG1))
    for q in (1.0, 2.0, math.inf):
        assert _report_ip(ifun, 1.5, q) == pytest.approx(1.0, rel=1e-12)


def test_gamma_ip_box_spline_exceeds_one_with_weight(box_ifun):
    v = _report_ip(box_ifun, 1.0, 2.0)
    assert v > 1.0
    # sup form is dominated by the q = 1 form
    assert _report_ip(box_ifun, 1.0, math.inf) <= _report_ip(box_ifun, 1.0, 1.0) + 1e-12


def test_underflowing_order_is_refused_by_name():
    """An order ``s`` whose bound ``kappa^-s ||M^-T h||^s`` underflows to 0
    at some ``h != 0`` is refused by name before anything divides by it,
    without a RuntimeWarning, even for the Dirichlet kernel, which
    reproduces exactly; a finite ``s`` is required."""
    kernels = [fundamental_interpolant(dirichlet_kernel(FIG1)),
               fundamental_interpolant(periodize(B222, FIG1, 8, 1e-3))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ifun in kernels:
            for mode in ("strict", "relaxed"):
                with pytest.raises(AnisoError, match="order s = 400.0"):
                    verify_sfc(ifun, SFParams(s=400.0, mode=mode))
        # a bound that stays positive but makes some b_z overflow
        with pytest.raises(AnisoError, match="order s = 300.0 .* overflows gamma_SF"):
            verify_sfc(kernels[1], SFParams(s=300.0))
        assert verify_sfc(kernels[0], SFParams(s=12.0)).passed
    with pytest.raises(ValueError, match="finite order"):
        SFParams(s=math.inf)


def test_gamma_sm_q1_closed_form():
    # q = 1: sup over z != 0 of ||2|z| - 1||^{-mu}; minimum norm sqrt(2)
    # at a unit z, so the sup is 2^{-mu/2}; prefactor (1+d)^{a/2} 2^mu
    for mu in (3.0, 4.0, 6.0):
        expect = 2.0**mu * 2.0 ** (-mu / 2.0)
        assert gamma_sm(mu, 0.0, 1.0, 2) == pytest.approx(expect, rel=1e-12)
    expect = 3.0 ** (1.0 / 2.0) * 2.0**4 * 2.0**-2
    assert gamma_sm(4.0, 1.0, 1.0, 2) == pytest.approx(expect, rel=1e-12)


def test_gamma_sm_series_value_q2():
    # frozen: d = 2, mu = 6, alpha = 0, q = 2 (p = 2); series
    # sum ||2|z|-1||^{-12} computed by direct summation here
    from itertools import product

    total = 0.0
    for z in product(range(-60, 61), repeat=2):
        if z == (0, 0):
            continue
        total += ((2 * abs(z[0]) - 1) ** 2 + (2 * abs(z[1]) - 1) ** 2) ** -6.0
    expect = 2.0**6.0 * total**0.5
    assert gamma_sm(6.0, 0.0, 2.0, 2) == pytest.approx(expect, rel=1e-9)


def test_gamma_sm_3d_is_fast_and_bounds_direct_sum():
    # d = 3, mu = 6, q = 2: the direct sum of ||2|z|-1||^{-12} over
    # ||z||_inf <= 20 is a lower bound, and the shells past 20 add < 1e-13
    start = time.perf_counter()
    value = gamma_sm.__wrapped__(6.0, 0.0, 2.0, 3)  # uncached: time the sum itself
    assert time.perf_counter() - start < 0.1
    z = _int_box(3, 20)
    z = z[np.abs(z).max(axis=1) > 0]
    direct = 2.0**6.0 * float((np.linalg.norm(2.0 * np.abs(z) - 1.0, axis=1)
                               ** -12.0).sum()) ** 0.5
    assert value >= direct
    assert value == pytest.approx(direct, rel=1e-12)


def test_gamma_sm_divergence_guard():
    with pytest.raises(DivergentSeries):
        gamma_sm(0.5, 0.0, 2.0, 2)  # mu <= d(1 - 1/q) = 1
    with pytest.raises(DivergentSeries):
        gamma_sm(1.5, 0.0, math.inf, 2)  # needs mu > 2
    # boundary is excluded
    with pytest.raises(DivergentSeries):
        gamma_sm(1.0, 0.0, 2.0, 2)
    # q is checked before 1/q is taken
    for q in (0.0, 0.5, math.nan):
        with pytest.raises(ValueError, match="q must be >= 1"):
            gamma_sm(6.0, 0.0, q, 2)


def test_c_rho_arithmetic():
    rho, c = c_rho(1.5, 2.0, 0.5, s=4.0, mu=6.0, alpha=1.0, d=2)
    assert rho == 4.0  # min(4, 6 - 1) = 4 -> first branch
    assert c == pytest.approx(1.5 + 2.0**5 + 2.0 * 0.5)
    rho2, c2 = c_rho(1.5, 2.0, 0.5, s=4.0, mu=4.0, alpha=1.0, d=2)
    assert rho2 == 3.0  # min(4, 3) -> second branch
    assert c2 == pytest.approx(3.0 ** (4.0 + 1.0 - 4.0) * 1.5 + 2.0**3 + 1.0)


def test_report_json_keys(box_ifun):
    rep = verify_sfc(box_ifun, SFParams(s=4.0, alpha=0.0, q=2.0))
    payload = rep.to_json_dict()
    assert list(payload) == ["order", "alpha", "q", "mode", "gamma_sf",
                             "fitted_order", "pass", "witness", "gamma_ip"]
    assert payload["pass"] is True
    assert payload["gamma_ip"] == rep.gamma_ip


@pytest.mark.parametrize("base", [[[2, 1], [0, 2]], [[3, 1], [1, 2]], [[4, 1], [0, 2]],
                                  [[2, 0], [0, 3]]])
def test_gamma_sf_is_nondecreasing_along_a_dilation_family(base):
    """Each ``b_z`` is a maximum over ``Y_M = M^{-T} Z^d`` in ``[-1/2, 1/2)^d``
    of a function that does not depend on ``M``; dilation nests ``Y_{M_j}``
    in ``Y_{M_{j+1}}``, and ``kappa`` is constant along ``2^j M_0``.  So
    ``gamma_SF(M_j)`` cannot decrease in ``j``, in either mode.  The slack is
    a relative 1e-12, as ``M^{-T} h`` rounds differently at each scale."""
    for mode in ("strict", "relaxed"):
        gammas = []
        for j in range(5):
            pm = validate_matrix([[2**j * x for x in row] for row in base])
            ifun = fundamental_interpolant(periodize(B222, pm, 8, 1e-3))
            gammas.append(verify_sfc(ifun, SFParams(s=4.0, mode=mode)).gamma_sf)
        assert all(b >= a * (1.0 - 1e-12) for a, b in zip(gammas, gammas[1:])), (mode, gammas)
        assert gammas[-1] > gammas[0]  # the family really grows its set Y_M
