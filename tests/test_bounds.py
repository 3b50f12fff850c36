"""Measured interpolation errors against the proven bounds."""

import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anisointerp import (
    AliasGrid,
    BoxSplineSpec,
    ErrorBreakdown,
    ExperimentSpec,
    AnisoError,
    FourierSeries,
    FundamentalInterpolant,
    NonExistent,
    SampleVector,
    SFParams,
    a_norm,
    alias_fold,
    c_rho,
    cardinal_residual,
    convergence_study,
    decay_profile,
    dirichlet_kernel,
    evaluate_at_nodes,
    fundamental_interpolant,
    gset_freqs,
    interp_error,
    interpolation_operator,
    part_bounds,
    periodize,
    report_to_csv,
    report_to_svg,
    spectral_data,
    translate,
    validate_matrix,
    verify_sfc,
    weights_many,
)
from anisointerp import bounds, cli, intlat, ptransform
from reference_api import fourier_partial_sum, merged, scaled, sf_b, zero_series
from test_intlat import regular_matrices

E2 = validate_matrix([[2, 0], [0, 2]])
M21 = validate_matrix([[2, 1], [0, 2]])
B222 = BoxSplineSpec(2, (2, 2, 2))
RATIO_TOL = 1.0 + 1e-9


@pytest.fixture(scope="module")
def box_e2():
    phi = periodize(B222, E2, 16, 1e-4)
    return fundamental_interpolant(phi)


def random_trig_poly(pm, rng):
    hs = gset_freqs(pm)
    c = rng.standard_normal(pm.m) + 1j * rng.standard_normal(pm.m)
    return FourierSeries(hs.copy(), c)


def test_trig_poly_dirichlet_error_zero():
    ifun = fundamental_interpolant(dirichlet_kernel(M21))
    rng = np.random.default_rng(0)
    f = random_trig_poly(M21, rng)
    err = interp_error(f, ifun, 0.0, 2.0)
    assert err.total < 1e-10
    assert err.node_residual < 1e-12


def test_single_outside_mode_closed_form():
    """f = e^{i k0 x} outside G_S with the Dirichlet kernel: the error has
    exactly two modes, k0 and its canonical representative h0."""
    ifun = fundamental_interpolant(dirichlet_kernel(E2))
    k0, h0 = (3, 0), (-1, 0)  # reduce((3,0)) mod (2 E_2)^T
    f = FourierSeries(np.array([k0]), np.array([2.0 + 0j]))
    alpha, q = 1.0, 2.0
    err = interp_error(f, ifun, alpha, q)
    wk, wh = weights_many([k0, h0], alpha, E2)
    expect = 2.0 * (wk**q + wh**q) ** (1 / q)
    assert err.total == pytest.approx(expect, rel=1e-12)
    # component split: partial-sum part carries k0, aliasing part h0
    assert err.partial == pytest.approx(2.0 * wk, rel=1e-12)
    assert err.aliasing == pytest.approx(2.0 * wh, rel=1e-12)
    assert err.trig < 1e-12


def test_triangle_decomposition(box_e2):
    rng = np.random.default_rng(21)
    f = decay_profile(2, 7.0, 10)
    f = f + scaled(random_trig_poly(E2, rng), 0.1)
    err = interp_error(f, box_e2, 1.0, 2.0)
    assert err.total <= err.trig + err.partial + err.aliasing + 1e-10


def interp_error_by_series_arithmetic(f, ifun, alpha, q):
    """Oracle: every difference of the breakdown as a series built with
    ``FourierSeries.__add__``, then normed on its own merged support."""
    pm = ifun.pm

    def interpolate(g):
        values = evaluate_at_nodes(g, pm)
        return interpolation_operator(SampleVector(values, pm), ifun)

    smf = fourier_partial_sum(f, pm)
    lmf, lm_smf = interpolate(f), interpolate(smf)
    residual = np.abs(evaluate_at_nodes(lmf, pm) - evaluate_at_nodes(f, pm))
    return ErrorBreakdown(
        total=a_norm(f + scaled(lmf, -1.0), alpha, pm, q),
        trig=a_norm(smf + scaled(lm_smf, -1.0), alpha, pm, q),
        partial=a_norm(f + scaled(smf, -1.0), alpha, pm, q),
        aliasing=a_norm(lmf + scaled(lm_smf, -1.0), alpha, pm, q),
        node_residual=float(residual.max(initial=0.0)),
        scale=float(np.abs(f.coeffs).max(initial=0.0)),
    )


def _oracle_kernel(name):
    if name == "dirichlet":
        pm = validate_matrix([[3, 1], [-1, 2]])
        return fundamental_interpolant(dirichlet_kernel(pm))
    if name == "box":
        phi = periodize(B222, M21, 6, math.inf)
        return fundamental_interpolant(phi)
    full = BoxSplineSpec(2, (1, 1, 1, 1), family="full")
    phi = periodize(full, E2, 6, math.inf)
    ifun = fundamental_interpolant(phi, allow_incorrect=True)
    assert ifun.incorrect_modes == [(-1, -1)]
    return ifun


def _oracle_function(pm, rng):
    """Decaying modes past the kernel's shell range, sparse far modes, and
    a trig polynomial on the canonical set; duplicate rows are summed."""
    far = rng.integers(-40, 41, size=(25, 2))
    freqs = np.vstack([decay_profile(2, 4.0, 14).freqs, far, gset_freqs(pm)])
    coeffs = rng.standard_normal(len(freqs)) + 1j * rng.standard_normal(len(freqs))
    return merged(freqs, coeffs)


@pytest.mark.parametrize("alpha,q", [(0.0, 2.0), (1.5, 2.0), (0.5, math.inf), (0.0, 1.0)])
@pytest.mark.parametrize("kernel", ["dirichlet", "box", "full"])
def test_interp_error_matches_series_arithmetic(kernel, alpha, q):
    ifun = _oracle_kernel(kernel)
    f = _oracle_function(ifun.pm, np.random.default_rng(11))
    assert 0 < len(fourier_partial_sum(f, ifun.pm)) < len(f)
    got = assert_matches_oracle(f, ifun, alpha, q)
    assert got.partial > 0.0 and got.aliasing > 0.0


@pytest.mark.parametrize("alpha,q", [(0.0, 2.0), (1.5, 2.0), (0.5, math.inf), (0.0, 1.0)])
def test_partial_sum_theorem_matches_series_arithmetic(alpha, q):
    mu = 6.0
    for pm in (E2, M21, validate_matrix([[3, 1], [-1, 2]])):
        f = _oracle_function(pm, np.random.default_rng(13))
        num = a_norm(f + scaled(fourier_partial_sum(f, pm), -1.0), alpha, pm, q)
        rhs = (2.0 / spectral_data(pm).norm2) ** (mu - alpha) * a_norm(f, mu, pm, q)
        assert num > 0.0
        assert _partial_ratio(f, pm, alpha, mu, q) == pytest.approx(
            num / rhs, rel=1e-12, abs=0.0)


ORACLE_NORMS = [(0.0, 2.0), (1.5, 2.0), (0.5, math.inf), (0.0, 1.0)]


def assert_matches_oracle(f, ifun, alpha, q):
    """Every norm of the breakdown is the oracle's to ``rel=1e-12``, or within
    ``1e-14 scale`` (the Dirichlet kernel's ``trig`` is 0 in exact arithmetic,
    round-off on either side); the node residual is round-off on both sides,
    each at most ``1e-12 scale``."""
    got = interp_error(f, ifun, alpha, q)
    expect = interp_error_by_series_arithmetic(f, ifun, alpha, q)
    for name in ("total", "trig", "partial", "aliasing", "scale"):
        want = getattr(expect, name)
        assert getattr(got, name) == pytest.approx(want, rel=1e-12, abs=1e-14 * expect.scale), name
    assert max(got.node_residual, expect.node_residual) <= 1e-12 * expect.scale
    return got


def _off_support(ifun, freqs):
    support = {tuple(k) for k in ifun.series.freqs.tolist()}
    return np.array([k for k in freqs.tolist() if tuple(k) not in support],
                    dtype=np.int64).reshape(-1, 2)


def _edge_function(case, ifun, rng):
    """``wrap``: modes at +-2^40 plus modes on the support; ``disjoint``:
    no mode on the support; ``empty``; ``outside``: one mode ``h + M^T z``
    with ``||z||_inf = 9``, past the radius-6 shells of the oracle kernels."""
    pm = ifun.pm
    if case == "empty":
        return zero_series(2)
    if case == "outside":
        k = gset_freqs(pm)[-1] + np.array([9, -4]) @ pm.mat_np
        assert len(_off_support(ifun, k[None])) == 1
        return FourierSeries(k[None], np.array([0.5 - 2j]))
    if case == "wrap":
        big = 2**40
        freqs = np.vstack([[[big, -big], [-big, big], [big, 3], [-5, -big]],
                           ifun.series.freqs[::7][:40], gset_freqs(pm)])
        # a key packed over f's bounding box would need more than 63 bits
        assert math.prod(int(c) + 1 for c in np.ptp(freqs, axis=0)) >= 2**63
    else:
        freqs = _off_support(ifun, rng.integers(-60, 61, size=(60, 2)))
    coeffs = rng.standard_normal(len(freqs)) + 1j * rng.standard_normal(len(freqs))
    return merged(freqs, coeffs)


@pytest.mark.parametrize("case", ["wrap", "disjoint", "empty", "outside"])
@pytest.mark.parametrize("kernel", ["dirichlet", "box", "full"])
def test_interp_error_edge_cases_match_series_arithmetic(kernel, case):
    ifun = _oracle_kernel(kernel)
    f = _edge_function(case, ifun, np.random.default_rng(17))
    for alpha, q in ORACLE_NORMS:
        assert_matches_oracle(f, ifun, alpha, q)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 3), box=st.booleans(), data=st.data())
def test_interp_error_matches_series_arithmetic_property(d, box, data):
    """Random regular matrices and random sparse ``f``: some modes on the
    interpolant's support, some off it, some near the int64 range."""
    mat = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                             min_size=d, max_size=d))
    det = round(np.linalg.det(np.array(mat, dtype=float)))
    assume(det != 0 and abs(det) <= 12)
    pm = validate_matrix(mat)
    if box:
        spec = BoxSplineSpec(d, (2,) * (d * (d + 1) // 2))
        phi = periodize(spec, pm, 2, math.inf)
        ifun = fundamental_interpolant(phi, allow_incorrect=True)
    else:
        ifun = fundamental_interpolant(dirichlet_kernel(pm))
    support = ifun.series.freqs
    picked = data.draw(st.lists(st.integers(0, len(support) - 1), max_size=8))
    entry = st.one_of(st.integers(-20, 20), st.sampled_from([-2**40, 2**40, 2**62]))
    drawn = data.draw(st.lists(st.lists(entry, min_size=d, max_size=d), max_size=8))
    freqs = np.vstack([support[picked].reshape(-1, d),
                       np.array(drawn, dtype=np.int64).reshape(-1, d)])
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    coeffs = rng.standard_normal(len(freqs)) + 1j * rng.standard_normal(len(freqs))
    f = merged(freqs, coeffs)
    alpha, q = data.draw(st.sampled_from(ORACLE_NORMS))
    assert_matches_oracle(f, ifun, alpha, q)
    # the triangle inequality, and the partial-sum estimate, which holds for
    # every regular M (mu = 6 > d(1 - 1/q) for d <= 3)
    parts = part_bounds(f, ifun, verify_sfc(ifun, SFParams(s=1.0, alpha=alpha, q=q)), 6.0)
    err = parts.error
    assert err.total <= (err.trig + err.partial + err.aliasing) * (1.0 + 1e-12)
    assert parts.ratios["partial"] <= RATIO_TOL


def complex_kernels(pm, radius):
    """The box spline B(2,2,2) translated by the pattern point ``M^{-1} (0, 1)``
    (a complex grid whose interpolant is the real one up to round-off) and
    by ``(0.3, -0.7)``, off the pattern (a complex interpolant), as grids
    complete up to ``radius``."""
    phi = periodize(B222, pm, radius, math.inf).series
    off = FourierSeries(phi.freqs, phi.coeffs * np.exp(-1j * (phi.freqs @ [0.3, -0.7])))
    kernels = [AliasGrid.from_series(f, pm, radius) for f in (translate(phi, (0, 1), pm), off)]
    for kernel in kernels:
        assert np.abs(kernel.coeffs.imag).max() > 0.1 * np.abs(kernel.coeffs).max()
    return kernels


def test_interp_error_matches_series_arithmetic_for_a_complex_kernel():
    """Complex grids: the row norms scale by ``|g_h|`` as a real grid's do."""
    f = _oracle_function(M21, np.random.default_rng(19))
    for kernel in complex_kernels(M21, 6):
        ifun = fundamental_interpolant(kernel)
        assert ifun.grid.coeffs.dtype == np.complex128
        for alpha, q in ORACLE_NORMS:
            assert_matches_oracle(f, ifun, alpha, q)


def test_study_never_imports_numpy_ma():
    """``np.unique`` imports ``numpy.ma`` (about 18 ms) on its first call in
    a process; a fresh study must not pay for it."""
    src = str(Path(bounds.__file__).parents[1])
    code = ("import sys\n"
            "from anisointerp import (BoxSplineSpec, ExperimentSpec, convergence_study,\n"
            "                         decay_profile, validate_matrix)\n"
            "spec = ExperimentSpec(base_matrix=validate_matrix([[2, 1], [0, 2]]),\n"
            "                      scales=(0, 1), test_function=decay_profile(2, 9.0, 8),\n"
            "                      alpha=0.0, mu=6.0, q=2.0, kernel=BoxSplineSpec(2, (2, 2, 2)),\n"
            "                      radius=8, tail_eps=1e-3)\n"
            "assert convergence_study(spec).verdict\n"
            "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


_NEAR_2_62 = st.integers(2**62 - 40, 2**62 + 40) | st.integers(-(2**62) - 40, -(2**62) + 40)


@settings(max_examples=60, deadline=None)
@given(regular_matrices(), st.data())
def test_error_pass_partial_sum_is_the_reduction_oracle(mat, data):
    """The ``S_M f`` that the error pass splits off, ``f`` on its modes with
    aliasing shift ``z = 0``, is ``f`` on the modes that the exact reduction
    leaves fixed, row for row, also for modes near ``+-2^62``."""
    pm = validate_matrix(mat)
    entry = st.integers(-12, 12) | _NEAR_2_62
    rows = data.draw(st.lists(st.tuples(*[entry] * pm.d), unique=True, max_size=25))
    freqs = np.array(rows, dtype=np.int64).reshape(-1, pm.d)
    f = FourierSeries(freqs, np.arange(1, len(rows) + 1) * (1.0 - 0.5j))
    smf = bounds._error_pass(f, pm, np.zeros((1, pm.d), dtype=np.int64), 0.0, 2.0)[2]
    want = fourier_partial_sum(f, pm)
    assert smf.freqs.tolist() == want.freqs.tolist()
    assert smf.coeffs.tolist() == want.coeffs.tolist()


def test_study_row_and_part_bounds_reduce_f_once(monkeypatch, box_e2):
    """A study row and a ``part_bounds`` call each reduce ``f``'s modes
    exactly once: one ``freq_shifts`` call gives the error pass both the
    aliasing shifts and ``S_M f``, and no other reduction relabels ``f``
    for the part bounds."""
    f = decay_profile(2, 9.0, 8)
    calls = []

    def on_f(ks):
        ks = np.asarray(ks)
        return ks.shape == f.freqs.shape and np.array_equal(ks, f.freqs)

    def counting(name, fn):
        def counted(ks, *args):
            if on_f(ks):
                calls.append(name)
            return fn(ks, *args)
        return counted

    shift_rows = intlat._shift_rows  # every exact reduction of a frequency array
    monkeypatch.setattr(intlat, "_shift_rows", counting("_shift_rows", shift_rows))
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "anisointerp" and hasattr(mod, "freq_shifts"):
            monkeypatch.setattr(mod, "freq_shifts", counting("freq_shifts", mod.freq_shifts))
    spec = ExperimentSpec(base_matrix=M21, scales=(1,), test_function=f, alpha=0.0, mu=6.0,
                          q=2.0, kernel=B222, radius=8, tail_eps=1e-3)
    assert bounds._study_row(spec, 1).failure is None
    assert calls == ["freq_shifts", "_shift_rows"]

    rep = verify_sfc(box_e2, SFParams(s=4.0, alpha=0.0, q=2.0))
    calls.clear()
    assert part_bounds(f, box_e2, rep, 6.0).error.total > 0.0
    assert calls == ["freq_shifts", "_shift_rows"]


def test_interp_error_rejects_repeated_rows():
    ifun = _oracle_kernel("dirichlet")
    f = FourierSeries(np.array([[1, 0], [1, 0]]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="repeated"):
        interp_error(f, ifun, 0.0, 2.0)


def test_interp_error_never_merges_the_support(monkeypatch):
    """The study's j=3 interpolant (m=256, 278 784 modes) with every merge,
    and every lexsort or vstack as long as its support, made to raise."""
    pm = validate_matrix([[16, 8], [0, 16]])
    ifun = bounds.build_interpolant(B222, pm, 16, 1e-4)
    f = decay_profile(2, 9.0, 16)
    n = len(ifun.series)

    def refuse(*args, **kwargs):
        raise AssertionError("merge_rows called")

    def guard(fn, length):
        def wrapped(arrays, *args, **kwargs):
            if length(arrays) >= n:
                raise AssertionError(f"{fn.__name__} over the support")
            return fn(arrays, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(ptransform, "merge_rows", refuse)
    monkeypatch.setattr(bounds, "merge_rows", refuse, raising=False)
    monkeypatch.setattr(np, "lexsort", guard(np.lexsort, lambda k: np.shape(k)[-1]))
    monkeypatch.setattr(np, "vstack", guard(np.vstack, lambda a: sum(map(len, a))))
    err = interp_error(f, ifun, 0.0, 2.0)
    # the study's error at j=3 (anisointerp converge on the benchmark config)
    assert err.total == pytest.approx(1.8818036851855097e-07, rel=1e-12)
    assert err.node_residual < 1e-12


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="np.longdouble is no wider than float64 here")
def test_interp_error_matches_an_extended_precision_recomputation():
    """The study's j = 4 error (m = 1024, alpha = 0, q = 2) is within 1e-11
    of ``||f - L_M f||`` recomputed in ``np.longdouble`` on the same float64
    grid, ``g = m * fold(f)`` summed mode by mode; a ``g`` read back off a
    DFT round trip of ``f``'s node values puts ``total`` 6.2e-10 off here."""
    pm = validate_matrix([[32, 16], [0, 32]])
    ifun = bounds.build_interpolant(B222, pm, 16, 1e-4)
    f = decay_profile(2, 9.0, 16)
    labels, z = ptransform.freq_class_indices(f.freqs, pm), intlat.freq_shifts(f.freqs, pm)
    assert not f.coeffs.imag.any() and np.abs(z).max() <= 16
    c = f.coeffs.real.astype(np.longdouble)
    g = np.zeros(pm.m, dtype=np.longdouble)
    np.add.at(g, labels, c)
    diff = pm.m * g[:, None] * ifun.grid.coeffs.astype(np.longdouble)
    diff[labels, np.ravel_multi_index((z + 16).T, (33, 33))] -= c  # the box's columns, in order
    want = np.sqrt(np.sum(diff * diff))
    got = interp_error(f, ifun, 0.0, 2.0).total
    assert abs(got - want) <= 1e-11 * want, float(abs(got - want) / want)


def test_node_residual_catches_a_mis_scaled_interpolant():
    """A held grid whose rows do not sum to ``1/m`` is no fundamental
    interpolant, and ``L_M f`` misses ``f`` at the nodes: the error pass's
    residual is the series oracle's, and past the study's ``NODE_TOL``."""
    good = _oracle_kernel("box")
    rng = np.random.default_rng(31)
    coeffs = good.grid.coeffs * (1.0 + 1e-3 * rng.standard_normal(good.pm.m))[:, None]
    ifun = FundamentalInterpolant(AliasGrid(good.pm, good.grid.shifts, coeffs, good.grid.window))
    f = _oracle_function(ifun.pm, np.random.default_rng(11))
    got = interp_error(f, ifun, 0.0, 2.0)
    want = interp_error_by_series_arithmetic(f, ifun, 0.0, 2.0)
    assert got.node_residual == pytest.approx(want.node_residual, rel=1e-12)
    assert got.node_residual > bounds.NODE_TOL * got.scale


def test_error_pass_makes_one_inverse_transform(monkeypatch, box_e2):
    """The error pass reads ``g`` off ``f``'s fold, with no transform; its
    one pattern DFT is the inverse one of the node residual."""
    f = decay_profile(2, 9.0, 8)
    grid_fft, calls = ptransform._grid_fft, []

    def counted(values, pm, forward):
        calls.append("forward" if forward else "inverse")
        return grid_fft(values, pm, forward)

    monkeypatch.setattr(ptransform, "_grid_fft", counted)
    interp_error(f, box_e2, 1.5, 2.0)
    assert calls == ["inverse"]


def _block_kernels():
    """A box spline, the Dirichlet kernel, and a series kernel that stores a
    shell past its window, on ``[[8, 3], [0, 8]]`` (m = 64)."""
    pm = validate_matrix([[8, 3], [0, 8]])
    phi = periodize(B222, pm, 4, math.inf)
    return [fundamental_interpolant(phi), fundamental_interpolant(dirichlet_kernel(pm)),
            fundamental_interpolant(AliasGrid.from_series(phi.series, pm, 3))]


@pytest.mark.parametrize("rows", [1, 3])
def test_row_blocks_leave_every_result_bit_for_bit_unchanged(monkeypatch, rows):
    """``interp_error`` and ``verify_sfc`` stream the grid in
    row blocks; blocks of one row, and of three rows (which do not divide
    m = 64), give exactly the numbers of one block over the whole grid."""

    def results(ifun):
        out = []
        for alpha in (0.0, 1.5):
            for q in (1.0, 2.0, math.inf):
                rep = verify_sfc(ifun, SFParams(s=2.0, alpha=alpha, q=q))
                out.append((interp_error(f, ifun, alpha, q), sf_b(rep), rep.gamma_sf,
                            rep.gamma_ip, rep.fitted_order, rep.passed))
        return out

    kernels = _block_kernels()
    assert np.abs(kernels[2].grid.shifts).max() > kernels[2].grid.window
    for ifun in kernels:
        f = _oracle_function(ifun.pm, np.random.default_rng(23))
        nz = ifun.grid.coeffs.shape[1]
        assert len(list(ifun.grid.row_blocks())) == 1
        whole = results(ifun)
        monkeypatch.setattr(ptransform, "GRID_BLOCK", rows * nz)
        assert len(list(ifun.grid.row_blocks())) == -(-ifun.pm.m // rows)
        assert results(ifun) == whole
        monkeypatch.undo()


def _held_row(spec, j):
    """A study row from a held kernel, the reference of the streamed row: the
    kernel's row blocks concatenated into one array, then
    ``fundamental_interpolant``, ``verify_sfc`` and ``part_bounds``, then the
    combined bound as the study forms it."""
    pm = validate_matrix([[2**j * e for e in row] for row in spec.base_matrix.mat])
    s = bounds.kernel_order(spec.kernel, spec.s)
    kernel = (periodize(spec.kernel, pm, spec.radius, spec.tail_eps)
              if isinstance(spec.kernel, BoxSplineSpec) else bounds.dirichlet_kernel(pm))
    held = np.concatenate([block for _, block in kernel.row_blocks()])
    ifun = fundamental_interpolant(AliasGrid(pm, kernel.shifts, held, kernel.window))
    rep = verify_sfc(ifun, SFParams(s=s, alpha=spec.alpha, q=spec.q))
    parts = part_bounds(spec.test_function, ifun, rep, spec.mu)
    err, norm2 = parts.error, spectral_data(pm).norm2
    rho, const = c_rho(rep.gamma_sf, rep.gamma_ip, parts.gsm, s, spec.mu, spec.alpha, pm.d)
    bound = const * norm2 ** (-rho) * parts.f_mu
    return bounds.ScaleRow(j=j, m=pm.m, norm2=norm2, error=err.total, bound=bound,
                           ratio=bounds._safe_ratio(err.total, bound, err.scale),
                           node_residual=err.node_residual, gamma_sf=rep.gamma_sf,
                           sf_failures=rep.failures, parts=parts)


def _stream_spec(kernel, alpha=0.0, q=2.0, s=None):
    """The study at ``j = 0`` on ``[[8, 3], [0, 8]]`` (m = 64), radius 4, or
    for a 3-D kernel on ``[[4, 1, 0], [0, 4, 1], [1, 0, 4]]`` (m = 65), radius 2."""
    if kernel != "dirichlet" and kernel.d == 3:
        pm, f, radius = (validate_matrix([[4, 1, 0], [0, 4, 1], [1, 0, 4]]),
                         decay_profile(3, 9.0, 3), 2)
    else:
        pm = validate_matrix([[8, 3], [0, 8]])
        f, radius = _oracle_function(pm, np.random.default_rng(29)), 4
    return ExperimentSpec(base_matrix=pm, scales=(0,), test_function=f, alpha=alpha, mu=6.0,
                          q=q, kernel=kernel, s=s, radius=radius, tail_eps=math.inf)


@pytest.mark.parametrize("rows", [1, 3, None])
def test_streamed_study_row_equals_the_held_grid_bit_for_bit(monkeypatch, rows):
    """A study row streams its kernel in row blocks and never holds the grid;
    in blocks of one row, of three rows (which divide neither m) and of the
    whole grid, every field of its row, ``parts`` included, is bit for bit
    that of the held grid's ``build_interpolant``, ``verify_sfc`` and
    ``part_bounds``."""
    specs = [_stream_spec(kernel, alpha, q, s) for kernel, s in ((B222, None), ("dirichlet", 4.0))
             for alpha in (0.0, 1.5) for q in (1.0, 2.0, math.inf)]
    specs.append(_stream_spec(BoxSplineSpec(3, (2,) * 6), alpha=1.5))
    for spec in specs:
        want = repr(dataclasses.astuple(_held_row(spec, 0)))
        nz = 1 if spec.kernel == "dirichlet" else (2 * spec.radius + 1) ** spec.kernel.d
        if rows is None:
            assert len(list(ptransform._row_slices(spec.base_matrix.m, nz))) == 1
        else:
            monkeypatch.setattr(ptransform, "GRID_BLOCK", rows * nz)
        assert repr(dataclasses.astuple(bounds._study_row(spec, 0))) == want
        monkeypatch.undo()


def test_streamed_study_row_refuses_as_the_held_grid(monkeypatch):
    """A row whose kernel has a vanishing fold (the ``full`` family, whose
    row sum is divided before it is refused) raises the held grid's
    ``NonExistent``, listing the same classes, without a RuntimeWarning; an
    order whose bound leaves the float range, or whose ``gamma_SF``
    overflows, raises the held grid's ``AnisoError``; so does a fold that is
    exactly 0 or not finite."""
    full = BoxSplineSpec(2, (1, 1, 1, 1), family="full")
    cases = [(dataclasses.replace(_stream_spec(full), base_matrix=E2, radius=12), NonExistent,
              r"vanishes on classes .*\(-1, -1\)"),
             (_stream_spec(B222, s=400.0), AnisoError, "out of float range"),
             (_stream_spec(B222, s=300.0), AnisoError, "overflows gamma_SF")]
    for spec, exc, match in cases:
        with pytest.raises(exc, match=match) as held:
            _held_row(spec, 0)
        with pytest.raises(exc, match=match) as streamed:
            bounds._study_row(spec, 0)
        assert type(streamed.value) is type(held.value)
        assert str(streamed.value) == str(held.value)
    # a fold that is exactly 0, or not finite, on a kernel grid of one shift
    spec = _stream_spec("dirichlet", s=4.0)
    for value, exc, match in ((0.0, NonExistent, "vanishes"), (math.inf, AnisoError, "not finite"),
                              (math.nan, AnisoError, "not finite")):
        coeffs = np.ones((spec.base_matrix.m, 1))
        coeffs[5] = value
        monkeypatch.setattr(bounds, "dirichlet_kernel", lambda pm: AliasGrid(
            pm, np.zeros((1, 2), dtype=np.int64), coeffs.copy(), math.inf))
        with pytest.raises(exc, match=match) as held:
            _held_row(spec, 0)
        with pytest.raises(exc, match=match) as streamed:
            bounds._study_row(spec, 0)
        assert str(streamed.value) == str(held.value)


def test_3d_dilation_by_two_has_no_interpolant_past_j0():
    """For B(2,...,2) in ``d = 3`` the fold vanishes at ``y* = (1/2, 1/2, 1/2)``,
    and ``M_j^T y*`` is an integer vector for every ``j >= 1``, so the
    ``2^j M_0`` study has a row at ``j = 0`` only; each later row names the
    class ``M_j^T y*`` reduced."""
    spec = ExperimentSpec(base_matrix=validate_matrix([[2, 1, 0], [0, 2, 1], [1, 0, 2]]),
                          scales=(0,), test_function=decay_profile(3, 9.0, 6), alpha=0.0,
                          mu=6.0, q=2.0, kernel=BoxSplineSpec(3, (2,) * 6), radius=4,
                          tail_eps=1e-3)
    assert bounds._study_row(spec, 0).failure is None
    for j, h in ((1, "(-3, -3, -3)"), (2, "(-6, -6, -6)")):
        with pytest.raises(NonExistent, match=re.escape(f"vanishes on classes [{h}]")):
            bounds._study_row(spec, j)


def test_verify_sfc_of_a_fresh_interpolant_peaks_below_half_its_grid():
    """At j = 4 of the study (m = 1024, radius 16: an 8.9 MB grid) building
    the interpolant holds no grid, and ``verify_sfc`` walks its kernel's row
    blocks, scaled as they pass, so the two together peak below half the
    grid (when building held the grid, they peaked at about 1.2 grids)."""
    import tracemalloc

    pm = validate_matrix([[32, 16], [0, 32]])
    params = SFParams(s=4.0, alpha=0.0, q=2.0)
    verify_sfc(bounds.build_interpolant(B222, pm, 16, 1e-4), params)  # fill the caches first
    tracemalloc.start()
    try:
        verify_sfc(bounds.build_interpolant(B222, pm, 16, 1e-4), params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 33**2 * 8 / 2


def test_no_consumer_assembles_a_made_grid(monkeypatch, tmp_path, capsys):
    """The study row, ``verify_sfc``, ``part_bounds`` and ``cardinal_residual``
    of a fresh interpolant, and ``sfcheck`` walk row blocks only: with the
    assembly of a made grid's ``coeffs`` made to raise, each still runs (a
    held grid, such as the Dirichlet kernel, keeps its array)."""
    def held_only(grid):
        if callable(grid.source):
            raise AssertionError("a made grid was assembled")
        return grid.source

    monkeypatch.setattr(AliasGrid, "coeffs", property(held_only))
    spec = ExperimentSpec(base_matrix=M21, scales=(0, 1), test_function=decay_profile(2, 9.0, 8),
                          alpha=1.5, mu=6.0, q=2.0, kernel=B222, radius=8, tail_eps=1e-3)
    assert bounds._study_row(spec, 1).failure is None
    assert bounds._study_row(dataclasses.replace(spec, kernel="dirichlet", s=4.0), 1).m == 16
    pm = validate_matrix([[8, 3], [0, 8]])
    for kernel in (B222, "dirichlet"):
        ifun = bounds.build_interpolant(kernel, pm, 8, 1e-3)
        rep = verify_sfc(ifun, SFParams(s=4.0, alpha=0.0, q=2.0))
        assert part_bounds(decay_profile(2, 8.0, 12), ifun, rep, 6.0).error.total > 0.0
        assert cardinal_residual(ifun) < 1e-12
    mat = tmp_path / "M.txt"
    mat.write_text("2\n8 3\n0 8\n")
    assert cli.run(["sfcheck", str(mat), "--kernel", "2; 2,2,2", "--radius", "8",
                    "--tail-eps", "1e-3"]) == 0
    assert '"pass": true' in capsys.readouterr().out


@pytest.mark.parametrize("alpha", [0.0, 1.5])
def test_study_row_peak_memory_is_below_half_its_grid(alpha):
    """At j = 4 of the study (m = 1 024, radius 16: an 8.9 MB grid) a study
    row streams its kernel and holds no grid, so its traced peak stays below
    half the grid (holding it, the row peaked at about 1.35 grids)."""
    import tracemalloc

    spec = ExperimentSpec(base_matrix=M21, scales=(4,), test_function=decay_profile(2, 9.0, 16),
                          alpha=alpha, mu=6.0, q=2.0, kernel=B222, radius=16, tail_eps=1e-4)
    row = bounds._study_row(spec, 4)  # fill the pattern's caches first
    assert row.m == 1024
    tracemalloc.start()
    try:
        bounds._study_row(spec, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 33**2 * 8 / 2


def test_streaming_keeps_working_memory_below_half_the_grid():
    """On the study's j = 4 interpolant (m = 1 024, nz = 1 089) the traced
    peak of ``interp_error`` and ``verify_sfc`` stays below half the grid."""
    import tracemalloc

    ifun = bounds.build_interpolant(B222, validate_matrix([[32, 16], [0, 32]]), 16, 1e-4)
    assert ifun.grid.coeffs.shape == (1024, 1089)
    f = decay_profile(2, 9.0, 16)
    calls = [lambda: interp_error(f, ifun, 0.0, 2.0), lambda: interp_error(f, ifun, 1.5, 2.0),
             lambda: verify_sfc(ifun, SFParams(s=4.0, alpha=0.0, q=2.0)),
             lambda: verify_sfc(ifun, SFParams(s=4.0, alpha=1.5, q=2.0))]
    for call in calls:
        call()  # fill the pattern's caches first
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ifun.grid.coeffs.nbytes / 2


def _trig_ratio(f, ifun, rep):
    return part_bounds(f, ifun, rep, 6.0).ratios["trig"]


def _partial_ratio(f, pm, alpha, mu, q):
    """The partial-sum ratio, which no kernel enters: that of the Dirichlet
    interpolant of ``pm``."""
    ifun = fundamental_interpolant(dirichlet_kernel(pm))
    rep = verify_sfc(ifun, SFParams(s=4.0, alpha=alpha, q=q))
    return part_bounds(f, ifun, rep, mu).ratios["partial"]


def test_trig_theorem_box_spline(box_e2):
    rep = verify_sfc(box_e2, SFParams(s=4.0, alpha=0.0, q=2.0))
    assert rep.passed
    rng = np.random.default_rng(3)
    ratios = [_trig_ratio(random_trig_poly(E2, rng), box_e2, rep) for _ in range(20)]
    assert max(ratios) <= RATIO_TOL
    assert max(ratios) > 0.0  # non-vacuous: the error is really measured


def test_trig_theorem_zero_function(box_e2):
    rep = verify_sfc(box_e2, SFParams(s=4.0, alpha=0.0, q=2.0))
    zero = zero_series(2)
    assert _trig_ratio(zero, box_e2, rep) == 0.0


def test_trig_theorem_reads_the_partial_sum(box_e2):
    """The trig part of any ``f`` is that of ``S_M f``, and so is its ratio."""
    rep = verify_sfc(box_e2, SFParams(s=4.0, alpha=0.0, q=2.0))
    f = decay_profile(2, 7.0, 10) + random_trig_poly(E2, np.random.default_rng(9))
    smf = fourier_partial_sum(f, E2)
    assert 0 < len(smf) < len(f)
    ratio = _trig_ratio(f, box_e2, rep)
    assert 0.0 < ratio <= RATIO_TOL
    assert ratio == pytest.approx(_trig_ratio(smf, box_e2, rep), rel=1e-12, abs=0.0)


def test_partial_sum_single_mode_closed_form():
    # ratio = sigma_{alpha-mu}(k0) (||M||/2)^{mu-alpha} exactly, also at
    # mu <= d(1 - 1/q), where gamma_Sm diverges
    k0 = (5, 3)
    f = FourierSeries(np.array([k0]), np.array([1.0 + 0j]))
    sd = spectral_data(E2)
    for alpha, mu, q in ((1.0, 6.0, 2.0), (0.0, 2.0, math.inf)):
        ratio = _partial_ratio(f, E2, alpha, mu, q)
        expect = (weights_many([k0], alpha, E2)[0] / weights_many([k0], mu, E2)[0]
                  * (sd.norm2 / 2.0) ** (mu - alpha))
        assert ratio == pytest.approx(expect, rel=1e-12)
        assert ratio <= RATIO_TOL


def test_partial_sum_random_and_trig(box_e2):
    rng = np.random.default_rng(5)
    for _ in range(20):
        freqs = rng.integers(-20, 21, size=(30, 2))
        coeffs = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        f = merged(freqs, coeffs)
        assert _partial_ratio(f, E2, 0.0, 6.0, 2.0) <= RATIO_TOL
    # trig polynomial: numerator vanishes
    assert _partial_ratio(random_trig_poly(E2, rng), E2, 0.0, 6.0, 2.0) == 0.0


def test_partial_sum_non_expanding_matrix():
    shear = validate_matrix([[1, 1], [0, 1]])
    f = FourierSeries(np.array([[4, -2], [1, 1]]),
                      np.array([1.0 + 0j, 0.5 + 0j]))
    assert _partial_ratio(f, shear, 0.0, 4.0, 2.0) <= RATIO_TOL


def _aliasing_ratio(f, ifun, alpha, mu, q):
    rep = verify_sfc(ifun, SFParams(s=4.0, alpha=alpha, q=q))
    return part_bounds(f, ifun, rep, mu).ratios["aliasing"]


def test_aliasing_theorem_dirichlet_and_box(box_e2):
    f1 = FourierSeries(np.array([[5, 3]]), np.array([1.0 + 0j]))
    ifd = fundamental_interpolant(dirichlet_kernel(E2))
    assert _aliasing_ratio(f1, ifd, 0.0, 6.0, 2.0) <= RATIO_TOL
    assert _aliasing_ratio(f1, ifd, 0.0, 2.0, math.inf) == 0.0  # gamma_Sm diverges
    fdp = decay_profile(2, 8.0, 12)
    for alpha in (0.0, 1.0):
        r = _aliasing_ratio(fdp, box_e2, alpha, 6.0, 2.0)
        assert 0.0 < r <= RATIO_TOL
        # gamma_IP, and so the ratio, depends on neither s nor the mode
        for s, mode in ((1.0, "relaxed"), (9.0, "strict")):
            rep = verify_sfc(box_e2, SFParams(s=s, alpha=alpha, q=2.0, mode=mode))
            assert part_bounds(fdp, box_e2, rep, 6.0).ratios["aliasing"] == r


def test_aliasing_theorem_across_scales():
    fdp = decay_profile(2, 8.0, 12)
    for j in (0, 1, 2, 3):
        pm = validate_matrix([[2 * 2**j, 2**j], [0, 2 * 2**j]])
        phi = periodize(B222, pm, 8, 1e-3)
        ifun = fundamental_interpolant(phi)
        assert _aliasing_ratio(fdp, ifun, 0.0, 6.0, 2.0) <= RATIO_TOL


def test_experiment_spec_validation():
    f = decay_profile(2, 8.0, 4)
    for scales, alpha, mu in [((0,), 3.0, 2.0),  # mu < alpha
                              ((0,), 0.0, 0.5),  # mu <= d(1-1/q)
                              ((), 0.0, 6.0),  # no scale: a vacuous verdict
                              ((0,), 0.0, math.inf), ((0,), math.inf, math.inf),
                              ((0,), math.nan, 6.0), ((0,), 0.0, math.nan)]:
        with pytest.raises(ValueError):
            ExperimentSpec(base_matrix=E2, scales=scales, test_function=f,
                           alpha=alpha, mu=mu, q=2.0)
    for decay in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="decay"):
            decay_profile(2, decay, 4)
    with pytest.raises(ValueError, match="kmax"):
        decay_profile(2, 8.0, -1)
    with pytest.raises(ValueError, match="scales"):  # one distinct ||M|| to fit over
        ExperimentSpec(base_matrix=E2, scales=(1, 0, 1), test_function=f,
                       alpha=0.0, mu=6.0, q=2.0)
    spec = ExperimentSpec(base_matrix=E2, scales=(0,), test_function=f,
                          alpha=0.0, mu=6.0, q=2.0)
    with pytest.raises(ValueError, match="--order"):
        convergence_study(spec)  # Dirichlet kernel needs explicit s


def test_convergence_study_dirichlet_trig_exact():
    """A trig polynomial of the base scale is in every T_{M_j}: zero error."""
    f = random_trig_poly(E2, np.random.default_rng(7))
    spec = ExperimentSpec(base_matrix=E2, scales=(0, 1, 2), test_function=f,
                          alpha=0.0, mu=6.0, q=2.0, kernel="dirichlet", s=4.0)
    rep = convergence_study(spec)
    assert rep.verdict
    assert all(r.error < 1e-10 for r in rep.rows)


def test_convergence_study_box_spline(tmp_path):
    spec = ExperimentSpec(
        base_matrix=M21, scales=(0, 1, 2, 3),
        test_function=decay_profile(2, 9.0, 16),
        alpha=0.0, mu=6.0, q=2.0, kernel=B222, radius=16, tail_eps=1e-4,
    )
    rep = convergence_study(spec)
    assert rep.rho == 4.0
    assert rep.verdict
    assert all(r.ratio <= RATIO_TOL for r in rep.rows)
    assert all(r.node_residual <= 1e-6 for r in rep.rows)
    assert rep.fitted_rate is not None
    assert rep.fitted_rate <= -rep.rho + 0.5
    # doubling ||M||: the bound shrinks roughly like 2^{-rho} per level
    for a, b in zip(rep.rows, rep.rows[1:]):
        assert b.bound < a.bound

    csv = tmp_path / "study.csv"
    svg = tmp_path / "study.svg"
    report_to_csv(rep, csv)
    report_to_svg(rep, svg)
    lines = csv.read_text().splitlines()
    assert lines[0] == "j,m,norm2,error,bound,ratio"
    assert len(lines) == 1 + len(rep.rows)
    assert report_is_deterministic(rep, csv)
    assert svg.read_text().startswith("<svg")


def test_verdict_requires_strang_fix_pass():
    """An overclaimed order can leave every ratio <= 1, but gamma_SF is then
    no valid constant, so the study must not pass."""
    spec = ExperimentSpec(
        base_matrix=M21, scales=(2,),
        test_function=decay_profile(2, 9.0, 16),
        alpha=0.0, mu=10.0, q=2.0, kernel=B222, s=8.0, radius=16, tail_eps=1e-4,
    )
    rep = convergence_study(spec)
    assert all(r.ratio <= RATIO_TOL for r in rep.rows)
    assert all(r.node_residual <= 1e-6 for r in rep.rows)
    assert all(r.sf_failures for r in rep.rows)
    assert all(r.failure == f"Strang-Fix: {r.sf_failures[0]}" for r in rep.rows)
    assert not rep.verdict


def test_scale_row_failure_names_the_first_failing_condition():
    """A row fails on its ratio, then on its node residual, then on its
    first Strang-Fix message; a NaN ratio or residual fails too."""
    spec = ExperimentSpec(base_matrix=M21, scales=(0,), test_function=decay_profile(2, 9.0, 8),
                          alpha=0.0, mu=6.0, q=2.0, kernel=B222, radius=8, tail_eps=1e-3)
    row = convergence_study(spec).rows[0]
    assert row.failure is None and row.sf_failures == []
    cases = [(dict(ratio=2.0, node_residual=1.0, sf_failures=["a"]),
              "ratio 2.000000e+00 exceeds 1"),
             (dict(ratio=math.nan), "ratio nan exceeds 1"),
             (dict(node_residual=1e-3, sf_failures=["a", "b"]),
              "node residual 1.000e-03 exceeds 1e-06"),
             (dict(node_residual=math.nan), "node residual nan exceeds 1e-06"),
             (dict(sf_failures=["a", "b"]), "Strang-Fix: a")]
    for fields, why in cases:
        failed = dataclasses.replace(row, **fields)
        assert failed.failure == why
        assert not bounds.BoundReport(spec=spec, rho=4.0, rows=[row, failed]).verdict


def test_node_residual_is_judged_relative_to_f():
    """The node residual is compared with ``NODE_TOL max|f_hat|``: a growing
    profile (``max|f_hat|`` = 5.4e13) has round-off residuals near 1 and
    passes, and a row of ``f`` scaled by 1e14 fails exactly when the
    unscaled row does."""
    spec = ExperimentSpec(base_matrix=validate_matrix([[4, 1], [0, 4]]), scales=(0, 1, 2),
                          test_function=decay_profile(2, -10.0, 16), alpha=0.0, mu=6.0,
                          q=2.0, kernel=B222)
    rep = convergence_study(spec)
    assert rep.verdict and max(r.node_residual for r in rep.rows) > 1e-6
    f = decay_profile(2, 9.0, 8)
    rows = []
    for c in (1.0, 1e14):
        spec = ExperimentSpec(base_matrix=M21, scales=(0,), alpha=0.0, mu=6.0, q=2.0,
                              test_function=FourierSeries(f.freqs, c * f.coeffs),
                              kernel=B222, radius=8, tail_eps=1e-3)
        rows.append(convergence_study(spec).rows[0])
    plain, big = rows
    assert big.failure is None and big.node_residual > 1e-6
    for residual in (0.0, 5e-7, 2e-6, 1.0, math.nan):
        a = dataclasses.replace(plain, node_residual=residual)
        b = dataclasses.replace(big, node_residual=residual * 1e14)
        assert (a.failure is None) == (b.failure is None), residual
        if a.failure:
            assert a.failure.startswith("node residual")
            assert b.failure.startswith("node residual")


def test_a_series_of_another_dimension_is_refused_by_name():
    """A 3-D series on a 2-D pattern is a ``ValueError`` that names both
    dimensions, not rows regrouped by a reshape."""
    pm = validate_matrix([[4, 1], [0, 4]])
    f = FourierSeries(np.array([[1, 2, 3], [0, 0, 1]]), np.array([1.0, 0.5]))
    ifun = fundamental_interpolant(dirichlet_kernel(pm))
    shape = re.escape("rows of shape (2, 3), not (n, 2)")
    for call in (lambda: interp_error(f, ifun, 0.0, 2.0), lambda: alias_fold(f, pm),
                 lambda: AliasGrid.from_series(f, pm), lambda: a_norm(f, 1.0, pm, 2.0)):
        with pytest.raises(ValueError, match=shape):
            call()
    for kernel, dims in (("dirichlet", "(2, 3, None)"),
                         (BoxSplineSpec(3, (2,) * 6), "(2, 3, 3)")):
        with pytest.raises(ValueError, match=re.escape(f"kernel dimensions {dims} differ")):
            ExperimentSpec(base_matrix=pm, scales=(0,), test_function=f, alpha=0.0, mu=6.0,
                           q=2.0, kernel=kernel, s=4.0)
    with pytest.raises(ValueError, match=re.escape("kernel dimensions (2, 2, 3) differ")):
        ExperimentSpec(base_matrix=pm, scales=(0,), test_function=decay_profile(2, 9.0, 2),
                       alpha=0.0, mu=6.0, q=2.0, kernel=BoxSplineSpec(3, (2,) * 6))


def report_is_deterministic(rep, path):
    import tempfile

    with tempfile.NamedTemporaryFile("r", suffix=".csv") as fh:
        report_to_csv(rep, fh.name)
        return open(fh.name).read() == open(path).read()
