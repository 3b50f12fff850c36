"""Measured interpolation errors against the proven bounds."""

import math
import os
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
    FourierSeries,
    SampleVector,
    SFParams,
    a_norm,
    convergence_study,
    decay_profile,
    dirichlet_kernel,
    evaluate_at_nodes,
    fourier_partial_sum,
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
from anisointerp import bounds, ptransform
from reference_api import sf_b

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
    f = f + random_trig_poly(E2, rng).scaled(0.1)
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
        total=a_norm(f + lmf.scaled(-1.0), alpha, pm, q),
        trig=a_norm(smf + lm_smf.scaled(-1.0), alpha, pm, q),
        partial=a_norm(f + smf.scaled(-1.0), alpha, pm, q),
        aliasing=a_norm(lmf + lm_smf.scaled(-1.0), alpha, pm, q),
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
    return FourierSeries(freqs, coeffs, dedup=True)


@pytest.mark.parametrize("alpha,q", [(0.0, 2.0), (1.5, 2.0), (0.5, math.inf), (0.0, 1.0)])
@pytest.mark.parametrize("kernel", ["dirichlet", "box", "full"])
def test_interp_error_matches_series_arithmetic(kernel, alpha, q):
    ifun = _oracle_kernel(kernel)
    f = _oracle_function(ifun.pm, np.random.default_rng(11))
    assert 0 < len(fourier_partial_sum(f, ifun.pm)) < len(f)
    got = interp_error(f, ifun, alpha, q)
    expect = interp_error_by_series_arithmetic(f, ifun, alpha, q)
    for name in ("total", "trig", "partial", "aliasing", "node_residual", "scale"):
        want = getattr(expect, name)
        assert getattr(got, name) == pytest.approx(want, rel=1e-12, abs=0.0), name
    assert got.partial > 0.0 and got.aliasing > 0.0


@pytest.mark.parametrize("alpha,q", [(0.0, 2.0), (1.5, 2.0), (0.5, math.inf), (0.0, 1.0)])
def test_partial_sum_theorem_matches_series_arithmetic(alpha, q):
    mu = 6.0
    for pm in (E2, M21, validate_matrix([[3, 1], [-1, 2]])):
        f = _oracle_function(pm, np.random.default_rng(13))
        num = a_norm(f + fourier_partial_sum(f, pm).scaled(-1.0), alpha, pm, q)
        rhs = (2.0 / spectral_data(pm).norm2) ** (mu - alpha) * a_norm(f, mu, pm, q)
        assert num > 0.0
        assert _partial_ratio(f, pm, alpha, mu, q) == pytest.approx(
            num / rhs, rel=1e-12, abs=0.0)


ORACLE_NORMS = [(0.0, 2.0), (1.5, 2.0), (0.5, math.inf), (0.0, 1.0)]


def assert_matches_oracle(f, ifun, alpha, q):
    got = interp_error(f, ifun, alpha, q)
    expect = interp_error_by_series_arithmetic(f, ifun, alpha, q)
    for name in ("total", "trig", "partial", "aliasing", "node_residual", "scale"):
        want = getattr(expect, name)
        assert getattr(got, name) == pytest.approx(want, rel=1e-12, abs=0.0), name


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
        return FourierSeries.zero(2)
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
    return FourierSeries(freqs, coeffs, dedup=True)


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
    f = FourierSeries(freqs, coeffs, dedup=True)
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


def test_build_interpolant_peak_memory_is_near_its_grid():
    """At j = 4 of the study (m = 1024, radius 16) ``build_interpolant``
    scales the kernel grid it built in place: no second ``(m, nz)`` array."""
    import tracemalloc

    pm = validate_matrix([[32, 16], [0, 32]])
    bounds.build_interpolant(B222, pm, 16, 1e-4)  # fill the class tables' cache first
    tracemalloc.start()
    try:
        ifun = bounds.build_interpolant(B222, pm, 16, 1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * ifun.grid.coeffs.nbytes


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
    zero = FourierSeries.zero(2)
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
        f = FourierSeries(freqs, coeffs, dedup=True)
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
    assert not all(r.sf_passed for r in rep.rows)
    assert not rep.verdict


def report_is_deterministic(rep, path):
    import tempfile

    with tempfile.NamedTemporaryFile("r", suffix=".csv") as fh:
        report_to_csv(rep, fh.name)
        return open(fh.name).read() == open(path).read()
