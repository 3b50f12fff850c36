"""Fundamental interpolants, the interpolation operator, and fallbacks."""

import dataclasses
import math
import re

import numpy as np
import pytest

from anisointerp import (
    AliasGrid,
    AnisoError,
    BoxSplineSpec,
    FourierSeries,
    NonExistent,
    SampleVector,
    SFParams,
    alias_fold,
    cardinal_residual,
    dirichlet_kernel,
    evaluate_at_nodes,
    fundamental_interpolant,
    gset_freqs,
    interp_error,
    interpolation_operator,
    pattern_generators,
    periodize,
    reduce_freq,
    translate,
    validate_matrix,
    verify_sfc,
)
from anisointerp import ptransform
from reference_api import NotInSpace, evaluate, fourier_partial_sum, membership_coeffs

E2 = validate_matrix([[2, 0], [0, 2]])
M21 = validate_matrix([[2, 1], [0, 2]])
FIG1 = validate_matrix([[8, 3], [0, 8]])


def coeff_at(f, k):
    """The coefficient of ``f`` at index ``k``; 0 where none is stored."""
    return complex(f.coeffs[(f.freqs == np.asarray(k)).all(axis=1)].sum())


def test_evaluate_single_mode():
    f = FourierSeries(np.array([[2, -1]]), np.array([1.5 + 0j]))
    x = np.array([0.3, 1.1])
    assert evaluate(f, x) == pytest.approx(1.5 * np.exp(1j * (2 * 0.3 - 1.1)))


def test_evaluate_at_nodes_matches_direct_evaluation():
    rng = np.random.default_rng(2)
    f = FourierSeries(rng.integers(-12, 13, size=(30, 2)),
                      rng.standard_normal(30) + 1j * rng.standard_normal(30),
                      dedup=True)
    for pm in (E2, M21):
        vals = evaluate_at_nodes(f, pm)
        for j, g in enumerate(pattern_generators(pm).tolist()):
            y = np.array([float(c) for c in pm.inv_apply(g)])
            direct = evaluate(f, 2.0 * np.pi * y)
            assert abs(vals[j] - direct) < 1e-12


def test_translate_is_exact_character_shift():
    f = FourierSeries(np.array([[1, 0], [0, 3]]),
                      np.array([1.0 + 0j, 2.0 + 0j]))
    g = (1, 0)  # node y = M^{-1} g = (1/2, 0)
    t = translate(f, g, E2)
    # mode (1,0): phase e^{-2 pi i * 1/2} = -1; mode (0,3): phase 1
    assert coeff_at(t, (1, 0)) == pytest.approx(-1.0)
    assert coeff_at(t, (0, 3)) == pytest.approx(2.0)


def test_translate_shifts_node_values():
    rng = np.random.default_rng(4)
    f = FourierSeries(rng.integers(-8, 9, size=(20, 2)),
                      rng.standard_normal(20) + 0j, dedup=True)
    g = (1, 1)
    t = translate(f, g, M21)
    y = np.array([float(c) for c in M21.inv_apply(g)])
    x = np.array([0.7, -0.2])
    assert evaluate(t, x) == pytest.approx(
        evaluate(f, x - 2.0 * np.pi * y), abs=1e-12
    )


def test_dirichlet_interpolant_exact_coefficients():
    for pm in (E2, M21, FIG1):
        ifun = fundamental_interpolant(dirichlet_kernel(pm))
        hs = gset_freqs(pm)
        assert len(ifun.series) == pm.m
        for h in hs:
            assert abs(coeff_at(ifun.series, h) - 1.0 / pm.m) <= 1e-12
        assert coeff_at(ifun.series, (10**6, 10**6)) == 0.0
        assert cardinal_residual(ifun) < 1e-12
        assert not ifun.incorrect_modes


def test_interpolant_folded_coefficients_are_uniform():
    ifun = fundamental_interpolant(dirichlet_kernel(M21))
    folded = alias_fold(ifun.series, M21).values
    assert np.abs(folded - 1.0 / M21.m).max() < 1e-14


def test_interpolation_operator_reproduces_samples():
    rng = np.random.default_rng(8)
    for pm in (E2, FIG1):
        ifun = fundamental_interpolant(dirichlet_kernel(pm))
        vals = rng.standard_normal(pm.m) + 1j * rng.standard_normal(pm.m)
        series = interpolation_operator(SampleVector(vals, pm), ifun)
        assert np.abs(evaluate_at_nodes(series, pm) - vals).max() < 1e-12


def test_interpolation_of_trig_polynomial_is_identity():
    pm = M21
    ifun = fundamental_interpolant(dirichlet_kernel(pm))
    hs = gset_freqs(pm)
    rng = np.random.default_rng(13)
    c = rng.standard_normal(pm.m) + 1j * rng.standard_normal(pm.m)
    f = FourierSeries(hs.copy(), c)
    samples = SampleVector(evaluate_at_nodes(f, pm), pm)
    lf = interpolation_operator(samples, ifun)
    for h, ch in zip(hs, c):
        assert coeff_at(lf, h) == pytest.approx(ch, abs=1e-12)


def test_fourier_partial_sum_restricts_support():
    f = FourierSeries(np.array([[0, 0], [1, 0], [5, -4], [-1, -1]]),
                      np.array([1.0, 2.0, 3.0, 4.0], dtype=complex))
    s = fourier_partial_sum(f, E2)
    kept = {tuple(int(x) for x in k) for k in s.freqs}
    assert kept == {(0, 0), (-1, -1)}  # (1,0) and (5,-4) are non-canonical
    assert coeff_at(s, (-1, -1)) == pytest.approx(4.0)


def degenerate_kernel(pm):
    """Kernel grid whose folded coefficient vanishes on exactly one class."""
    hs = gset_freqs(pm)
    freqs = [tuple(int(x) for x in h) for h in hs]
    coeffs = [1.0 + 0j] * len(freqs)
    # cancel class (-1,-1): add the alias (-1,-1) + M^T (1,1) with weight -1
    alias = tuple((np.array([-1, -1]) + pm.mat_np.T @ np.array([1, 1])).tolist())
    freqs.append(alias)
    coeffs.append(-1.0 + 0j)
    return AliasGrid.from_series(FourierSeries(np.array(freqs), np.array(coeffs)), pm, math.inf)


def test_check_existence_flags_degenerate_class():
    phi = degenerate_kernel(E2)
    ifun = fundamental_interpolant(phi)  # the first full walk decides existence
    with pytest.raises(NonExistent, match=re.escape("classes [(-1, -1)]")):
        ifun.incorrect_modes
    ifun = fundamental_interpolant(phi, allow_incorrect=True)
    assert ifun.incorrect_modes == [(-1, -1)]


def test_fundamental_interpolant_takes_the_pattern_from_its_grid():
    """``allow_incorrect`` is keyword-only, so an old-style call that passes
    the pattern matrix second is a ``TypeError`` instead of a truthy flag."""
    phi = degenerate_kernel(E2)
    for second in (E2, True):
        with pytest.raises(TypeError):
            fundamental_interpolant(phi, second)
    assert fundamental_interpolant(phi, allow_incorrect=True).pm == E2


def test_fundamental_interpolant_refuses_a_series_by_name():
    """A series kernel is a ``TypeError`` that names the constructor of its
    grid, not an ``AttributeError`` on a missing ``pm``."""
    phi = FourierSeries(np.array([[0, 0]]), np.array([1.0]))
    with pytest.raises(TypeError, match=re.escape("AliasGrid.from_series(f, pm, window)")):
        fundamental_interpolant(phi)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_kernel_coefficient_raises(bad):
    phi = dirichlet_kernel(M21).series
    coeffs = phi.coeffs.copy()
    coeffs[1] = bad
    phi = AliasGrid.from_series(FourierSeries(phi.freqs, coeffs), M21, math.inf)
    ifun = fundamental_interpolant(phi)  # the first full walk decides existence
    with pytest.raises(AnisoError, match="not finite"):
        ifun.a_hat
    with pytest.raises(AnisoError, match="not finite"):  # the fallback walks at once
        fundamental_interpolant(phi, allow_incorrect=True)


def test_incorrect_interpolation_fallback():
    phi = degenerate_kernel(E2)
    with pytest.raises(NonExistent):
        fundamental_interpolant(phi).grid.coeffs
    ifun = fundamental_interpolant(phi, allow_incorrect=True)
    assert ifun.incorrect_modes == [(-1, -1)]
    assert coeff_at(ifun.series, (-1, -1)) == pytest.approx(1.0 / E2.m)
    # the fallback still yields a cardinal function at the nodes
    assert cardinal_residual(ifun) < 1e-12
    folded = alias_fold(ifun.series, E2).values
    assert np.abs(folded - 1.0 / E2.m).max() < 1e-14
    # a_hat is zeroed on the degenerate class
    hs = [tuple(int(x) for x in h) for h in gset_freqs(E2)]
    assert ifun.a_hat.values[hs.index((-1, -1))] == 0.0


def test_membership_coeffs_accepts_translates():
    phi = dirichlet_kernel(M21).series
    t = translate(phi, (1, 0), M21)
    a = membership_coeffs(t, phi, M21)
    # a translate has |a_hat| = 1 on every class
    assert np.allclose(np.abs(a.values), 1.0)


def test_membership_coeffs_rejects_outsiders():
    pm = E2
    phi = dirichlet_kernel(pm).series
    # inconsistent ratios within one congruence class
    xi = FourierSeries(np.array([[0, 0], [2, 0]]),
                       np.array([1.0 + 0j, 5.0 + 0j]))
    phi2 = phi + FourierSeries(np.array([[2, 0]]), np.array([1.0 + 0j]))
    with pytest.raises(NotInSpace):
        membership_coeffs(xi, phi2, pm)


def test_membership_coeffs_accepts_scaled_kernel():
    """Each series' zero test is relative to its own largest coefficient, so
    a kernel coefficient near the threshold stays zero after scaling."""
    phi = periodize(BoxSplineSpec(2, (2, 2, 2)), FIG1, 16, 1e-4).series
    for c in (0.5, 1.0, 2.0):
        a = membership_coeffs(phi.scaled(c), phi, FIG1)
        assert np.allclose(a.values, c, rtol=1e-12, atol=0)


def _labelled_interpolants():
    """Dirichlet, B(2,2,2) and a ``family="full"`` kernel whose class
    (-1, -1) is flagged and kept as one canonical mode."""
    yield fundamental_interpolant(dirichlet_kernel(FIG1))
    box = periodize(BoxSplineSpec(2, (2, 2, 2)), FIG1, 4, math.inf)
    yield fundamental_interpolant(box)
    full = periodize(BoxSplineSpec(2, (1, 1, 1, 1), family="full"), E2, 6, math.inf)
    ifun = fundamental_interpolant(full, allow_incorrect=True)
    assert ifun.incorrect_modes == [(-1, -1)]
    yield ifun


def test_stored_labels_and_shifts_match_exact_reduction():
    """Every grid entry ``(h, z)`` is the mode ``k = h + M^T z`` whose exact
    reduction is ``h``; the shifts are distinct, in lexicographic order, and
    include ``z = 0``."""
    for ifun in _labelled_interpolants():
        pm, grid = ifun.pm, ifun.grid
        hs = gset_freqs(pm).tolist()
        shifts = grid.shifts.tolist()
        assert list(map(tuple, shifts)) == sorted(set(map(tuple, shifts)))
        assert [0] * pm.d in shifts
        assert grid.coeffs.shape == (pm.m, len(shifts)) == (len(hs), len(shifts))
        assert ifun.series.freqs.tolist() == [
            [a + b for a, b in zip(h, (np.array(z) @ pm.mat_np).tolist())]
            for h in hs for z in shifts]
        for k, h in zip(ifun.series.freqs.tolist(), [h for h in hs for _ in shifts]):
            assert reduce_freq(k, pm) == tuple(h)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ifun.grid = grid


def test_series_path_matches_grid_path():
    """A kernel given as its flat series is labelled, shifted and scattered
    by ``AliasGrid.from_series`` into the same grid that the kernel's own
    grid gives, with the window it is given."""
    kernels = [(dirichlet_kernel(FIG1), FIG1),
               (periodize(BoxSplineSpec(2, (2, 2, 2)), FIG1, 4, math.inf), FIG1),
               (periodize(BoxSplineSpec(2, (1, 1, 1, 1), family="full"), E2, 6, math.inf), E2)]
    for phi, pm in kernels:
        rebuilt = AliasGrid.from_series(phi.series, pm, phi.window)
        for allow_incorrect in (False, True):
            try:
                want = fundamental_interpolant(phi, allow_incorrect=allow_incorrect)
                want.a_hat  # the first full walk decides existence
            except NonExistent:
                with pytest.raises(NonExistent):
                    fundamental_interpolant(rebuilt, allow_incorrect=allow_incorrect).a_hat
                continue
            got = fundamental_interpolant(rebuilt, allow_incorrect=allow_incorrect)
            assert np.array_equal(got.grid.shifts, want.grid.shifts)
            assert np.array_equal(got.grid.coeffs, want.grid.coeffs)
            assert np.array_equal(got.a_hat.values, want.a_hat.values)
            assert got.grid.window == want.grid.window
            assert got.incorrect_modes == want.incorrect_modes


def test_fundamental_interpolant_leaves_its_kernel_unchanged():
    """The interpolant scales a copy: the kernel's coefficients keep their
    bits for a real kernel, a complex one and the fallback."""
    box = periodize(BoxSplineSpec(2, (2, 2, 2)), FIG1, 4, math.inf)
    moved = AliasGrid.from_series(translate(box.series, (1, 2), FIG1), FIG1, 4)
    for phi, allow_incorrect in ((box, False), (moved, False), (degenerate_kernel(E2), True)):
        before = phi.coeffs.copy()
        ifun = fundamental_interpolant(phi, allow_incorrect=allow_incorrect)
        assert not np.shares_memory(ifun.grid.coeffs, phi.coeffs)
        assert before.tobytes() == phi.coeffs.tobytes()


def test_real_kernels_stay_real():
    """Box-spline and Dirichlet grids, and their interpolants, are float64;
    a series becomes a float64 grid when it is real and a complex128 one
    when it is not.  The flat view is complex either way."""
    box = periodize(BoxSplineSpec(2, (2, 2, 2)), FIG1, 4, math.inf)
    for phi in (box, dirichlet_kernel(FIG1)):
        assert phi.coeffs.dtype == np.float64
        assert fundamental_interpolant(phi).grid.coeffs.dtype == np.float64
        assert phi.series.coeffs.dtype == np.complex128
        assert AliasGrid.from_series(phi.series, FIG1).coeffs.dtype == np.float64
    moved = translate(box.series, (1, 2), FIG1)
    assert np.abs(moved.coeffs.imag).max() > 0.0
    grid = AliasGrid.from_series(moved, FIG1)
    assert grid.coeffs.dtype == np.complex128
    assert fundamental_interpolant(grid).grid.coeffs.dtype == np.complex128


def test_series_grid_size_is_capped(monkeypatch):
    """A sparse series whose modes span many shifts would need an
    ``m x nz`` grid far larger than itself; past ``GRID_MAX`` entries that
    is an ``AnisoError`` before anything is allocated."""
    phi = dirichlet_kernel(FIG1).series
    far = np.array([[0, 0]]) + np.arange(1, 40)[:, None] * np.array([[8, 0]])
    f = FourierSeries(np.vstack([phi.freqs, far]), np.append(phi.coeffs, np.full(39, 0.1)))
    assert AliasGrid.from_series(f, FIG1).coeffs.shape == (FIG1.m, 40)
    monkeypatch.setattr(ptransform, "GRID_MAX", FIG1.m * 39)
    with pytest.raises(AnisoError, match="64 x 40 grid"):
        AliasGrid.from_series(f, FIG1)


def test_interpolant_support_labelled_once(monkeypatch):
    """Building the interpolant from a periodized kernel labels nothing;
    applying it, verifying it and measuring errors with it never label its
    support."""
    phi = periodize(BoxSplineSpec(2, (2, 2, 2)), FIG1, 4, math.inf)
    calls = []
    real = ptransform.class_labels

    def counting(x, pm, transposed=False):
        calls.append(np.asarray(x).copy())
        return real(x, pm, transposed)

    monkeypatch.setattr(ptransform, "class_labels", counting)
    ifun = fundamental_interpolant(phi)
    assert not calls
    rng = np.random.default_rng(5)
    samples = SampleVector(rng.standard_normal(FIG1.m), FIG1)
    f = FourierSeries(rng.integers(-20, 21, size=(40, 2)),
                      rng.standard_normal(40) + 0j, dedup=True)
    interpolation_operator(samples, ifun)
    verify_sfc(ifun, SFParams(s=4.0))
    verify_sfc(ifun, SFParams(s=4.0, alpha=1.0, q=2.0))
    cardinal_residual(ifun)
    interp_error(f, ifun, 1.0, 2.0)
    support = ifun.series.freqs
    assert not any(len(x) == len(support) or np.array_equal(x, support) for x in calls)
    assert sum(map(len, calls)) <= 2 * len(f)  # f and its partial sum, once each
