"""Pattern DFT, aliasing, and series container contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisointerp import (
    AliasGrid,
    FourierSeries,
    SampleVector,
    alias_fold,
    dft_forward,
    dft_inverse,
    discrete_coeffs,
    fourier_matrix,
    gset_freqs,
    pattern_generators,
    series_to_csv,
    validate_matrix,
)
from anisointerp.ptransform import row_keys
from reference_api import merged, scaled, series_from_csv, zero_series
from test_intlat import regular_matrices

FIG1 = [[8, 3], [0, 8]]

TEST_MATRICES = [
    [[4]], [[2, 0], [0, 2]], [[2, 1], [0, 2]], FIG1,
    [[5, -3], [2, 4]], [[1, 1, 0], [0, 2, 1], [1, 0, 3]],
    [[16, 0], [0, 16]],
]


@pytest.mark.parametrize("mat", TEST_MATRICES)
def test_dft_unitarity(mat):
    pm = validate_matrix(mat)
    f = fourier_matrix(pm)
    err = np.abs(f @ f.conj().T - np.eye(pm.m)).max()
    assert err < 1e-12


@pytest.mark.parametrize("mat", TEST_MATRICES)
def test_dft_roundtrip_and_parseval(mat):
    pm = validate_matrix(mat)
    rng = np.random.default_rng(7)
    a = rng.standard_normal(pm.m) + 1j * rng.standard_normal(pm.m)
    s = SampleVector(a, pm)
    back = dft_inverse(dft_forward(s))
    assert np.abs(back.values - a).max() < 1e-12
    # Parseval for the unitary normalization (forward = sqrt(m) * F)
    fhat = dft_forward(s).values / np.sqrt(pm.m)
    assert np.abs(fhat @ fhat.conj() - a @ a.conj()) < 1e-10 * pm.m


def test_phase_values_are_exact_characters():
    pm = validate_matrix([[2, 1], [0, 2]])
    f = fourier_matrix(pm)
    hs = gset_freqs(pm)
    gs = pattern_generators(pm)
    for i, h in enumerate(hs):
        for j, g in enumerate(gs.tolist()):
            y = pm.inv_apply(g)
            phase = np.exp(-2j * np.pi * float(sum(
                int(hc) * yc for hc, yc in zip(h, y)
            )))
            assert abs(f[i, j] * np.sqrt(pm.m) - phase) < 1e-13


def sample_series(f, pm):
    """Evaluate a finite series at the pattern nodes by direct summation."""
    vals = np.zeros(pm.m, dtype=np.complex128)
    for j, g in enumerate(pattern_generators(pm).tolist()):
        y = np.array([float(c) for c in pm.inv_apply(g)])
        vals[j] = np.sum(f.coeffs * np.exp(2j * np.pi * (f.freqs @ y)))
    return SampleVector(vals, pm)


@settings(max_examples=100, deadline=None)
@given(regular_matrices(), st.data())
def test_aliasing_lemma_oracle_equivalence(mat, data):
    """The aliasing lemma: ``alias_fold`` equals the discrete coefficients of
    the node samples, each sample a direct sum over the modes, for random
    regular matrices in ``d <= 3`` and random series."""
    pm = validate_matrix(mat)
    entry = st.integers(-30, 30)
    rows = data.draw(st.lists(st.tuples(*[entry] * pm.d), min_size=1, max_size=50))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    coeffs = rng.standard_normal(len(rows)) + 1j * rng.standard_normal(len(rows))
    f = merged(np.array(rows, dtype=np.int64), coeffs)
    folded = alias_fold(f, pm).values
    oracle = discrete_coeffs(sample_series(f, pm)).values
    assert np.abs(folded - oracle).max() < 1e-12


def test_alias_fold_exact_on_shifted_classes():
    pm = validate_matrix([[2, 0], [0, 2]])
    # k = h + M^T z with h = (-1, 0), z = (3, -2) -> k = (5, -4)
    f = FourierSeries(np.array([[-1, 0], [5, -4]]),
                      np.array([2.0 + 0j, 3.0 + 0j]))
    folded = alias_fold(f, pm)
    hs = [tuple(int(x) for x in h) for h in gset_freqs(pm)]
    assert folded.values[hs.index((-1, 0))] == pytest.approx(5.0)
    assert sum(abs(v) for v in folded.values) == pytest.approx(5.0)


def test_series_dedup_and_arithmetic():
    f = merged(np.array([[1, 0], [1, 0], [0, 1]]),
               np.array([1.0, 2.0, 5.0], dtype=complex))
    assert f.freqs.tolist() == [[0, 1], [1, 0]]
    assert f.coeffs.tolist() == [5.0, 3.0]
    g = f + scaled(f, -1.0)
    assert np.abs(g.coeffs).max() == pytest.approx(0.0)
    h = f + scaled(f, -0.5)
    assert h.freqs.tolist() == [[0, 1], [1, 0]]
    assert h.coeffs.tolist() == [2.5, 1.5]


def test_series_add_merges_an_empty_side():
    f = FourierSeries(np.array([[1, 0], [1, 0]]), np.array([1.0, 2.0], dtype=complex))
    for s in (f + zero_series(2), zero_series(2) + f):
        assert s.freqs.tolist() == [[1, 0]]
        assert s.coeffs.tolist() == [3.0]


def test_series_csv_roundtrip_and_determinism():
    rng = np.random.default_rng(3)
    freqs = rng.integers(-9, 10, size=(40, 3))
    coeffs = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    f = merged(freqs, coeffs)
    text = series_to_csv(f)
    assert text.splitlines()[0] == "k1,k2,k3,re,im"
    g = series_from_csv(text)
    assert series_to_csv(g) == text  # byte-identical determinism
    # both supports are in lexicographic order; 17 digits round-trip a double
    assert np.array_equal(g.freqs, f.freqs)
    assert np.array_equal(g.coeffs, f.coeffs)


def test_series_from_csv_sums_repeated_rows():
    g = series_from_csv("k1,k2,re,im\n1,0,1,0\n0,1,5,0\n1,0,2,-1\n")
    assert g.freqs.tolist() == [[0, 1], [1, 0]]
    assert g.coeffs.tolist() == [5, 3 - 1j]
    empty = series_from_csv("k1,k2,re,im\n")
    assert len(empty) == 0 and empty.dim == 2


def test_gset_ordering_is_lexicographic():
    pm = validate_matrix(FIG1)
    hs = [tuple(int(x) for x in h) for h in gset_freqs(pm)]
    assert hs == sorted(hs)
    assert len(hs) == 64


def test_window_metadata():
    """The window is the kernel grid's, never a series': a series made
    into a grid declares no complete shell unless it is given a window."""
    assert FourierSeries.__slots__ == ("freqs", "coeffs")
    f = FourierSeries(np.array([[0, 0]]), np.array([1.0 + 0j]))
    with pytest.raises(TypeError):
        FourierSeries(f.freqs, f.coeffs, window=math.inf)
    pm = validate_matrix(FIG1)
    assert AliasGrid.from_series(f, pm).window is None
    grid = AliasGrid.from_series(f, pm, math.inf)
    assert grid.window == math.inf
    assert not hasattr(grid.series, "window")


def test_non_integral_frequencies_are_refused():
    """A float or object index must be a whole number: ``[1.5, 0.7]`` was
    truncated to ``[1, 0]``, a different function; whole floats and
    Python ints are accepted as before."""
    from fractions import Fraction

    for bad in ([[1.5, 0.7]], [[1.0, math.nan]], [[math.inf, 0.0]],
                np.array([[Fraction(3, 2), 0]], dtype=object)):
        with pytest.raises(ValueError, match="must be integers"):
            FourierSeries(bad, [1.0])
    for good in ([[1.0, -2.0]], [[1, -2]], np.array([[1, -2]], dtype=object),
                 np.array([[1, -2]], dtype=np.int32)):
        f = FourierSeries(good, [1.0])
        assert f.freqs.dtype == np.int64 and f.freqs.tolist() == [[1, -2]]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_dedup_matches_dict_sum_oracle(d):
    rng = np.random.default_rng(d)
    n = 300
    freqs = rng.integers(-3, 4, size=(n, d))
    coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
    f = merged(freqs, coeffs)
    expect: dict = {}
    for k, c in zip(freqs.tolist(), coeffs):
        expect[tuple(k)] = expect.get(tuple(k), 0.0) + c
    keys = sorted(expect)
    assert [tuple(k) for k in f.freqs.tolist()] == keys
    # summation order may differ: the standard n * eps * sum|c| error bound
    tol = n * np.finfo(np.float64).eps * np.abs(coeffs).sum()
    assert np.abs(f.coeffs - np.array([expect[k] for k in keys])).max() <= tol


_INT64 = st.one_of(st.integers(-3, 3), st.sampled_from([-2**62, 2**62, -2**63, 2**63 - 1]),
                   st.integers(-2**63, 2**63 - 1))


@given(st.integers(1, 3).flatmap(
    lambda d: st.lists(st.lists(_INT64, min_size=d, max_size=d), max_size=30)
    .map(lambda rows: np.array(rows, dtype=np.int64).reshape(-1, d))))
def test_row_keys_sort_in_lexicographic_row_order(rows):
    """Sorting the keys orders the rows as ``np.lexsort`` does, ties kept in
    place, so the keys of lexicographic rows are sorted."""
    expect = np.lexsort(rows.T[::-1])
    assert np.argsort(row_keys(rows), kind="stable").tolist() == expect.tolist()
