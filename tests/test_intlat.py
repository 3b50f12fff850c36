"""Exact pattern / generating-set arithmetic against brute-force oracles."""

import dataclasses
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from anisointerp import (
    AnisoError,
    SingularMatrix,
    gset_freqs,
    pattern_generators,
    reduce_freq,
    reduce_freq_many,
    validate_matrix,
)
from anisointerp import intlat, ptransform
from reference_api import NotAMember, pattern_add

FIG1 = [[8, 3], [0, 8]]
# rank-1 lattices, eps = (1, ..., 1, m): a Fibonacci lattice and a 3-D cyclic one
FIBONACCI = [[1, 0], [55, 89]]
CYCLIC_3D = [[4, 1, 0], [0, 4, 1], [1, 0, 4]]


def _oracle_det(mat):
    d = len(mat)
    if d == 1:
        return mat[0][0]
    total = 0
    for j in range(d):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * _oracle_det(minor)
    return total


def _oracle_adj(mat):
    """Exact adjugate via cofactors: ``adj_{ji} = (-1)^{i+j} det M_{ij}``,
    ``M_{ij}`` being ``M`` without row ``i`` and column ``j``."""
    d = len(mat)
    return [[(-1) ** (i + j) * _oracle_det([row[:j] + row[j + 1:]
                                            for r, row in enumerate(mat) if r != i])
             if d > 1 else 1 for i in range(d)] for j in range(d)]


def _oracle_inv_t(mat):
    """Exact ``M^{-T}``: ``(M^{-T})_{ij} = adj_{ji} / det``."""
    det = _oracle_det(mat)
    return [[Fraction(a, det) for a in col] for col in zip(*_oracle_adj(mat))]


def oracle_reduce(k, mat):
    """``k`` mod ``M^T`` into ``G_S(M^T)`` in exact fractions: ``h = k - M^T z``
    with ``z`` the componentwise floor of ``M^{-T} k + 1/2``."""
    d = len(mat)
    z = [math.floor(sum(a * x for a, x in zip(row, k)) + Fraction(1, 2))
         for row in _oracle_inv_t(mat)]
    return tuple(k[i] - sum(mat[j][i] * z[j] for j in range(d)) for i in range(d))


def _transpose(mat):
    return [list(col) for col in zip(*mat)]


def oracle_generating_set(mat):
    """Independent G_S(M^T) enumeration with Fractions: k is canonical iff
    every component of M^{-T} k lies in [-1/2, 1/2)."""
    d = len(mat)
    m = abs(_oracle_det(mat))
    inv_t = _oracle_inv_t(mat)
    bound = max(sum(abs(e) for e in row) for row in mat) + 1
    out = []
    for k in product(range(-bound, bound + 1), repeat=d):
        y = [sum(inv_t[i][j] * k[j] for j in range(d)) for i in range(d)]
        if all(Fraction(-1, 2) <= c < Fraction(1, 2) for c in y):
            out.append(k)
    assert len(out) == m
    return sorted(out)


@pytest.mark.parametrize("mat", [
    [[1]], [[3]], [[-2]],
    [[2, 0], [0, 2]], [[2, 1], [0, 2]], FIG1,
    [[1, 2], [3, 4]], [[0, 1], [-1, 0]], [[5, -3], [2, 4]],
    [[2, 0, 0], [0, 3, 0], [0, 0, 4]], [[1, 1, 0], [0, 1, 1], [1, 0, 3]],
    FIBONACCI, CYCLIC_3D,
])
def test_generating_set_matches_oracle(mat):
    pm = validate_matrix(mat)
    assert list(map(tuple, gset_freqs(pm).tolist())) == oracle_generating_set(mat)


def test_fig1_matrix_counts():
    pm = validate_matrix(FIG1)
    assert pm.m == 64
    assert len(pattern_generators(pm)) == 64
    assert len(gset_freqs(pm)) == 64


def test_singular_matrix_rejected():
    with pytest.raises(SingularMatrix):
        validate_matrix([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrix):
        validate_matrix([[0]])


def test_malformed_matrix_rejected():
    for raw, msg in [([], "empty"), ([[1, 2]], "square"), ([[1.5]], "integers")]:
        with pytest.raises(ValueError, match=msg):
            validate_matrix(raw)


def test_adjugate_identity():
    pm = validate_matrix([[5, -3], [2, 4]])
    prod = pm.mat_np @ pm.adj_np
    assert np.array_equal(prod, pm.det * np.eye(2, dtype=np.int64))


def test_reduce_freq_known_values():
    pm = validate_matrix([[2, 0], [0, 2]])
    # y = (3/2, 1/2) -> canonical y = (-1/2, -1/2) -> k = (-1, -1)
    assert reduce_freq((3, 1), pm) == (-1, -1)
    assert reduce_freq((0, 0), pm) == (0, 0)
    assert reduce_freq((1, 0), pm) == (-1, 0)  # y = 1/2 maps to -1/2
    assert reduce_freq((-1, 0), pm) == (-1, 0)
    assert reduce_freq((17, -5), pm) == (-1, -1)


def test_reduce_is_idempotent_and_class_preserving():
    pm = validate_matrix(FIG1)
    rng = np.random.default_rng(1)
    ks = rng.integers(-10**6, 10**6, size=(500, 2))
    red = reduce_freq_many(ks, pm)
    assert np.array_equal(reduce_freq_many(red, pm), red)
    # k - reduce(k) must lie in M^T Z^d
    diff = ks - red
    z = np.linalg.solve(pm.mat_np.T.astype(float), diff.T.astype(float)).T
    assert np.allclose(z, np.round(z), atol=1e-9)
    assert all(reduce_freq(h, pm) == tuple(h) for h in red.tolist())


def test_reduce_many_matches_scalar_on_huge_indices():
    pm = validate_matrix(FIG1)
    ks = np.array([[2**40, -(2**40)], [123456789012, -987654321098]])
    red = reduce_freq_many(ks, pm)
    for k, h in zip(ks, red):
        assert reduce_freq(tuple(int(x) for x in k), pm) == tuple(
            int(x) for x in h
        )


def test_pattern_group_axioms():
    pm = validate_matrix([[2, 1], [0, 2]])
    gens = list(map(tuple, pattern_generators(pm).tolist()))
    zero = (0,) * pm.d
    assert zero in gens
    table = {}
    for a in gens:
        for b in gens:
            table[a, b] = pattern_add(a, b, pm)
    for a in gens:
        assert table[a, zero] == a
        # closure and commutativity
        for b in gens:
            assert table[a, b] in gens
            assert table[a, b] == table[b, a]
        # inverse exists
        assert any(table[a, b] == zero for b in gens)
    # associativity on a sample
    for a in gens[:5]:
        for b in gens[:5]:
            for c in gens[:5]:
                assert pattern_add(table[a, b], c, pm) == pattern_add(
                    a, table[b, c], pm
                )


def test_pattern_add_rejects_nonmembers():
    pm = validate_matrix([[2, 0], [0, 2]])
    with pytest.raises(NotAMember):
        pattern_add((1, 0), (5, 7), pm)


def test_reduce_many_at_int64_min():
    """``|-2^63|`` does not fit in int64, so the size guard must not take it
    from ``np.abs``, which leaves it negative."""
    pm = validate_matrix(FIG1)
    assert reduce_freq((-(2**63), 5), pm) == (0, -3) == oracle_reduce((-(2**63), 5), FIG1)
    assert reduce_freq_many([[-(2**63), 5]], pm).tolist() == [[0, -3]]


def test_reduction_checks_the_half_open_cube():
    # a wrong adjugate rounds to the wrong shift; the cube check catches it
    bad = dataclasses.replace(validate_matrix(FIG1), adj=((1, 0), (0, 1)))
    with pytest.raises(AnisoError):
        reduce_freq((40, 0), bad)
    with pytest.raises(AnisoError):
        reduce_freq_many(np.array([[40, 0]]), bad)


@st.composite
def regular_matrices(draw, max_d=3):
    d = draw(st.integers(min_value=1, max_value=max_d))
    entries = draw(st.lists(st.integers(min_value=-6, max_value=6),
                            min_size=d * d, max_size=d * d))
    mat = [entries[i * d:(i + 1) * d] for i in range(d)]
    det = _oracle_det(mat)
    assume(det != 0 and abs(det) <= 200)
    return mat


@settings(max_examples=100, deadline=None)
@given(regular_matrices())
@example([[1]])
@example([[-5]])
@example([[2**40 * x for x in row] for row in FIG1])
@example([[2**40 * x for x in row] for row in [[5, -3], [2, 4]]])
@example([[2**40 * x for x in row] for row in [[0, 1, 0], [1, 0, 0], [0, 0, 3]]])
@example([[2**63, 0], [0, 1]])
def test_det_and_adjugate_match_cofactor_oracle(mat):
    """The determinant, sign included, and the adjugate read off the
    diagonal form equal the cofactor expansion.  ``M adj = det I`` holds
    for either sign of ``det``, so only an oracle sees a wrong sign."""
    pm = validate_matrix(mat)
    assert pm.det == _oracle_det(mat)
    assert [list(r) for r in pm.adj] == _oracle_adj(mat)


@settings(max_examples=40, deadline=None)
@given(regular_matrices())
def test_cardinality_law_random(mat):
    pm = validate_matrix(mat)
    assert len(pattern_generators(pm)) == pm.m
    assert len(gset_freqs(pm)) == pm.m


@settings(max_examples=25, deadline=None)
@given(regular_matrices(max_d=2))
def test_generating_sets_are_complete_residue_systems(mat):
    pm = validate_matrix(mat)
    reduced = {tuple(h) for h in reduce_freq_many(gset_freqs(pm), pm).tolist()}
    assert len(reduced) == pm.m


@settings(max_examples=40, deadline=None)
@given(regular_matrices(), st.data())
def test_class_indices_match_generating_set_positions(mat, data):
    """Labels are positions of ``reduce_freq(k)`` in the canonical order,
    for small indices and for indices up to ``2^62``."""
    pm = validate_matrix(mat)
    gs = list(map(tuple, gset_freqs(pm).tolist()))

    def rows(lo, hi):
        coord = st.integers(min_value=lo, max_value=hi)
        return data.draw(st.lists(st.lists(coord, min_size=pm.d, max_size=pm.d),
                                  min_size=1, max_size=20))

    small = rows(-60, 60)
    huge = small + rows(2**61, 2**62)
    for ks in (small, huge):
        expect = [gs.index(reduce_freq(tuple(k), pm)) for k in ks]
        got = ptransform.freq_class_indices(np.array(ks, dtype=np.int64), pm)
        assert got.tolist() == expect


INT64_EDGES = [2**63 - 1, -(2**63 - 1), -(2**63)]


@settings(max_examples=60, deadline=None)
@given(regular_matrices(), st.data())
def test_reduction_matches_fraction_oracle(mat, data):
    """``reduce_freq_many`` on int64 rows up to the int64 edges, and
    ``reduce_freq`` and ``pattern_add`` on Python ints past int64, against
    the exact fraction reduction."""
    d = len(mat)

    def rows(coord, n):
        return data.draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                                  min_size=n, max_size=n))

    int64 = (st.integers(-60, 60) | st.integers(-(2**63), 2**63 - 1)
             | st.sampled_from(INT64_EDGES))
    ks = rows(int64, 8)
    pm = validate_matrix(mat)
    assert reduce_freq_many(np.array(ks, dtype=np.int64), pm).tolist() == [
        list(oracle_reduce(k, mat)) for k in ks]

    huge = rows(st.integers(-(2**100), 2**100), 3)
    big = [[x * 2**62 for x in row] for row in mat]  # generators past int64
    pm_big = validate_matrix(big)
    for k in huge:
        assert reduce_freq(k, pm) == oracle_reduce(k, mat)
        assert reduce_freq(k, pm_big) == oracle_reduce(k, big)
    a, b, c = (oracle_reduce(k, _transpose(big)) for k in huge)  # canonical mod M
    assert pattern_add(a, b, pm_big) == oracle_reduce(
        [x + y for x, y in zip(a, b)], _transpose(big))
    with pytest.raises(NotAMember):  # c plus a column of M: same class, not c
        pattern_add(a, [x + row[0] for x, row in zip(c, big)], pm_big)


def walk_generating_set(pm, transposed):
    """Bounding-box walk over ``M [-1/2, 1/2)^d`` (``M^T`` with
    ``transposed``), testing each integer point ``k`` by ``M^{-1} k`` in
    exact fractions."""
    p = pm.transposed() if transposed else pm
    bounds = [sum(abs(x) for x in row) for row in p.mat]
    ranges = [range(-(b // 2) - 1, b // 2 + 2) for b in bounds]
    half = Fraction(1, 2)
    return sorted(k for k in product(*ranges)
                  if all(-half <= y < half for y in p.inv_apply(k)))


@settings(max_examples=60, deadline=None)
@given(regular_matrices())
@example(FIBONACCI)
@example(CYCLIC_3D)
def test_enumeration_matches_bounding_box_walk(mat):
    pm = validate_matrix(mat)
    for rows, transposed in ((pattern_generators(pm), False), (gset_freqs(pm), True)):
        assert list(map(tuple, rows.tolist())) == walk_generating_set(pm, transposed)


@settings(max_examples=60, deadline=None)
@given(regular_matrices())
@example(FIBONACCI)
@example(CYCLIC_3D)
def test_diagonal_form_and_class_labels(mat):
    pm = validate_matrix(mat)
    eps, u, v = pm.diagonal_form
    umv = np.array(u, dtype=object) @ np.array(mat, dtype=object) @ np.array(v, dtype=object)
    assert umv.tolist() == np.diag(eps).tolist()
    assert abs(_oracle_det(u)) == abs(_oracle_det(v)) == 1
    assert math.prod(eps) == pm.m
    for rows, transposed in ((pattern_generators(pm), False), (gset_freqs(pm), True)):
        labels = intlat.class_labels(rows, pm, transposed)
        assert sorted(labels.tolist()) == list(range(pm.m))


@settings(max_examples=25, deadline=None)
@given(regular_matrices(), st.integers(min_value=0, max_value=2**32 - 1))
@example(FIBONACCI, 0)
@example(CYCLIC_3D, 1)
def test_dft_matches_dense_matrix_of_exact_phases(mat, seed):
    """The FFT path against ``e^{-2 pi i h^T M^{-1} g}`` with the phase
    reduced mod 1 in exact fractions."""
    pm = validate_matrix(mat)
    hs = ptransform.gset_freqs(pm).tolist()
    ys = [pm.inv_apply(tuple(g)) for g in ptransform.pattern_generators(pm).tolist()]
    phase = [[float(sum(hc * yc for hc, yc in zip(h, y)) % 1) for y in ys] for h in hs]
    dense = np.exp(-2j * np.pi * np.array(phase))
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(pm.m) + 1j * rng.standard_normal(pm.m)
    fwd = ptransform.dft_forward(ptransform.SampleVector(a, pm)).values
    assert np.abs(fwd - dense @ a).max() < 1e-12 * pm.m
    back = ptransform.dft_inverse(ptransform.CoeffVector(a, pm)).values
    assert np.abs(back - dense.conj().T @ a / pm.m).max() < 1e-12


def _wrong_eps(eps, u, v, sign):
    return eps[:-1] + (eps[-1] + 1,), u, v, sign


def _not_unimodular(eps, u, v, sign):
    # U M V = diag(eps) still holds, but det U = 2: U^{-1} is not integral
    return (2 * eps[0],) + eps[1:], (tuple(2 * x for x in u[0]),) + u[1:], v, sign


def _v_not_unimodular(eps, u, v, sign):
    # U M V = diag(eps) and U^{-1} = M V diag(eps)^{-1} still hold, but
    # det V = 2: only V^{-1} = diag(eps)^{-1} U M is not integral
    v2 = tuple((2 * row[0],) + row[1:] for row in v)
    return (2 * eps[0],) + eps[1:], u, v2, sign


def _not_diagonal(eps, u, v, sign):
    # eps_0 = 1, so both inverses stay integral, but U M V gains an
    # off-diagonal entry: only M adj = det I sees it
    assert eps[0] == 1
    return eps, (tuple(x + y for x, y in zip(u[0], u[1])),) + u[1:], v, sign


@pytest.mark.parametrize("corrupt", [_wrong_eps, _not_unimodular, _v_not_unimodular,
                                     _not_diagonal])
def test_corrupted_diagonal_form_raises(monkeypatch, corrupt):
    real = intlat._diagonalize
    monkeypatch.setattr(intlat, "_diagonalize", lambda mat: corrupt(*real(mat)))
    message = "M adj = det I" if corrupt is _not_diagonal else "is not a diagonal form"
    with pytest.raises(AnisoError, match=message):
        validate_matrix(FIG1)


def test_one_elimination_per_matrix(monkeypatch):
    """``validate_matrix`` runs the elimination once; the diagonal form and
    both class tables only read what it stored."""
    calls = []
    real = intlat._diagonalize
    monkeypatch.setattr(intlat, "_diagonalize", lambda mat: calls.append(mat) or real(mat))
    pm = validate_matrix(CYCLIC_3D)
    monkeypatch.setattr(intlat, "validate_matrix", lambda raw: pytest.fail("validated again"))
    intlat.canonical_classes.cache_clear()
    pm.diagonal_form, pattern_generators(pm), gset_freqs(pm)
    assert len(calls) == 1


@pytest.mark.parametrize("corrupt", [
    lambda ks, pm: ks + 100,  # leaves the half-open cube
    lambda ks, pm: np.zeros_like(ks),  # canonical, but in the wrong class
])
def test_corrupted_reduction_in_enumeration_raises(monkeypatch, corrupt):
    intlat.canonical_classes.cache_clear()
    monkeypatch.setattr(intlat, "_reduce_rows", corrupt)
    with pytest.raises(AnisoError):
        gset_freqs(validate_matrix(FIG1))


def test_labels_past_int64_condition_raise():
    pm = validate_matrix([[2**31, 1], [0, 3]])  # d * max(eps)^2 >= 2^63
    with pytest.raises(AnisoError):
        ptransform.freq_class_indices(np.zeros((1, 2), dtype=np.int64), pm)
    with pytest.raises(AnisoError):
        intlat.freq_phase_residues(np.zeros((1, 2)), np.zeros((1, 2)), pm)
    # the rest of the exact arithmetic works for any determinant
    h = reduce_freq((2**40, -7), pm)
    assert reduce_freq(h, pm) == h


def test_phase_residues_exact_for_any_int64_input():
    pm = validate_matrix([[2**31 - 1, 5], [3, 1]])
    assert pm.d * max(pm.diagonal_form[0]) ** 2 < 2**63
    rng = np.random.default_rng(5)
    ks = rng.integers(-(2**63), 2**63 - 1, size=(6, 2), dtype=np.int64)
    gs = rng.integers(-(2**63), 2**63 - 1, size=(4, 2), dtype=np.int64)
    got = intlat.freq_phase_residues(ks, gs, pm)
    for i, k in enumerate(ks.tolist()):
        for j, g in enumerate(gs.tolist()):
            t = intlat._mat_vec(pm.adj, g)  # det * M^{-1} g
            assert got[i, j] == pm.sign * sum(a * b for a, b in zip(k, t)) % pm.m


def test_int64_views_name_the_matrix_past_int64():
    """``mat_np`` and ``adj_np`` raise ``AnisoError`` naming the matrix when
    an entry does not fit in int64, not numpy's ``OverflowError``."""
    big = validate_matrix([[2**63, 0], [0, 1]])
    with pytest.raises(AnisoError, match=r"^matrix \(\(9223372036854775808, 0\).*past int64"):
        big.mat_np
    pm = validate_matrix(np.diag([2**32] * 3))  # entries fit, the adjugate's 2^64 does not
    assert pm.mat_np.tolist() == np.diag([2**32] * 3).tolist()
    with pytest.raises(AnisoError, match=r"^the adjugate of \(\(4294967296, 0, 0\).*past int64"):
        pm.adj_np
