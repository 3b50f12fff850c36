"""Box-spline transforms and their periodization."""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisointerp import (
    AliasGrid,
    AnisoError,
    BoxSplineSpec,
    NonExistent,
    TailTooLarge,
    alias_fold,
    fundamental_interpolant,
    gset_freqs,
    inv_t_apply,
    periodization_tail,
    periodize,
    sf_order,
    validate_matrix,
)
from anisointerp import boxspline, ptransform
from anisointerp.boxspline import _alias_bound, _constants, _int_box, _shell_sums

E2 = validate_matrix([[2, 0], [0, 2]])
FIG1 = validate_matrix([[8, 3], [0, 8]])
B111 = BoxSplineSpec(2, (1, 1, 1))
B222 = BoxSplineSpec(2, (2, 2, 2))


def _int_shell(d, r):
    """Oracle: every ``z`` with ``||z||_inf = r``, ``(2r+1)^d - (2r-1)^d`` rows,
    one ``np.indices`` call per part.  Part ``i`` holds the points whose first
    coordinate of magnitude ``r`` is ``z_i``, so the parts are disjoint."""
    if r == 0:
        return np.zeros((1, d), dtype=np.int64)
    blocks = []
    for i in range(d):
        shape = (2 * r - 1,) * i + (2,) + (2 * r + 1,) * (d - 1 - i)
        z = np.indices(shape, dtype=np.int64).reshape(d, -1).T
        z[:, :i] -= r - 1
        z[:, i] = 2 * r * z[:, i] - r
        z[:, i + 1:] -= r
        blocks.append(z)
    return np.concatenate(blocks)


def _hat_on_lattice(y, spec):
    """Oracle: the transform, a product of sinc powers over the directions,
    at ``xi = 2 pi y`` for each row of an ``(n, d)`` float array, with
    ``sinc(pi u) = np.sinc(u)`` in numpy's normalized convention."""
    out = np.ones(len(y))
    for direction, pj in zip(spec.directions(), spec.p):
        out *= np.sinc(y @ direction.astype(float)) ** pj
    return out


def test_direction_families():
    assert B222.directions().tolist() == [[1, 0], [0, 1], [1, 1]]
    full = BoxSplineSpec(2, (1, 1, 1, 1), family="full")
    assert full.directions().tolist() == [[1, 0], [0, 1], [1, 1], [1, -1]]
    d3 = BoxSplineSpec(3, (1,) * 6)
    assert len(d3.directions()) == 6  # d(d+1)/2 for d = 3


def test_spec_validation():
    with pytest.raises(ValueError):
        BoxSplineSpec(2, (1, 1))  # wrong multiplicity count
    with pytest.raises(ValueError):
        BoxSplineSpec(2, (1, 0, 1))  # multiplicities must be >= 1
    with pytest.raises(ValueError):
        BoxSplineSpec(2, (1, 1, 1), family="nope")


def test_hat_closed_form_values():
    y = np.array([[0.5, 0.0], [0.0, 0.0]])  # xi = 2 pi y = (pi, 0) and 0
    # at xi = (pi, 0): sinc(pi/2)^2 * 1 = (2/pi)^2 for unit multiplicities
    assert _hat_on_lattice(y, B111)[0] == pytest.approx((2.0 / math.pi) ** 2, rel=1e-13)
    # squared multiplicities square the transform
    assert _hat_on_lattice(y, B222) == pytest.approx([(2.0 / math.pi) ** 4, 1.0], rel=1e-13)


def test_hat_symmetry_and_bound():
    y = np.random.default_rng(6).uniform(-8, 8, size=(50, 2)) / (2.0 * math.pi)
    v = _hat_on_lattice(y, B222)
    assert v == pytest.approx(_hat_on_lattice(-y, B222), rel=1e-12)
    # even multiplicities: 0 <= hat <= 1
    assert (-1e-15 <= v).all() and (v <= 1.0 + 1e-15).all()


def test_periodized_coeff_closed_form():
    # c_k = (1/m) hat(2 pi M^{-T} k); k = (1, 0) on 2 E_2: (1/4) hat(pi, 0), and
    # the coefficient vanishes on the sublattice M^T z (sinc at an integer)
    for spec, k, expect in [(B111, (1, 0), 0.25 * (2.0 / math.pi) ** 2),
                            (B222, (0, 0), 0.25), (B222, (2, 0), 0.0)]:
        f = periodize(spec, E2, 1, math.inf).series
        c = f.coeffs[(f.freqs == k).all(axis=1)]
        assert len(c) == 1 and c[0] == pytest.approx(expect, rel=1e-13, abs=1e-30)


def test_periodize_support_and_window():
    grid = periodize(B222, E2, 8, math.inf)
    f = grid.series
    assert len(grid) == len(f) == E2.m * (2 * 8 + 1) ** 2
    assert grid.window == 8
    assert grid.shifts.tolist() == _int_box(2, 8).tolist()
    folded = alias_fold(f, E2).values
    # every folded class is strictly positive: the interpolant exists
    assert folded.real.min() > 0.05
    assert np.abs(folded.imag).max() < 1e-12


@pytest.mark.parametrize("spec,mat", [
    (B222, [[8, 3], [0, 8]]),
    (BoxSplineSpec(3, (2, 1, 2, 1, 2, 1)), [[2, 1, 0], [0, 2, 1], [1, 0, 2]]),
    (BoxSplineSpec(2, (1, 2, 1, 2), family="full"), [[3, 1], [-1, 2]]),
    (BoxSplineSpec(3, (1,) * 9, family="full"), [[3, 1, 0], [0, 2, -1], [1, 0, 2]]),
])
def test_separable_hat_matches_flat_oracle(spec, mat):
    """The per-direction sinc tables read at ``z^T v`` equal the
    transform evaluated at every mode ``M^{-T} (h + M^T z)``."""
    pm = validate_matrix(mat)
    grid = periodize(spec, pm, 3, math.inf)
    z = _int_box(pm.d, 3)
    ks = (gset_freqs(pm)[:, None, :] + (z @ pm.mat_np)[None]).reshape(-1, pm.d)
    expect = _hat_on_lattice(inv_t_apply(ks, pm), spec) / pm.m
    assert np.array_equal(grid.shifts, z)
    assert np.array_equal(grid.series.freqs, ks)
    assert np.abs(grid.coeffs.ravel() - expect).max() <= 1e-15 * np.abs(expect).max()


def _periodize_gather(spec, pm, radius):
    """Oracle: the coefficient grid with each direction's sinc table
    gathered into a full ``(m, nz)`` array at ``n = z^T v``."""
    z = _int_box(pm.d, radius)
    y = inv_t_apply(gset_freqs(pm), pm)
    hat = np.ones((pm.m, len(z)))
    for v, pj in zip(spec.directions(), spec.p):
        nmax = int(np.abs(v).sum()) * radius
        table = np.sinc((y @ v)[:, None] + np.arange(-nmax, nmax + 1)) ** pj
        hat *= table[:, z @ v + nmax]
    return hat / pm.m


@pytest.mark.parametrize("spec,mat", [
    (BoxSplineSpec(1, (3,)), [[5]]),
    (BoxSplineSpec(2, (1, 2, 3)), [[2, 1], [0, 2]]),
    (BoxSplineSpec(2, (1, 2, 3, 2), family="full"), [[3, 1], [-1, 2]]),
    (BoxSplineSpec(3, (2, 1, 2, 1, 3, 1)), [[2, 1, 0], [0, 2, 1], [1, 0, 2]]),
    (BoxSplineSpec(3, (1, 2, 1, 2, 1, 2, 1, 3, 1), family="full"),
     [[3, 1, 0], [0, 2, -1], [1, 0, 2]]),
])
@pytest.mark.parametrize("radius", [1, 3])
def test_strided_factors_match_gather_oracle(spec, mat, radius):
    """The product of strided table views is the gathered product, bit for
    bit: same factors, same order, same division; negative direction
    entries included."""
    pm = validate_matrix(mat)
    grid = periodize(spec, pm, radius, math.inf)
    expect = _periodize_gather(spec, pm, radius)
    assert grid.coeffs.flags.c_contiguous and grid.coeffs.shape == expect.shape
    assert np.array_equal(grid.coeffs, expect)


def test_periodize_peak_memory_is_near_its_output():
    """At j = 4 of the study (m = 1024, radius 16) assembling the grid that
    ``periodize`` returns allocates little beyond the grid itself: no
    ``(m, nz)`` gathered factors."""
    pm = validate_matrix([[32, 16], [0, 32]])
    periodize(B222, pm, 16, 1e-4).coeffs  # fill the class tables' cache first
    grid = periodize(B222, pm, 16, 1e-4)
    tracemalloc.start()
    try:
        coeffs = grid.coeffs
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert coeffs.shape == (1024, 1089)
    assert peak < 1.5 * coeffs.nbytes


def test_len_of_a_kernel_never_builds_it():
    """``len()`` of a periodized kernel is ``m * nz``, read from the pattern
    and the shifts: at j = 4 of the study (m = 1024, radius 16) ``periodize``
    and ``len()`` together trace less than a tenth of the 8.9 MB grid."""
    pm = validate_matrix([[32, 16], [0, 32]])
    periodize(B222, pm, 16, 1e-4)  # fill the class tables' cache first
    tracemalloc.start()
    try:
        n = len(periodize(B222, pm, 16, 1e-4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 1024 * 1089
    assert peak < 1024 * 1089 * 8 / 10


def test_periodization_tail_frozen_values():
    # frozen from the certified shell sum run to its cap (radius + 512) with
    # the integral remainder there; per congruence class, m = 64
    t = {r: periodization_tail(B222, FIG1, r) for r in (8, 16, 32, 64)}
    assert t[16] == pytest.approx(2.418617544890297e-07, rel=1e-9)
    assert t[32] == pytest.approx(5.997279629257784e-08, rel=1e-9)
    # at least the brute-force sum of the per-point bound over a larger box
    z = _int_box(2, 128)
    rad = np.abs(z).max(axis=1)
    for r in (16, 32):
        assert t[r] >= _alias_bound(z[rad > r], B222).sum() / FIG1.m
    # monotone decreasing in the radius
    assert t[8] > t[16] > t[32] > t[64]


def test_periodize_refuses_modes_past_int64():
    """``h + M^T z`` past int64 raises before the product instead of
    wrapping; just inside the guard every mode is exact."""
    with pytest.raises(AnisoError, match="int64"):
        periodize(B222, validate_matrix([[1, 2**60], [0, 1]]), 16, math.inf)
    pm = validate_matrix([[1, 2**61], [0, 1]])  # m = 1, h = 0
    with pytest.raises(AnisoError, match="int64"):  # 2 * 2 * 2^61 = 2^63
        periodize(B222, pm, 2, math.inf)
    phi = periodize(B222, pm, 1, math.inf)
    exact = {(z1, z1 * 2**61 + z2) for z1, z2 in product((-1, 0, 1), repeat=2)}
    assert {tuple(k) for k in phi.series.freqs.tolist()} == exact


def test_window_tail_eps_must_be_positive():
    """``periodize`` refuses a tail bound that is not ``> 0``, and ``None``,
    by name; ``inf`` accepts any bound."""
    for bad in (math.nan, -1.0, 0.0, -math.inf, None):
        with pytest.raises(ValueError, match="tail_eps must be > 0"):
            periodize(B222, E2, 4, bad)
    with pytest.raises(TailTooLarge):  # a valid bound, but not met
        periodize(B222, E2, 4, 1e-300)
    # B(1,1,1) has an infinite tail bound, which only tail_eps = inf accepts
    assert periodize(B111, E2, 2, math.inf).window == 2


def test_periodize_radius_must_be_positive():
    for bad in (0, -1, math.nan):
        with pytest.raises(ValueError, match="radius must be >= 1"):
            periodize(B222, E2, bad, math.inf)


def test_periodize_caps_the_grid_before_any_work(monkeypatch):
    """A box of more than ``GRID_MAX`` shifts raises ``AnisoError`` naming
    the radius, before the tail bound runs and before anything is built.
    The grid's ``m * nz`` entries are not capped here: a grid is walked in
    row blocks and never held."""
    monkeypatch.setattr(boxspline, "GRID_MAX", 9**2)
    grid = periodize(B222, E2, 4, math.inf)
    assert len(grid) == E2.m * 9**2 > boxspline.GRID_MAX
    assert sum(block.size for _, block in grid.row_blocks()) == len(grid)

    def refuse(*args, **kwargs):
        raise AssertionError("work done past the cap")

    for name in ("periodization_tail", "_int_box", "check_reach"):
        monkeypatch.setattr(boxspline, name, refuse)
    with pytest.raises(AnisoError, match="radius 5"):
        periodize(B222, E2, 5, 1e-4)


def test_assembling_a_made_grid_past_grid_max_raises_first(monkeypatch):
    """``coeffs`` and ``series`` of a made grid past ``GRID_MAX`` entries
    raise ``AnisoError`` before any block is made or the grid allocated;
    the same grid still walks, and one at the cap assembles."""
    grid = periodize(B222, E2, 4, math.inf)
    monkeypatch.setattr(ptransform, "GRID_MAX", len(grid))
    assert periodize(B222, E2, 4, math.inf).coeffs.shape == (4, 81)
    monkeypatch.setattr(ptransform, "GRID_MAX", len(grid) - 1)
    assert sum(block.size for _, block in grid.row_blocks()) == len(grid)

    def refuse():
        raise AssertionError("a block was made past the cap")

    for view in ("coeffs", "series"):
        with pytest.raises(AnisoError, match="4 x 81 grid past GRID_MAX = 323"):
            getattr(AliasGrid(E2, grid.shifts, refuse, grid.window), view)


def test_periodize_rejects_large_tail():
    with pytest.raises(TailTooLarge):
        periodize(B222, E2, 4, 1e-12)


def test_tail_infinite_when_order_at_most_d():
    """B(1,1,1) has order 2 = d: the shell remainder does not converge, so
    no tail_eps is met."""
    for tail_eps in (None, 1.0, 1e300):
        assert periodization_tail(B111, E2, 8, tail_eps) == math.inf
    d3 = validate_matrix(np.diag([2, 2, 2]))
    assert periodization_tail(BoxSplineSpec(3, (1,) * 6), d3, 2) == math.inf
    with pytest.raises(TailTooLarge):
        periodize(B111, E2, 16, 1.0)


def _record_shells_summed(mp):
    """Patch the shell sums of :func:`periodization_tail` to record each
    shell ``r`` whose sum it adds; the last one recorded is where it
    stopped.  The list is returned and filled as the sums are taken."""
    taken, sums = [], boxspline._shell_sums

    def recorded(d, first, last, term):
        for r, total in enumerate(sums(d, first, last, term), first):
            taken.append(r)
            yield total

    mp.setattr(boxspline, "_shell_sums", recorded)
    return taken


def _tail_per_shell(spec, pm, radius, tail_eps):
    """Oracle: the tail bound summed one shell per ``_alias_bound`` call,
    as ``(bound, R)`` with ``R`` the shell where the sum stopped."""
    d, order = spec.d, sf_order(spec)
    if order <= d:
        return math.inf, radius
    eps = _constants(spec)[3]
    w = float(np.abs(spec.directions()).sum(axis=1).max()) / 2.0
    cap = radius + (512 if d == 2 else 64)
    partial, r = 0.0, radius
    while True:
        x = math.pi * (eps * r - w)
        rest = math.inf
        if x >= 1.0:
            rest = 2 * d * (2 * r + 1) ** (d - 1) * r * x ** (-order) / (order - d)
        bound = partial + rest / pm.m
        if r == cap or (tail_eps is not None and (bound <= tail_eps or partial > tail_eps)):
            return bound, r
        r += 1
        partial += float(_alias_bound(_int_shell(d, r), spec).sum()) / pm.m


@pytest.mark.parametrize("spec,mats", [
    (BoxSplineSpec(1, (3,)), [[[2]], [[16]], [[256]]]),
    (B222, [[[2, 1], [0, 2]], [[8, 3], [0, 8]], [[32, 16], [0, 32]]]),
    (BoxSplineSpec(2, (1, 2, 3)), [[[1, 0], [0, 2]], [[8, 3], [0, 8]]]),
    (BoxSplineSpec(2, (1, 2, 1, 2), family="full"), [[[3, 1], [-1, 2]], [[8, 3], [0, 8]]]),
    (BoxSplineSpec(3, (2, 2, 3, 2, 2, 3)), [[[2, 0, 0], [0, 1, 0], [0, 0, 1]],
                                            [[8, 2, 1], [0, 8, 2], [1, 0, 8]]]),
    (BoxSplineSpec(3, (2, 1, 2, 1, 2, 1)), [np.diag([2, 2, 2])]),  # order 3 = d
    (BoxSplineSpec(3, (2,) * 9, family="full"), [np.diag([2, 2, 2])]),
])
def test_blocked_tail_matches_per_shell_loop(spec, mats):
    """The tail bound over blocks of shells stops at the same shell as the
    per-shell loop, with the same value, whatever the budget."""
    # with no budget the sum runs to the cap whatever m, so once is enough
    cases = [(mats[0], 2, None), *product(mats, (2, 5), (1e-4, 1e-8, 1e300))]
    summed = 0
    for mat, radius, tail_eps in cases:
        pm = validate_matrix(mat)
        expect, stop = _tail_per_shell(spec, pm, radius, tail_eps)
        with pytest.MonkeyPatch.context() as mp:
            taken = _record_shells_summed(mp)
            got = periodization_tail(spec, pm, radius, tail_eps)
        assert taken == list(range(radius + 1, stop + 1))
        assert got == pytest.approx(expect, rel=1e-15, abs=0.0)
        summed += len(taken)
    # the uncapped case sums shells, so the recording is not vacuous
    assert summed or sf_order(spec) <= spec.d


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 3), full=st.booleans(), radius=st.integers(2, 6),
       data=st.data())
def test_tail_bounds_brute_force_sum(d, full, radius, data):
    """With a budget any finite bound meets, the sum stops at the first
    shell ``R_far`` where the remainder applies; the bound must cover the
    brute-force sum up to ``2 R_far`` and not grow with the radius."""
    family = "full" if full else "simplex"
    ndir = d * d if full else d * (d + 1) // 2
    spec = BoxSplineSpec(d, tuple(data.draw(st.lists(st.integers(1, 3), min_size=ndir,
                                                     max_size=ndir))), family)
    pm = validate_matrix(np.diag([2] * d))
    _, stop = _tail_per_shell(spec, pm, radius, 1e300)
    with pytest.MonkeyPatch.context() as mp:
        taken = _record_shells_summed(mp)
        tail = periodization_tail(spec, pm, radius, 1e300)
        # the recording must see every shell summed, up to the oracle's stop
        assert taken == list(range(radius + 1, stop + 1))
        assert periodization_tail(spec, pm, radius + 1, 1e300) <= tail
    if sf_order(spec) <= d:
        assert tail == math.inf
        return
    z = _int_box(d, 2 * max([radius, *taken]))
    brute = _alias_bound(z[np.abs(z).max(axis=1) > radius], spec).sum() / pm.m
    assert tail >= brute


def test_spatial_positivity_on_grid():
    """The periodized box spline is a sum of nonnegative bumps."""
    f = periodize(B222, E2, 8, math.inf).series
    t = np.linspace(-math.pi, math.pi, 21)
    xx, yy = np.meshgrid(t, t)
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    phases = np.exp(1j * pts @ f.freqs.T)
    vals = phases @ f.coeffs
    # boundary classes of the half-open box leave truncation-sized residue
    assert np.abs(vals.imag).max() < 1e-5
    assert vals.real.min() > -1e-5


def test_sf_order_values():
    assert sf_order(B111) == 2
    assert sf_order(B222) == 4
    assert sf_order(BoxSplineSpec(2, (1, 2, 3))) == 3
    assert sf_order(BoxSplineSpec(2, (3, 1, 1))) == 2
    # total multiplicity minus the most in one hyperplane, in any d
    assert sf_order(BoxSplineSpec(3, (2,) * 6)) == 6
    assert sf_order(BoxSplineSpec(2, (1, 1, 1, 1), family="full")) == 3
    assert sf_order(BoxSplineSpec(1, (3,))) == 3


def test_constants_refuse_past_the_subset_cap():
    """The simplex spline with unit multiplicities has order ``d`` (the
    hyperplane ``x_1 = 0`` holds all but the ``d`` directions with a nonzero
    first entry), and its constants enumerate every subset of ``d - 1`` and
    ``d`` directions: through ``d = 6`` (74 613 subsets) they run; in ``d = 7``
    (1 560 780) and for the full family in ``d = 6`` (2 324 784) ``AnisoError``
    comes before any enumeration."""
    for d in range(1, 7):
        assert sf_order(BoxSplineSpec(d, (1,) * (d * (d + 1) // 2))) == d
    for spec in (BoxSplineSpec(7, (1,) * 28), BoxSplineSpec(6, (1,) * 36, family="full")):
        with pytest.raises(AnisoError, match="past SUBSETS_MAX"):
            sf_order(spec)


def test_full_family_has_degenerate_class():
    """The 4-direction spline's periodization vanishes on a folded class,
    triggering the incorrect-interpolation fallback."""
    full = BoxSplineSpec(2, (1, 1, 1, 1), family="full")
    phi = periodize(full, E2, 12, math.inf)
    ifun = fundamental_interpolant(phi)  # the first full walk decides existence
    with pytest.raises(NonExistent, match=r"\(-1, -1\)"):
        ifun.grid.coeffs
    ifun = fundamental_interpolant(phi, allow_incorrect=True)
    assert (-1, -1) in ifun.incorrect_modes


@pytest.mark.parametrize("d,r", [(1, 0), (1, 3), (2, 2), (3, 2)])
def test_int_box_matches_product(d, r):
    expect = [list(z) for z in product(range(-r, r + 1), repeat=d)]
    assert _int_box(d, r).tolist() == expect


@pytest.mark.parametrize("d,first,last", [(1, 1, 1), (1, 1, 40), (1, 900, 2100), (2, 1, 1),
                                          (2, 1, 60), (2, 5, 300), (3, 1, 14), (3, 9, 20)])
def test_shell_sums_build_blocks_in_the_oracle_order(d, first, last):
    """The blocks, built in one pass each, hold the shells ``first..last`` in
    the oracle's order, each block the fewest shells that reach
    ``TAIL_BLOCK`` points unless it is the last, and one sum per shell."""
    blocks = []

    def term(z):
        blocks.append(z.copy())
        return np.ones(len(z))

    sums = list(_shell_sums(d, first, last, term))
    shells = [_int_shell(d, r) for r in range(first, last + 1)]
    assert np.array_equal(np.concatenate(blocks), np.concatenate(shells))
    assert sums == [float(len(z)) for z in shells]
    sizes = iter(len(z) for z in shells)
    for n, z in enumerate(blocks):
        assert z.dtype == np.int64
        own = []
        while sum(own) < len(z):
            own.append(next(sizes))
        assert sum(own) == len(z)
        assert n == len(blocks) - 1 or sum(own[:-1]) < boxspline.TAIL_BLOCK <= sum(own)


@pytest.mark.parametrize("spec", [
    BoxSplineSpec(1, (3,)), B111, BoxSplineSpec(2, (1, 2, 1, 2), "full"),
    BoxSplineSpec(3, (2, 1, 3, 1, 2, 2)), BoxSplineSpec(3, (1, 2, 3, 1, 2, 3, 1, 2, 3), "full"),
])
def test_alias_bound_matches_the_integer_loop(spec):
    """The float product gives every ``z^T v`` exactly, so the bound keeps
    the bits of the per-direction integer loop, up to entries of ``2^48``."""
    far = 2**48 - _int_box(spec.d, 1), -(2**48) * np.eye(spec.d, dtype=np.int64)
    z = np.concatenate([_int_box(spec.d, 4), *far])
    expect = np.ones(len(z))
    for v, pj in zip(spec.directions(), spec.p):
        t, w = np.abs(z @ v), np.abs(v).sum() / 2.0
        factor = np.ones(len(z))
        factor[t > w] = (np.pi * (t[t > w] - w)) ** (-float(pj))
        expect *= factor
    assert np.array_equal(_alias_bound(z, spec), expect)


def test_spec_constants_are_read_only():
    """The per-spec arrays are shared by every call, so none can be written."""
    for spec in (B222, BoxSplineSpec(3, (2,) * 9, family="full")):
        dirs, half, order, _ = _constants(spec)
        assert _constants(spec)[0] is dirs and order == sf_order(spec)
        assert dirs.tolist() == spec.directions().tolist()
        for a in (dirs, half):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_int_shells_partition_the_box(d):
    shells = [_int_shell(d, r) for r in range(4)]
    for r, z in enumerate(shells):
        assert (np.abs(z).max(axis=1) == r).all()
    rows = np.concatenate(shells).tolist()
    assert sorted(rows) == _int_box(d, 3).tolist()  # each point exactly once
