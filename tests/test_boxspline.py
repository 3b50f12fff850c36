"""Box-spline transforms and their periodization."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisointerp import (
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
from anisointerp import boxspline
from anisointerp.boxspline import _alias_bound, _int_box, _int_shell

E2 = validate_matrix([[2, 0], [0, 2]])
FIG1 = validate_matrix([[8, 3], [0, 8]])
B111 = BoxSplineSpec(2, (1, 1, 1))
B222 = BoxSplineSpec(2, (2, 2, 2))


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
    """The per-direction sinc tables gathered at ``z^T v`` equal the
    transform evaluated at every mode ``M^{-T} (h + M^T z)``."""
    pm = validate_matrix(mat)
    grid = periodize(spec, pm, 3, math.inf)
    z = _int_box(pm.d, 3)
    ks = (gset_freqs(pm)[:, None, :] + (z @ pm.mat_np)[None]).reshape(-1, pm.d)
    expect = _hat_on_lattice(inv_t_apply(ks, pm), spec) / pm.m
    assert np.array_equal(grid.shifts, z)
    assert np.array_equal(grid.series.freqs, ks)
    assert np.abs(grid.coeffs.ravel() - expect).max() <= 1e-15 * np.abs(expect).max()


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
    """A grid of more than ``GRID_MAX`` entries raises ``AnisoError`` naming
    the radius, before the tail bound runs and before anything is built."""
    monkeypatch.setattr(boxspline, "GRID_MAX", E2.m * 9**2)
    assert periodize(B222, E2, 4, math.inf).coeffs.size == 324

    def refuse(*args, **kwargs):
        raise AssertionError("work done past the cap")

    for name in ("periodization_tail", "_int_box", "check_reach"):
        monkeypatch.setattr(boxspline, name, refuse)
    with pytest.raises(AnisoError, match="radius 5"):
        periodize(B222, E2, 5, 1e-4)


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
    seen = [radius]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(boxspline, "_int_shell",
                   lambda dd, r: seen.append(r) or _int_shell(dd, r))
        tail = periodization_tail(spec, pm, radius, 1e300)
        assert periodization_tail(spec, pm, radius + 1, 1e300) <= tail
    if sf_order(spec) <= d:
        assert tail == math.inf
        return
    z = _int_box(d, 2 * max(seen))
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


def test_full_family_has_degenerate_class():
    """The 4-direction spline's periodization vanishes on a folded class,
    triggering the incorrect-interpolation fallback."""
    full = BoxSplineSpec(2, (1, 1, 1, 1), family="full")
    phi = periodize(full, E2, 12, math.inf)
    with pytest.raises(NonExistent, match=r"\(-1, -1\)"):
        fundamental_interpolant(phi)
    ifun = fundamental_interpolant(phi, allow_incorrect=True)
    assert (-1, -1) in ifun.incorrect_modes


@pytest.mark.parametrize("d,r", [(1, 0), (1, 3), (2, 2), (3, 2)])
def test_int_box_matches_product(d, r):
    expect = [list(z) for z in product(range(-r, r + 1), repeat=d)]
    assert _int_box(d, r).tolist() == expect


@pytest.mark.parametrize("d", [1, 2, 3])
def test_int_shells_partition_the_box(d):
    shells = [_int_shell(d, r) for r in range(4)]
    for r, z in enumerate(shells):
        assert (np.abs(z).max(axis=1) == r).all()
    rows = np.concatenate(shells).tolist()
    assert sorted(rows) == _int_box(d, 3).tolist()  # each point exactly once
