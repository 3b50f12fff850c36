"""Box-spline transforms and their periodization."""

import math
from itertools import product

import numpy as np
import pytest

from anisointerp import (
    BoxSplineSpec,
    NonExistent,
    PeriodizationWindow,
    TailTooLarge,
    alias_fold,
    boxspline_hat,
    check_existence,
    fundamental_interpolant,
    periodization_tail,
    periodize,
    periodized_coeff,
    sf_order,
    validate_matrix,
)

E2 = validate_matrix([[2, 0], [0, 2]])
FIG1 = validate_matrix([[8, 3], [0, 8]])
B111 = BoxSplineSpec(2, (1, 1, 1))
B222 = BoxSplineSpec(2, (2, 2, 2))


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
    # at xi = (pi, 0): sinc(pi/2)^2 * 1 = (2/pi)^2 for unit multiplicities
    assert boxspline_hat((math.pi, 0.0), B111) == pytest.approx(
        (2.0 / math.pi) ** 2, rel=1e-13
    )
    assert boxspline_hat((0.0, 0.0), B222) == pytest.approx(1.0)
    # squared multiplicities square the transform
    assert boxspline_hat((math.pi, 0.0), B222) == pytest.approx(
        (2.0 / math.pi) ** 4, rel=1e-13
    )


def test_hat_symmetry_and_bound():
    rng = np.random.default_rng(6)
    for _ in range(50):
        xi = rng.uniform(-8, 8, size=2)
        v = boxspline_hat(xi, B222)
        assert v == pytest.approx(boxspline_hat(-xi, B222), rel=1e-12)
        assert -1e-15 <= v <= 1.0 + 1e-15  # even multiplicities: 0 <= hat <= 1


def test_periodized_coeff_closed_form():
    # k = (1, 0) on 2 E_2: (1/4) * hat(pi, 0)
    assert periodized_coeff((1, 0), B111, E2) == pytest.approx(
        0.25 * (2.0 / math.pi) ** 2, rel=1e-13
    )
    assert periodized_coeff((0, 0), B222, E2) == pytest.approx(0.25)
    # vanishes on the sublattice M^T z (sinc at an integer)
    assert abs(periodized_coeff((2, 0), B222, E2)) < 1e-30


def test_periodize_support_and_window():
    win = PeriodizationWindow(radius=8, tail_eps=None)
    f = periodize(B222, E2, win)
    assert len(f) == E2.m * (2 * 8 + 1) ** 2
    assert f.window == 8
    folded = alias_fold(f, E2).values
    # every folded class is strictly positive: the interpolant exists
    assert folded.real.min() > 0.05
    assert np.abs(folded.imag).max() < 1e-12


def test_periodization_tail_frozen_values():
    # frozen from this implementation's analytic shell bound (power-law
    # extrapolated); per congruence class, m = 64
    assert periodization_tail(B222, FIG1, 16) == pytest.approx(
        2.0444428673e-07, rel=1e-4
    )
    assert periodization_tail(B222, FIG1, 32) == pytest.approx(
        2.4740585686e-08, rel=1e-4
    )
    # monotone decreasing in the radius
    t = [periodization_tail(B222, FIG1, r) for r in (8, 16, 32, 64)]
    assert all(b < a for a, b in zip(t, t[1:]))


def test_periodize_rejects_large_tail():
    with pytest.raises(TailTooLarge):
        periodize(B111, E2, PeriodizationWindow(radius=4, tail_eps=1e-12))


def test_spatial_positivity_on_grid():
    """The periodized box spline is a sum of nonnegative bumps."""
    f = periodize(B222, E2, PeriodizationWindow(radius=8, tail_eps=None))
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
    with pytest.raises(ValueError):
        sf_order(BoxSplineSpec(3, (1,) * 6))
    with pytest.raises(ValueError):
        sf_order(BoxSplineSpec(2, (1, 1, 1, 1), family="full"))


def test_full_family_has_degenerate_class():
    """The 4-direction spline's periodization vanishes on a folded class,
    triggering the incorrect-interpolation fallback."""
    full = BoxSplineSpec(2, (1, 1, 1, 1), family="full")
    phi = periodize(full, E2, PeriodizationWindow(radius=12, tail_eps=None))
    rep = check_existence(phi, E2)
    assert (-1, -1) in rep.flagged
    with pytest.raises(NonExistent):
        fundamental_interpolant(phi, E2)
    ifun = fundamental_interpolant(phi, E2, allow_incorrect=True)
    assert (-1, -1) in ifun.incorrect_modes


@pytest.mark.parametrize("d,r", [(1, 0), (1, 3), (2, 2), (3, 2)])
def test_int_box_matches_product(d, r):
    from anisointerp.boxspline import _int_box

    expect = [list(z) for z in product(range(-r, r + 1), repeat=d)]
    assert _int_box(d, r).tolist() == expect
