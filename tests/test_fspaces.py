"""Ellipsoidal weights, A-norms, and the submultiplicativity audit."""

import math

import numpy as np
import pytest

from anisointerp import (
    FourierSeries,
    SFParams,
    a_norm,
    dirichlet_kernel,
    fundamental_interpolant,
    lq_norm,
    part_bounds,
    spectral_data,
    validate_matrix,
    verify_sfc,
    weights_many,
)
from anisointerp.fspaces import grid_weights
from reference_api import NotExpanding, check_submultiplicativity

E2 = validate_matrix([[2, 0], [0, 2]])
FIG1 = validate_matrix([[8, 3], [0, 8]])


def test_weight_hand_values():
    # sigma_2(e1) = 1 + ||M||^2 ||M^{-T} e1||^2 = 1 + 4 * 1/4 = 2
    assert weights_many([(1, 0), (0, 0)], 2.0, E2) == pytest.approx([2.0, 1.0])
    # sigma_4(1,1) = (1 + 4 * 1/2)^2 = 9
    assert weights_many([(1, 1)], 4.0, E2) == pytest.approx([9.0])
    # beta = 0 weight is identically one
    assert weights_many([(7, -5)], 0.0, E2) == pytest.approx([1.0])


def test_weight_symmetry_and_monotonicity():
    ks = np.array([[1, 2], [3, -4], [0, 5]])
    w_pos = weights_many(ks, 3.0, FIG1)
    w_neg = weights_many(-ks, 3.0, FIG1)
    assert np.allclose(w_pos, w_neg)
    # increasing beta increases the weight at nonzero k
    w2 = weights_many(ks, 2.0, FIG1)
    w5 = weights_many(ks, 5.0, FIG1)
    assert (w5 > w2).all()
    # along a ray the weight is nondecreasing in the multiplier
    ray = np.array([[1, 1], [2, 2], [4, 4], [8, 8]])
    wr = weights_many(ray, 2.0, FIG1)
    assert (np.diff(wr) > 0).all()


def test_weight_kappa_sandwich():
    """(1 + ||k||^2 / kappa^2)^{b/2} <= sigma_b <= (1 + kappa^2 ||k||^2)^{b/2}:
    the ellipsoid's axis ratio bounds the weight between isotropic weights."""
    sd = spectral_data(FIG1)
    rng = np.random.default_rng(5)
    ks = rng.integers(-40, 41, size=(300, 2))
    beta = 3.0
    w = weights_many(ks, beta, FIG1)
    n2 = np.einsum("ij,ij->i", ks, ks).astype(float)
    lo = (1.0 + n2 / sd.kappa**2) ** (beta / 2)
    hi = (1.0 + sd.kappa**2 * n2) ** (beta / 2)
    assert (w >= lo * (1 - 1e-12)).all()
    assert (w <= hi * (1 + 1e-12)).all()


def test_lq_norm_conventions():
    v = np.array([3.0, 4.0])
    assert lq_norm(v, 2.0) == pytest.approx(5.0)
    assert lq_norm(v, 1.0) == pytest.approx(7.0)
    assert lq_norm(v, math.inf) == pytest.approx(4.0)
    assert lq_norm(np.array([]), 2.0) == 0.0


@pytest.mark.parametrize("q", [1.0, 2.0, math.inf])
def test_lq_norm_of_empty_rows(q):
    """Along an axis, an empty array has one zero norm per row, or none."""
    assert lq_norm(np.zeros((3, 0)), q, axis=1).tolist() == [0.0, 0.0, 0.0]
    assert lq_norm(np.zeros((0, 3)), q, axis=1).shape == (0,)
    assert lq_norm(np.zeros((0, 3)), q) == 0.0


@pytest.mark.parametrize("beta", [-1.0, math.nan])
def test_weights_reject_invalid_beta(beta):
    with pytest.raises(ValueError, match="beta must be >= 0"):
        weights_many([(1, 0)], beta, E2)
    with pytest.raises(ValueError, match="beta must be >= 0"):
        grid_weights(E2, dirichlet_kernel(E2).shifts, beta)


@pytest.mark.parametrize("q", [0.5, math.nan])
def test_lq_norm_rejects_invalid_q(q):
    with pytest.raises(ValueError, match="q must be >= 1"):
        lq_norm(np.array([3.0, 4.0]), q)


def test_a_norm_checks_an_empty_series():
    """The checks run before any term is summed, so an empty series with an
    invalid ``q`` is refused too."""
    assert a_norm(FourierSeries.zero(2), 0.0, E2, 2.0) == 0.0
    with pytest.raises(ValueError, match="q must be >= 1"):
        a_norm(FourierSeries.zero(2), 0.0, E2, 0.5)


def test_a_norm_rejects_repeated_rows():
    """Stored twice with opposite signs, a mode is the zero function; its
    rows' norm would be sqrt(2), so ``a_norm`` and ``part_bounds`` refuse
    such a series, as ``interp_error`` does."""
    f = FourierSeries(np.array([[1, 0], [1, 0]]), np.array([1.0, -1.0]))
    m21 = validate_matrix([[2, 1], [0, 2]])
    ifd = fundamental_interpolant(dirichlet_kernel(m21))
    with pytest.raises(ValueError, match="repeated frequency rows"):
        a_norm(f, 0.0, m21, 2.0)
    with pytest.raises(ValueError, match="repeated frequency rows"):
        part_bounds(f, ifd, verify_sfc(ifd, SFParams(s=4.0, alpha=0.0, q=2.0)), 6.0)
    merged = FourierSeries(f.freqs, f.coeffs, dedup=True)
    assert a_norm(merged, 0.0, m21, 2.0) == 0.0


def test_a_norm_hand_value():
    # f = 2 e^{i k1 x} + i e^{i k2 x} on 2 E_2, alpha = 2, q = 2
    f = FourierSeries(np.array([[1, 0], [1, 1]]),
                      np.array([2.0 + 0j, 1j]))
    val = a_norm(f, 2.0, E2, 2.0)
    # sigma_2(1,0) = 2, sigma_2(1,1) = 3 -> sqrt((2*2)^2 + (3*1)^2) = 5
    assert val == pytest.approx(5.0)
    # sup norm
    assert a_norm(f, 2.0, E2, math.inf) == pytest.approx(4.0)


def test_a_norm_monotone_in_alpha():
    rng = np.random.default_rng(9)
    freqs = rng.integers(-15, 16, size=(60, 2))
    coeffs = rng.standard_normal(60) + 1j * rng.standard_normal(60)
    f = FourierSeries(freqs, coeffs, dedup=True)
    norms = [a_norm(f, alpha, FIG1, 2.0) for alpha in (0.0, 1.0, 2.0, 4.0)]
    assert all(b >= a * (1 - 1e-12) for a, b in zip(norms, norms[1:]))


@pytest.mark.parametrize("mat", [
    [[2, 0], [0, 2]], [[2, 1], [0, 2]], [[8, 3], [0, 8]], [[5, -3], [2, 4]],
])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 4.0])
def test_submultiplicativity_expanding(mat, beta):
    pm = validate_matrix(mat)
    rep = check_submultiplicativity(10_000, beta, pm,
                                    rng=np.random.default_rng(17))
    assert rep.ok, f"max ratio {rep.max_ratio}"
    assert rep.trials == 10_000


def test_submultiplicativity_strict_requires_expanding():
    shear = validate_matrix([[1, 1], [0, 1]])  # eigenvalues 1, 1
    with pytest.raises(NotExpanding):
        check_submultiplicativity(100, 2.0, shear)


def test_submultiplicativity_relaxed_non_expanding():
    shear = validate_matrix([[1, 1], [0, 1]])  # ||M||_2 >= 1, not expanding
    rep = check_submultiplicativity(10_000, 2.0, shear, relaxed=True,
                                    rng=np.random.default_rng(23))
    assert rep.relaxed and rep.ok, f"max ratio {rep.max_ratio}"
