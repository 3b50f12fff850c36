"""Spectral quantities against independent oracles."""

import numpy as np
import pytest

from anisointerp import (
    ConvergenceFailure,
    inv_t_apply,
    is_expanding,
    spectral_data,
    validate_matrix,
)

FIG1 = [[8, 3], [0, 8]]


def power_iteration_norm(a, iters=2000):
    """Largest singular value by plain power iteration on A^T A."""
    g = a.T @ a
    v = np.ones(a.shape[1]) / np.sqrt(a.shape[1])
    for _ in range(iters):
        w = g @ v
        v = w / np.linalg.norm(w)
    return float(np.sqrt(v @ g @ v))


@pytest.mark.parametrize("mat", [
    [[3]], [[2, 0], [0, 2]], [[2, 1], [0, 2]], FIG1,
    [[5, -3], [2, 4]], [[1, 1, 0], [0, 2, 1], [1, 0, 3]],
])
def test_norm2_matches_power_iteration(mat):
    pm = validate_matrix(mat)
    sd = spectral_data(pm)
    a = np.array(mat, dtype=float)
    assert sd.norm2 == pytest.approx(power_iteration_norm(a), rel=1e-10)
    assert sd.inv_norm2 == pytest.approx(
        power_iteration_norm(np.linalg.inv(a)), rel=1e-10
    )
    assert sd.kappa == pytest.approx(sd.norm2 * sd.inv_norm2, rel=1e-12)


def test_fig1_frozen_values():
    sd = spectral_data(validate_matrix(FIG1))
    # oracle: singular values of [[8,3],[0,8]] solve s^4 - 137 s^2 + 64^2 = 0
    s2 = (137 + np.sqrt(137.0**2 - 4 * 64.0**2)) / 2
    assert sd.norm2 == pytest.approx(np.sqrt(s2), rel=1e-12)
    assert sd.norm2 == pytest.approx(9.6394102988, rel=1e-8)
    # kappa = s_max / s_min = s_max^2 / |det|
    assert sd.kappa == pytest.approx(s2 / 64.0, rel=1e-12)
    assert sd.kappa == pytest.approx(1.4518473577, rel=1e-8)
    assert np.allclose(sorted(sd.eig_mags), [8.0, 8.0])


def test_kappa_scale_invariant():
    pm1 = validate_matrix([[2, 1], [0, 2]])
    pm3 = validate_matrix([[6, 3], [0, 6]])
    assert spectral_data(pm1).kappa == pytest.approx(
        spectral_data(pm3).kappa, rel=1e-12
    )


def test_is_expanding():
    assert is_expanding(spectral_data(validate_matrix([[2, 0], [0, 2]])))
    assert is_expanding(spectral_data(validate_matrix(FIG1)))
    # eigenvalues of [[1,1],[0,1]] are both 1
    assert not is_expanding(spectral_data(validate_matrix([[1, 1], [0, 1]])))


def test_inv_t_apply_exact_cases():
    pm = validate_matrix([[2, 0], [0, 2]])
    y = inv_t_apply(np.array([[1, 0], [3, -2]]), pm)
    assert np.allclose(y, [[0.5, 0.0], [1.5, -1.0]])
    pm2 = validate_matrix(FIG1)
    # M^{-T} = [[1/8, 0], [-3/64, 1/8]]
    y2 = inv_t_apply(np.array([[8, 0]]), pm2)
    assert np.allclose(y2, [[1.0, -3.0 / 8.0]])


def test_inv_t_apply_does_not_wrap_around():
    """Against ``M^{-T} k`` in exact fractions where ``k adj M`` is past
    int64, and bit-identical to the integer product where that is exact."""
    pm = validate_matrix(FIG1)
    ks = np.array([[2**61, 0], [-(2**61), 2**61 - 1], [2**63 - 1, -(2**63)]])
    exact = [[float(y) for y in pm.transposed().inv_apply(k)] for k in ks.tolist()]
    assert np.allclose(inv_t_apply(ks, pm), exact, rtol=1e-15, atol=0)
    assert inv_t_apply(ks[:1], pm).tolist() == [[2.0**61 / 8, -3 * 2.0**61 / 64]]
    small = np.random.default_rng(2).integers(-(2**40), 2**40, size=(200, 2))
    assert np.array_equal(inv_t_apply(small, pm), (small @ pm.adj_np) / float(pm.det))


def test_spectral_data_cache_is_bounded():
    assert spectral_data.cache_info().maxsize == 16
    for n in range(2, 40):
        spectral_data(validate_matrix([[n, 1], [0, n]]))
    assert spectral_data.cache_info().currsize <= 16
    # an evicted matrix is recomputed to the same values
    assert spectral_data(validate_matrix([[2, 1], [0, 2]])).norm2 == pytest.approx(
        power_iteration_norm(np.array([[2.0, 1.0], [0.0, 2.0]])), rel=1e-10)
