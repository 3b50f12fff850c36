"""Strang-Fix verification and the theorem constants."""

import math

import numpy as np
import pytest

from anisointerp import (
    AnisoError,
    BoxSplineSpec,
    DivergentSeries,
    FourierSeries,
    InsufficientSupport,
    PeriodizationWindow,
    SFParams,
    c_rho,
    cardinal_residual,
    dirichlet_kernel,
    fundamental_interpolant,
    gamma_ip,
    gamma_sm,
    gset_freqs,
    inv_t_apply,
    periodize,
    reduce_freq,
    sf_order,
    spectral_data,
    validate_matrix,
    verify_sfc,
)

FIG1 = validate_matrix([[8, 3], [0, 8]])
B222 = BoxSplineSpec(2, (2, 2, 2))


@pytest.fixture(scope="module")
def box_ifun():
    phi = periodize(B222, FIG1, PeriodizationWindow(radius=16, tail_eps=1e-4))
    return fundamental_interpolant(phi, FIG1)


def test_sfparams_validation():
    with pytest.raises(ValueError):
        SFParams(s=0.0)
    with pytest.raises(ValueError):
        SFParams(s=2.0, mode="loose")
    for bad in ({"s": math.nan}, {"s": 2.0, "q": math.nan}, {"s": 2.0, "q": 0.5},
                {"s": 2.0, "alpha": -1.0}, {"s": 2.0, "alpha": math.nan}):
        with pytest.raises(ValueError):
            SFParams(**bad)
    assert SFParams(s=2.0, alpha=math.inf, q=math.inf).q == math.inf


@pytest.mark.parametrize("alpha,q", [(0.0, 0.0), (0.0, math.nan), (0.0, 0.5),
                                     (-1.0, 2.0), (math.nan, 2.0)])
def test_gamma_ip_rejects_invalid_alpha_and_q(alpha, q):
    pm = validate_matrix([[2, 1], [0, 2]])
    ifun = fundamental_interpolant(dirichlet_kernel(pm), pm)
    with pytest.raises(ValueError):
        gamma_ip(ifun, alpha, q, 4)


def test_shifts_past_int64_raise():
    """A mode whose ``(k - h) adj M`` could wrap in int64 is refused, not
    counted at a wrapped shift ``z = 0`` in the inner condition; one just
    inside ``d (max|k| + max|h|) max|adj M| < 2^63`` gets its exact shift."""
    pm = validate_matrix([[2, 1], [0, 2]])  # d = 2, max|adj M| = 2, max|h| = 1
    phi = dirichlet_kernel(pm)

    def with_mode(k):
        return fundamental_interpolant(FourierSeries(
            np.vstack([phi.freqs, [k]]), np.append(phi.coeffs, 0.5), window=math.inf), pm)

    ifun = with_mode((2**63 - 1, 2**62 - 1))
    assert cardinal_residual(ifun) < 1e-12  # building and applying it still work
    for check in (lambda: verify_sfc(ifun, SFParams(s=2.0), zmax=4),
                  lambda: gamma_ip(ifun, 0.0, 2.0, 4)):
        with pytest.raises(AnisoError, match="too large"):
            check()
    k = (2**61 - 2, -(2**61 - 2))
    z = with_mode(k).shifts[-1].tolist()
    h = reduce_freq(k, pm)
    assert tuple(z) == pm.transposed().inv_apply(tuple(a - b for a, b in zip(k, h)))


def test_dirichlet_passes_any_order_with_zero_gamma():
    ifun = fundamental_interpolant(dirichlet_kernel(FIG1), FIG1)
    for s in (1.0, 4.0, 12.0):
        rep = verify_sfc(ifun, SFParams(s=s, alpha=1.0, q=2.0), zmax=6)
        assert rep.passed
        assert rep.gamma_sf == 0.0
        assert rep.fitted_order is None  # exact reproduction, nothing to fit
        assert all(b == 0.0 for b in rep.b.values())


def test_box_spline_passes_at_its_order(box_ifun):
    s = sf_order(B222)
    for alpha in (0.0, 1.0):
        claim = s - alpha
        assert claim > 2  # hypothesis of the combined theorem
        rep = verify_sfc(box_ifun, SFParams(s=claim, alpha=alpha, q=2.0),
                         zmax=16)
        assert rep.passed, rep.failures
        assert rep.gamma_sf > 0.0
        assert math.isfinite(rep.gamma_sf)


def test_box_spline_fails_at_inflated_order(box_ifun):
    s = sf_order(B222)
    rep = verify_sfc(box_ifun, SFParams(s=float(s + 4), alpha=0.0, q=2.0),
                     zmax=16)
    assert not rep.passed
    assert rep.fitted_order is not None
    assert rep.fitted_order < s + 4 - 0.5
    assert rep.witness is not None
    assert any("fitted decay" in msg for msg in rep.failures)


def test_fitted_order_matches_reproduction_order(box_ifun):
    rep = verify_sfc(box_ifun, SFParams(s=4.0, alpha=0.0, q=2.0), zmax=16)
    assert rep.fitted_order == pytest.approx(4.0, abs=0.75)


def test_relaxed_mode_scales_b_by_kappa(box_ifun):
    s = 4.0
    strict = verify_sfc(box_ifun, SFParams(s=s, alpha=0.0, q=2.0), zmax=16)
    relaxed = verify_sfc(box_ifun, SFParams(s=s, alpha=0.0, q=2.0,
                                            mode="relaxed"), zmax=16)
    assert relaxed.passed
    kappa = spectral_data(FIG1).kappa
    assert relaxed.gamma_sf == pytest.approx(strict.gamma_sf * kappa**-s,
                                             rel=1e-10)


def test_insufficient_support_raised(box_ifun):
    with pytest.raises(InsufficientSupport):
        verify_sfc(box_ifun, SFParams(s=4.0), zmax=17)  # window is 16
    for check in (lambda: verify_sfc(box_ifun, SFParams(s=4.0), zmax=-1),
                  lambda: gamma_ip(box_ifun, 0.0, 2.0, -1)):
        with pytest.raises(ValueError, match="zmax"):
            check()


def test_gamma_sf_is_weighted_lq_of_b(box_ifun):
    from anisointerp import weights_many

    rep = verify_sfc(box_ifun, SFParams(s=4.0, alpha=1.0, q=2.0), zmax=16)
    zs = np.array(sorted(rep.b), dtype=np.int64)
    bv = np.array([rep.b[tuple(int(x) for x in z)] for z in zs])
    sig = weights_many(zs, 1.0, FIG1)
    assert rep.gamma_sf == pytest.approx(
        float(np.sqrt(((sig * bv) ** 2).sum())), rel=1e-12
    )


def test_b_matches_dict_loop_oracle(box_ifun):
    """The per-shift constants equal a plain per-mode maximum over a dict,
    with each mode's class from ``reduce_freq`` and its shift
    ``z = M^{-T} (k - h)`` in exact fractions."""
    params, zmax = SFParams(s=4.0, alpha=1.0, q=2.0), 12
    rep = verify_sfc(box_ifun, params, zmax=zmax)
    sd = spectral_data(FIG1)
    hs = gset_freqs(FIG1)
    ynorm = np.linalg.norm(inv_t_apply(hs, FIG1), axis=1)
    rhs = sd.kappa ** -params.s * sd.norm2 ** -params.alpha * ynorm ** params.s
    position = {h: i for i, h in enumerate(map(tuple, hs.tolist()))}
    mt = FIG1.transposed()
    expect = {(0, 0): rep.b[(0, 0)]}
    for k, c in zip(box_ifun.series.freqs.tolist(), box_ifun.series.coeffs):
        h = reduce_freq(k, FIG1)
        z = mt.inv_apply(tuple(a - b for a, b in zip(k, h)))
        assert all(x.denominator == 1 for x in z)
        key = tuple(int(x) for x in z)
        lab = position[h]
        if not any(key) or max(map(abs, key)) > zmax or not any(h):
            continue
        r = abs(FIG1.m * c) / rhs[lab]
        if r > expect.get(key, 0.0):
            expect[key] = float(r)
    assert rep.b == expect


def test_gamma_ip_dirichlet_is_one():
    ifun = fundamental_interpolant(dirichlet_kernel(FIG1), FIG1)
    for q in (1.0, 2.0, math.inf):
        assert gamma_ip(ifun, 1.5, q, 6) == pytest.approx(1.0, rel=1e-12)


def test_gamma_ip_box_spline_exceeds_one_with_weight(box_ifun):
    v = gamma_ip(box_ifun, 1.0, 2.0, 16)
    assert v > 1.0
    # sup form is dominated by the q = 1 form
    assert gamma_ip(box_ifun, 1.0, math.inf, 16) <= gamma_ip(
        box_ifun, 1.0, 1.0, 16
    ) + 1e-12


def test_gamma_sm_q1_closed_form():
    # q = 1: sup over z != 0 of ||2|z| - 1||^{-mu}; minimum norm sqrt(2)
    # at a unit z, so the sup is 2^{-mu/2}; prefactor (1+d)^{a/2} 2^mu
    for mu in (3.0, 4.0, 6.0):
        expect = 2.0**mu * 2.0 ** (-mu / 2.0)
        assert gamma_sm(mu, 0.0, 1.0, 2) == pytest.approx(expect, rel=1e-12)
    expect = 3.0 ** (1.0 / 2.0) * 2.0**4 * 2.0**-2
    assert gamma_sm(4.0, 1.0, 1.0, 2) == pytest.approx(expect, rel=1e-12)


def test_gamma_sm_series_value_q2():
    # frozen: d = 2, mu = 6, alpha = 0, q = 2 (p = 2); series
    # sum ||2|z|-1||^{-12} computed by direct summation here
    from itertools import product

    total = 0.0
    for z in product(range(-60, 61), repeat=2):
        if z == (0, 0):
            continue
        total += ((2 * abs(z[0]) - 1) ** 2 + (2 * abs(z[1]) - 1) ** 2) ** -6.0
    expect = 2.0**6.0 * total**0.5
    assert gamma_sm(6.0, 0.0, 2.0, 2) == pytest.approx(expect, rel=1e-9)


def test_gamma_sm_divergence_guard():
    with pytest.raises(DivergentSeries):
        gamma_sm(0.5, 0.0, 2.0, 2)  # mu <= d(1 - 1/q) = 1
    with pytest.raises(DivergentSeries):
        gamma_sm(1.5, 0.0, math.inf, 2)  # needs mu > 2
    # boundary is excluded
    with pytest.raises(DivergentSeries):
        gamma_sm(1.0, 0.0, 2.0, 2)


def test_c_rho_arithmetic():
    rho, c = c_rho(1.5, 2.0, 0.5, s=4.0, mu=6.0, alpha=1.0, d=2)
    assert rho == 4.0  # min(4, 6 - 1) = 4 -> first branch
    assert c == pytest.approx(1.5 + 2.0**5 + 2.0 * 0.5)
    rho2, c2 = c_rho(1.5, 2.0, 0.5, s=4.0, mu=4.0, alpha=1.0, d=2)
    assert rho2 == 3.0  # min(4, 3) -> second branch
    assert c2 == pytest.approx(3.0 ** (4.0 + 1.0 - 4.0) * 1.5 + 2.0**3 + 1.0)


def test_report_json_keys(box_ifun):
    rep = verify_sfc(box_ifun, SFParams(s=4.0, alpha=0.0, q=2.0), zmax=16)
    payload = rep.to_json_dict()
    assert set(payload) == {"order", "alpha", "q", "mode", "gamma_sf",
                            "fitted_order", "pass", "witness"}
    assert payload["pass"] is True
