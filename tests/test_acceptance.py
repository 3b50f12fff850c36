"""Acceptance gate: ten end-to-end criteria, one printed verdict each."""

import math
import time

import numpy as np
import pytest

from anisointerp import (
    AliasGrid,
    BoxSplineSpec,
    ExperimentSpec,
    FourierSeries,
    NonExistent,
    SampleVector,
    SFParams,
    alias_fold,
    cardinal_residual,
    convergence_study,
    decay_profile,
    dirichlet_kernel,
    discrete_coeffs,
    fourier_matrix,
    fundamental_interpolant,
    gset_freqs,
    interp_error,
    part_bounds,
    periodize,
    sf_order,
    spectral_data,
    validate_matrix,
    pattern_generators,
    verify_sfc,
)
from reference_api import check_submultiplicativity, merged

FIG1 = [[8, 3], [0, 8]]
B222 = BoxSplineSpec(2, (2, 2, 2))
RATIO_TOL = 1.0 + 1e-9


def _verdict(n, ok, text):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {text}", flush=True)
    assert ok, f"acceptance criterion {n} failed: {text}"


def _random_regular(rng, d, max_abs_det=200):
    while True:
        mat = rng.integers(-6, 7, size=(d, d))
        det = round(float(np.linalg.det(mat.astype(float))))
        if det != 0 and abs(det) <= max_abs_det:
            return mat.tolist()


def test_acceptance_1_cardinality_law():
    start = time.time()
    rng = np.random.default_rng(101)
    ok = True
    for i in range(50):
        d = int(rng.integers(1, 4))
        pm = validate_matrix(_random_regular(rng, d))
        ok &= len(pattern_generators(pm)) == pm.m
        ok &= len(gset_freqs(pm)) == pm.m
    pm = validate_matrix(FIG1)
    ok &= pm.m == 64 and len(pattern_generators(pm)) == 64
    elapsed = time.time() - start
    ok &= elapsed < 5.0
    _verdict(1, ok, f"|P_S(M)| = |G_S(M^T)| = |det M| on 50 random matrices "
                    f"+ the 64-point matrix ({elapsed:.2f} s)")


def test_acceptance_2_dft_unitarity():
    start = time.time()
    mats = [[[1]], [[7]], [[2, 0], [0, 2]], [[2, 1], [0, 2]], FIG1,
            [[5, -3], [2, 4]], [[16, 0], [0, 16]], [[12, 5], [0, 12]],
            [[1, 1, 0], [0, 2, 1], [1, 0, 3]], [[4, 0, 0], [0, 4, 0], [0, 0, 4]]]
    worst = 0.0
    for mat in mats:
        pm = validate_matrix(mat)
        assert pm.m <= 256
        f = fourier_matrix(pm)
        worst = max(worst, float(np.abs(f @ f.conj().T - np.eye(pm.m)).max()))
    elapsed = time.time() - start
    ok = worst < 1e-12 and elapsed < 10.0
    _verdict(2, ok, f"max |F F^H - I| = {worst:.2e} over {len(mats)} matrices "
                    f"({elapsed:.2f} s)")


def test_acceptance_3_aliasing_lemma():
    rng = np.random.default_rng(103)
    mats = [[[2, 0], [0, 2]], [[2, 1], [0, 2]], [[5, -3], [2, 4]],
            [[6, 1], [1, 6]], [[-3, 1], [2, 2]], [[4, 2], [1, 3]]]
    worst = 0.0
    for trial in range(100):
        pm = validate_matrix(mats[trial % len(mats)])
        assert pm.m <= 64
        n = int(rng.integers(1, 51))
        f = merged(rng.integers(-25, 26, size=(n, pm.d)),
                   rng.standard_normal(n) + 1j * rng.standard_normal(n))
        vals = np.zeros(pm.m, dtype=np.complex128)
        for j, g in enumerate(pattern_generators(pm).tolist()):
            y = np.array([float(c) for c in pm.inv_apply(g)])
            vals[j] = np.sum(f.coeffs * np.exp(2j * np.pi * (f.freqs @ y)))
        oracle = discrete_coeffs(SampleVector(vals, pm)).values
        worst = max(worst, float(np.abs(alias_fold(f, pm).values - oracle).max()))
    ok = worst < 1e-12
    _verdict(3, ok, f"alias_fold == discrete_coeffs o sampling, "
                    f"max deviation {worst:.2e} over 100 trials")


def test_acceptance_4_submultiplicativity():
    expanding = [[[2, 0], [0, 2]], [[2, 1], [0, 2]], FIG1, [[5, -3], [2, 4]]]
    ok = True
    worst = 0.0
    for mat in expanding:
        rep = check_submultiplicativity(10_000, 2.0,
                                        validate_matrix(mat),
                                        rng=np.random.default_rng(104))
        ok &= rep.violations == 0
        worst = max(worst, rep.max_ratio)
    shear = validate_matrix([[1, 1], [0, 1]])  # ||M||_2 > 1, not expanding
    rep = check_submultiplicativity(10_000, 2.0, shear, relaxed=True,
                                    rng=np.random.default_rng(104))
    ok &= rep.violations == 0
    _verdict(4, ok, f"sigma_b(k + M^T z) <= ||M||^b sigma_b(k) sigma_b(z): "
                    f"0 violations, max ratio {worst:.6f}; relaxed 2^b "
                    f"variant passes on a non-expanding matrix")


def test_acceptance_5_fundamental_interpolant_contract():
    ok = True
    details = []
    for mat in ([[2, 0], [0, 2]], [[2, 1], [0, 2]], FIG1):
        pm = validate_matrix(mat)
        phi = periodize(B222, pm, 32, 1e-5)
        ifun = fundamental_interpolant(phi)
        fold_dev = float(np.abs(alias_fold(ifun.series, pm).values
                                - 1.0 / pm.m).max())
        card = cardinal_residual(ifun)
        ok &= fold_dev < 1e-10 and card < 1e-6
        details.append(f"m={pm.m}: fold {fold_dev:.1e}, cardinal {card:.1e}")
    ifd = fundamental_interpolant(dirichlet_kernel(validate_matrix(FIG1)))
    coeffs = dict(zip(map(tuple, ifd.series.freqs.tolist()), ifd.series.coeffs))
    dir_dev = max(abs(coeffs.get(h, 0.0) - 1.0 / 64)
                  for h in map(tuple, gset_freqs(ifd.pm).tolist()))
    dir_out = abs(coeffs.get((999, 999), 0.0))
    ok &= dir_dev <= 1e-12 and dir_out == 0.0
    _verdict(5, ok, "; ".join(details) + f"; Dirichlet coeff dev {dir_dev:.1e}")


def _study_report():
    spec = ExperimentSpec(
        base_matrix=validate_matrix([[2, 1], [0, 2]]),
        scales=(0, 1, 2, 3),
        test_function=decay_profile(2, 9.0, 16),
        alpha=0.0, mu=6.0, q=2.0, kernel=B222, radius=16, tail_eps=1e-4,
    )
    return convergence_study(spec)


@pytest.fixture(scope="module")
def study():
    return _study_report()


def test_acceptance_6_node_exactness(study):
    worst = max(r.node_residual for r in study.rows)
    ok = worst <= 1e-6
    _verdict(6, ok, f"max node residual of L_M f across all experiment rows: "
                    f"{worst:.2e}")


def test_acceptance_7_theorem_audits():
    start = time.time()
    e2 = validate_matrix([[2, 0], [0, 2]])
    phi = periodize(B222, e2, 16, 1e-4)
    box = fundamental_interpolant(phi)
    rep = verify_sfc(box, SFParams(s=4.0, alpha=0.0, q=2.0))
    rng = np.random.default_rng(107)
    hs = gset_freqs(e2)

    trig_ratios = []
    for _ in range(20):
        c = rng.standard_normal(e2.m) + 1j * rng.standard_normal(e2.m)
        f = FourierSeries(hs.copy(), c)
        trig_ratios.append(part_bounds(f, box, rep, 6.0).ratios["trig"])

    # no kernel enters the partial-sum part: take the Dirichlet interpolant
    ifd = fundamental_interpolant(dirichlet_kernel(e2))
    rep_d0, rep_d1 = (verify_sfc(ifd, SFParams(s=4.0, alpha=alpha, q=2.0))
                      for alpha in (0.0, 1.0))
    mode53 = FourierSeries(np.array([[5, 3]]), np.array([1.0 + 0j]))
    psum_ratios = [part_bounds(mode53, ifd, rep_d1, 6.0).ratios["partial"]]
    for _ in range(20):
        f = merged(rng.integers(-20, 21, size=(30, 2)),
                   rng.standard_normal(30) + 1j * rng.standard_normal(30))
        psum_ratios.append(part_bounds(f, ifd, rep_d0, 6.0).ratios["partial"])

    alias_ratios = [
        part_bounds(mode53, ifd, rep_d0, 6.0).ratios["aliasing"],
        part_bounds(decay_profile(2, 8.0, 12), box, rep, 6.0).ratios["aliasing"],
        part_bounds(decay_profile(2, 8.0, 12), box,
                    verify_sfc(box, SFParams(s=4.0, alpha=1.0, q=2.0)), 6.0).ratios["aliasing"],
    ]
    elapsed = time.time() - start
    worst = max(max(trig_ratios), max(psum_ratios), max(alias_ratios))
    ok = worst <= RATIO_TOL and elapsed < 120.0
    _verdict(7, ok, f"all theorem ratios <= 1 (worst {worst:.6f}; "
                    f"trig x{len(trig_ratios)}, partial x{len(psum_ratios)}, "
                    f"aliasing x{len(alias_ratios)}; {elapsed:.1f} s)")


def test_acceptance_8_convergence_study(study):
    start = time.time()
    ok = study.rho == 4.0
    ok &= all(r.ratio <= RATIO_TOL for r in study.rows)
    # each part under its own estimate, as each row keeps them
    ok &= all(v <= RATIO_TOL for r in study.rows for v in r.parts.ratios.values())
    ok &= study.fitted_rate is not None and study.fitted_rate <= -4.0 + 0.5
    elapsed = time.time() - start
    ok &= elapsed < 300.0
    _verdict(8, ok, f"B(2,2,2), M_j = 2^j [[2,1],[0,2]], rho=4: ratios "
                    f"{[f'{r.ratio:.1e}' for r in study.rows]}, fitted slope "
                    f"{study.fitted_rate:.2f} <= -3.5")


def test_acceptance_9_sf_order_detection():
    pm = validate_matrix(FIG1)
    phi = periodize(B222, pm, 16, 1e-4)
    ifun = fundamental_interpolant(phi)
    s = sf_order(B222)
    ok = True
    for alpha in (0.0, 1.0):
        claim = s - alpha
        assert claim > 2
        rep = verify_sfc(ifun, SFParams(s=claim, alpha=alpha, q=2.0))
        ok &= rep.passed
    rep_hi = verify_sfc(ifun, SFParams(s=float(s + 4), alpha=0.0, q=2.0))
    ok &= not rep_hi.passed
    _verdict(9, ok, f"verify_sfc passes at orders {s} and {s - 1}, fails at "
                    f"{s + 4} (fitted decay {rep_hi.fitted_order:.2f})")


def test_acceptance_10_incorrect_interpolation():
    pm = validate_matrix([[2, 0], [0, 2]])
    hs = gset_freqs(pm)
    freqs = [tuple(int(x) for x in h) for h in hs]
    coeffs = [1.0 + 0j] * len(freqs)
    alias = tuple((np.array([-1, -1]) + pm.mat_np.T @ np.array([1, 1])).tolist())
    freqs.append(alias)
    coeffs.append(-1.0 + 0j)
    phi = AliasGrid.from_series(FourierSeries(np.array(freqs), np.array(coeffs)), pm, math.inf)

    raised = False
    try:  # the first full walk of the interpolant's grid decides existence
        fundamental_interpolant(phi).series
    except NonExistent:
        raised = True
    ifun = fundamental_interpolant(phi, allow_incorrect=True)
    card = cardinal_residual(ifun)
    ok = (raised and ifun.incorrect_modes == [(-1, -1)] and card < 1e-10)
    _verdict(10, ok, f"vanishing folded class -> NonExistent without the "
                     f"flag; fallback records {ifun.incorrect_modes} and "
                     f"stays cardinal (residual {card:.1e})")
