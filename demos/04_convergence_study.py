"""
Empirical validation of the interpolation-error bound
=====================================================

Dilating the pattern matrix, M_j = 2^j M_0, doubles ||M||_2 per level,
so the combined error bound C_rho ||M_j||^{-rho} ||f|A^mu_q|| predicts a
log-log slope of -rho.  For B_(2,2,2) with alpha = 0, mu = 6, q = 2 the
rate is rho = min{s, mu - alpha} = 4.  The study measures the actual
weighted-norm error at each scale and checks the one-sided inequality.
"""

from anisointerp import (
    BoxSplineSpec,
    ExperimentSpec,
    convergence_study,
    decay_profile,
    report_to_csv,
    report_to_svg,
    validate_matrix,
)

spec = ExperimentSpec(
    base_matrix=validate_matrix([[2, 1], [0, 2]]),
    scales=(0, 1, 2, 3),
    test_function=decay_profile(2, 9.0, 16),
    alpha=0.0,
    mu=6.0,
    q=2.0,
    kernel=BoxSplineSpec(2, (2, 2, 2)),
    radius=16,
    tail_eps=1e-4,
)

report = convergence_study(spec)
print(f"rho = {report.rho}, fitted log-log slope = {report.fitted_rate:.3f}")
for row in report.rows:
    print(f"  j={row.j}  m={row.m:4d}  ||M||={row.norm2:7.3f}  "
          f"error={row.error:.3e}  bound={row.bound:.3e}  "
          f"ratio={row.ratio:.2e}")
print("verdict:", "all ratios <= 1" if report.verdict else "VIOLATION")

report_to_csv(report, "convergence.csv")
report_to_svg(report, "convergence.svg")
print("wrote convergence.csv and convergence.svg")
