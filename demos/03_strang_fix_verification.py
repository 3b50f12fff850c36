"""
Verifying the ellipsoidal periodic Strang-Fix conditions
========================================================

The reproduction quality of a fundamental interpolant is quantified by
decay conditions on its Fourier coefficients.  B_(2,2,2) satisfies them
with order s = 4; the verifier confirms this, reports the constant
gamma_SF, and refutes an inflated order claim via the fitted decay
exponent of |1 - m c_h|.
"""

from anisointerp import (
    BoxSplineSpec,
    SFParams,
    dirichlet_kernel,
    fundamental_interpolant,
    periodize,
    sf_order,
    validate_matrix,
    verify_sfc,
)

M = validate_matrix([[8, 3], [0, 8]])
spline = BoxSplineSpec(2, (2, 2, 2))
s = sf_order(spline)
print(f"reproduction order of B{spline.p}: s = {s}")

# the constants are summed over the shells ||z||_inf <= 16 that the
# periodization stores (radius 16, the window of the kernel grid, which the
# interpolant keeps with the grid's pattern M; tail bound 1e-4)
phi = periodize(spline, M, 16, 1e-4)
ifun = fundamental_interpolant(phi)

for claim in (s, s + 4):
    rep = verify_sfc(ifun, SFParams(s=float(claim), alpha=0.0, q=2.0))
    print(f"claimed order {claim}: pass={rep.passed}, "
          f"gamma_SF={rep.gamma_sf:.4g}, fitted decay={rep.fitted_order:.2f}")

# gamma_IP depends on alpha and q only, so the last report carries it
print("gamma_IP =", rep.gamma_ip)

# the Dirichlet kernel reproduces every T_M exactly, so it passes any
# order with gamma_SF = 0; its window is infinite and its sums are exact
ifd = fundamental_interpolant(dirichlet_kernel(M))
rep = verify_sfc(ifd, SFParams(s=10.0, alpha=0.0, q=2.0))
print(f"Dirichlet at order 10: pass={rep.passed}, gamma_SF={rep.gamma_sf}")
