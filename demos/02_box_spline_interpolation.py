"""
Interpolating node data with a periodized box spline
====================================================

The 3-directional box spline B_(2,2,2) has the Fourier transform
sinc(xi_1/2)^2 sinc(xi_2/2)^2 sinc((xi_1+xi_2)/2)^2.  Periodizing it to
the pattern of M gives a translate space whose cardinal function (the
fundamental interpolant) interpolates arbitrary node data.
"""

import numpy as np

from anisointerp import (
    BoxSplineSpec,
    SampleVector,
    alias_fold,
    cardinal_residual,
    evaluate_at_nodes,
    fundamental_interpolant,
    interpolation_operator,
    periodize,
    validate_matrix,
)

M = validate_matrix([[2, 1], [0, 2]])
spline = BoxSplineSpec(2, (2, 2, 2))

# truncate the periodization at ||z||_inf <= 16 aliasing shells (radius
# 16); the analytic tail bound certifies that what was dropped sums to at
# most 1e-4 per class (tail_eps), or periodize raises TailTooLarge
phi = periodize(spline, M, 16, 1e-4)
print(f"periodized spline carries {len(phi)} Fourier modes")

# phi is a kernel grid: it carries its pattern M, so the interpolant
# needs nothing else
ifun = fundamental_interpolant(phi)

# two sanity checks of the cardinal function: its folded coefficients
# are exactly 1/m, and it is 1 at the origin node, 0 at the others
fold = alias_fold(ifun.series, M).values
print("max |fold - 1/m|  =", np.abs(fold - 1.0 / M.m).max())
print("cardinal residual =", cardinal_residual(ifun))

# interpolate random data at the m nodes
rng = np.random.default_rng(1)
data = rng.standard_normal(M.m)
series = interpolation_operator(SampleVector(data + 0j, M), ifun)
recovered = evaluate_at_nodes(series, M).real
print("node reproduction =", np.abs(recovered - data).max())
