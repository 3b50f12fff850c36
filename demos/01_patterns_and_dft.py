"""
Patterns, generating sets, and the pattern DFT
==============================================

A regular integer matrix M defines a sampling pattern on the torus: the
m = |det M| points M^{-1} g that are distinct modulo Z^2.  The frequency
side is the generating set of M^T.  This script walks through both for
the anisotropic matrix [[8, 3], [0, 8]] and checks the DFT numerically.
"""

import numpy as np

from anisointerp import (
    SampleVector,
    dft_forward,
    dft_inverse,
    fourier_matrix,
    gset_freqs,
    pattern_generators,
    validate_matrix,
)

M = validate_matrix([[8, 3], [0, 8]])
print(f"det M = {M.det}, so the pattern has m = {M.m} points")

# the first few pattern points, as exact rationals
for g in map(tuple, pattern_generators(M)[:5].tolist()):
    print(f"  generator {g} -> node {M.inv_apply(g)}")

# the canonical frequency set of M^T, lexicographically ordered
hs = gset_freqs(M)
print(f"generating set of M^T: {len(hs)} frequencies, "
      f"first rows {hs[:3].tolist()}")

# the DFT matrix is unitary -- the pattern nodes are unisolvent for the
# trigonometric polynomials spanned by the generating set
F = fourier_matrix(M)
print("||F F^H - I||_max =", np.abs(F @ F.conj().T - np.eye(M.m)).max())

# transform a random sample vector and come back
rng = np.random.default_rng(0)
a = SampleVector(rng.standard_normal(M.m) + 0j, M)
roundtrip = dft_inverse(dft_forward(a))
print("roundtrip error   =", np.abs(roundtrip.values - a.values).max())
