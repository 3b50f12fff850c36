"""Periodic interpolation on integer-matrix patterns of the d-torus.

Exact pattern / generating-set arithmetic, the pattern discrete Fourier
transform, ellipsoidal weight spaces, fundamental interpolants from
periodized box splines, Strang-Fix condition verification, and empirical
validation of the interpolation-error bounds.
"""

from .bounds import (
    BoundReport,
    ErrorBreakdown,
    ExperimentSpec,
    PartBounds,
    convergence_study,
    decay_profile,
    interp_error,
    part_bounds,
    report_to_csv,
    report_to_svg,
)
from .boxspline import (
    BoxSplineSpec,
    periodization_tail,
    periodize,
    sf_order,
)
from .errors import (
    AnisoError,
    ConvergenceFailure,
    DivergentSeries,
    InsufficientSupport,
    NonExistent,
    SingularMatrix,
    TailTooLarge,
)
from .fspaces import (
    a_norm,
    lq_norm,
    weights_many,
)
from .interp import (
    FundamentalInterpolant,
    cardinal_residual,
    dirichlet_kernel,
    evaluate_at_nodes,
    fundamental_interpolant,
    interpolation_operator,
    translate,
)
from .intlat import (
    PatternMatrix,
    reduce_freq,
    reduce_freq_many,
    validate_matrix,
)
from .ptransform import (
    AliasGrid,
    CoeffVector,
    FourierSeries,
    SampleVector,
    alias_fold,
    dft_forward,
    dft_inverse,
    discrete_coeffs,
    fourier_matrix,
    gset_freqs,
    pattern_generators,
    series_to_csv,
)
from .spectral import inv_t_apply, is_expanding, spectral_data
from .strangfix import (
    SFParams,
    SFReport,
    c_rho,
    gamma_sm,
    verify_sfc,
)

__version__ = "0.1.0"
