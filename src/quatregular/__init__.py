"""Numerics for slice regular functions of a quaternionic variable.

Power series with right quaternion coefficients on balls centred at the
origin: star products, slice splitting, sphere constants, regular
translations, slice norms, and a constructive search certifying that a
universal pinched open set fits inside the image of a regular translation.
"""

from .bloch import (
    CoverageReport,
    SearchReport,
    attain,
    bl_search,
    coverage_report,
    fourth_root_series,
    g_series,
    in_oset,
    inscribed_disc_check,
    inscribed_disc_margin,
    oset_slice_curve,
    parseval_mean,
    rho_lemma,
)
from .errors import (
    DomainError,
    NumericalSearchError,
    PreconditionError,
    QuatRegularError,
    SeriesFormatError,
    ZeroFactorSignal,
)
from .norms import (
    NormReport,
    inf_norm_ball,
    mean_value_margin,
    slice_norm,
    sphere_extrema,
    split_norm,
    sup_norm_ball,
)
from .quaternions import (
    ALGEBRA_TOL,
    I,
    J,
    K,
    ONE,
    Quaternion,
    SlicePoint,
    UnitImaginary,
    orthonormal_completion,
    rotate_unit,
    sphere_sample,
    unit_of,
)
from .serialization import dump_series, load_series, series_from_dict, series_to_dict
from .series import (
    Series,
    evaluate,
    regular_conjugate,
    slice_derivative,
    star,
    star_transform_point,
    symmetrization,
)
from .slices import (
    ComplexSeries,
    SpherePair,
    SplitPair,
    embed_complex,
    ext_from_slice,
    regular_translation,
    representation_eval,
    split,
    split_conjugate_check,
    sphere_pair,
    translation_continuity_probe,
)

__version__ = "0.1.0"
