"""Substitution dynamics toolkit.

Exact incidence algebra, Pisot classification, contracting-plane
projections, Rauzy fractal point clouds, and the balanced pair algorithm
with its intersection substitution.
"""

from .algebra import (
    CLASSIFICATION_MARGIN,
    MODULAR_FACTOR_CAP,
    Factor,
    IntMatrix,
    IntPolynomial,
    PisotReport,
    Root,
    char_poly,
    classify_pisot,
    dominant_real_root,
    factor_over_z,
    is_irreducible_over_q,
    is_primitive,
    poly_divides,
    poly_exact_div,
    positive_leading,
    reciprocal_poly,
)
from .bpa import (
    BalancedPair,
    BpaLimits,
    CommonPointsResult,
    NonTermination,
    NotFound,
    PairIncidence,
    PairSubstitution,
    ReciprocalFactorReport,
    first_minimal_balanced_pair,
    intersection_cloud,
    minimal_split,
    pair_incidence,
    pair_letter_name,
    reciprocal_factor_report,
    run_bpa,
    verify_common_points,
)
from .errors import (
    DimensionMismatch,
    DivideByZeroPoly,
    IllConditioned,
    IndeterminateClassification,
    MatrixMismatch,
    NegativeEntry,
    NoConvergence,
    NoSeedFound,
    NotBalanced,
    NotPisot,
    NotPrimitive,
    RauzykitError,
    SubstitutionParseError,
    TooManyModularFactors,
)
from .fractal import (
    GridIndex,
    IntersectionEstimate,
    LabeledPointCloud,
    export_csv,
    grid_intersection_estimate,
    hausdorff_distance,
    negate_cells,
    rauzy_cloud,
    reflect_cloud,
    render_svg,
)
from .spectral import ProjectionOperator, SpectralSplit, projection_operator, spectral_split
from .words import (
    Alphabet,
    InfiniteWordStream,
    Substitution,
    Word,
    abelianization,
    find_fixed_point_seed,
    incidence_matrix,
    load_substitution,
    parse_substitution,
    prefix_counts,
    reverse_substitution,
    save_substitution,
    seed_power,
    stream_for,
    substitution_from_dict,
    substitution_to_dict,
)

__version__ = "0.1.0"
