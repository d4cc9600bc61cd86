"""Finite tight frames: exterior-algebra identities and zonotope volume maximization."""

from .frames import (
    EmptyComplementError,
    Frame,
    InvalidFrameError,
    NotTightError,
    TightFrame,
    complement_frame,
    frame_distance,
    frame_from_json,
    frame_operator,
    frame_to_json,
    gram_projection,
    is_tight,
    lift_to_basis,
    mercedes_frame,
    random_tight_frame,
    whiten,
)
from .exterior import (
    Form,
    MinorVector,
    compound_matrix,
    cross_product,
    form_inner,
    hodge_star,
    lagrange_residual,
    minor_vector,
    subset_minors,
    unit_decomposition_residual,
    verify_cross_tight,
    volume_identity_residual,
    wedge_coordinates,
    wedge_forms,
)
from .multiindex import MultiIndex, merge_sign, multi_indices, rank, unrank
from .optimize import (
    AscentConfig,
    OptimizationResult,
    ascend,
    ascent_direction,
    determinant_expansion_check,
    objective,
    ratio_check,
    retract,
    stability_lower_bound,
    stability_scan,
)
from .zonotope import (
    DegenerateFrameError,
    SignVector,
    VolumeReport,
    bounds,
    first_order_residual,
    hyperplane_projection_volume,
    mcmullen_check,
    sign_vector,
    unit_ball_volume,
    volume,
    volume_report,
)

__version__ = "0.1.0"
