"""Finite tight frames: exterior-algebra identities and zonotope volume maximization."""

from .frames import (
    EmptyComplementError,
    Frame,
    InvalidFrameError,
    NotTightError,
    TightFrame,
    complement_frame,
    frame_operator,
    gram_projection,
    is_tight,
    lift_to_basis,
    mercedes_frame,
    random_tight_frame,
    whiten,
)
from .exterior import (
    Form,
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
)
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
    bounds,
    first_order_residual,
    hyperplane_projection_volume,
    mcmullen_check,
    sign_vector,
    unit_ball_volume,
    volume,
)

__version__ = "0.1.0"
