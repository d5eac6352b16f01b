"""pinchlab: pointwise curvature-pinching estimates, tensor identities and
functional optimization for algebraic curvature tensors."""

__version__ = "0.1.0"

from .curvature import (  # noqa: F401
    AlgCurvTensor,
    CurvatureInvariants,
    Plane,
    constant_curvature,
    invariants,
    random_curvature,
    ricci,
    scalar,
    sectional,
    traceless_ricci,
)
from .ftensor import (  # noqa: F401
    FCoefficients,
    CLAIMED_POINT,
    expansion_campaign,
    f_norm_expansion,
    f_tensor,
    optimal_b,
    optimize_q2,
    q1,
    q2,
    q2_claimed_value,
    s_coefficient,
    sample_gradient_model,
)
from .minsec import (  # noqa: F401
    DegenerateEpsError,
    dual_min_sectional,
    min_sectional,
    shift_to_pinching,
)
from .models import (  # noqa: F401
    ModelGeometry,
    ThresholdReport,
    literature_constants,
    literature_table,
    model,
    pinching_threshold,
    soliton_identity_check,
)
from .profiles import (  # noqa: F401
    CampaignConfig,
    UncertifiedSourceError,
    check_estimates,
    eigen_gap_lemma,
    equno_identity,
    estimate_coefficients,
    mc_campaign,
)
from .scalars import FLOAT, RATIONAL, parse_scalar  # noqa: F401
