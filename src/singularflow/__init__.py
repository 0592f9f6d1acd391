"""Blowup and continuation toolkit for ODEs with one non-Lipschitz point.

The pipeline: describe a self-similar singular field (fields), follow its
collapse in renormalized variables (renorm), classify the attractors of the
direction flow (attractors), smooth the core at scale nu (regularize), and
compute which continuation past blowup the vanishing-regularization limit
selects (continuation).
"""

from .attractors import (
    AttractorInfo,
    EscapeResult,
    catalog_attractors,
    find_fixed_points,
    find_limit_cycle,
    rescaled_escape,
    tau_entry,
)
from .config import RunConfig, emit_config, parse_config
from .continuation import (
    ContinuationFamily,
    SweepReport,
    blowup_time_on_ray,
    build_cycle_family,
    estimate_phase,
    fixed_point_solutions,
    geometric_sequence,
    inviscid_sweep,
    residual_check,
    trivial_rest_family,
)
from .errors import (
    ConfigError,
    LimitCycleNotFound,
    NonPositiveMean,
    NotBlowingUp,
    NotUnitVector,
    OriginEvaluation,
    OutOfDomain,
    OutOfRange,
    SignError,
    SingularBlend,
    SingularFlowError,
    StepFailure,
    UnknownField,
    UnknownFigure,
)
from .fields import (
    BUILTIN_NAMES,
    SingularField,
    SphericalDecomposition,
    builtin_field,
    decompose,
    eval_field,
    integrate_ideal,
    sphere_jacobian,
)
from .integrators import (
    IntegrationOptions,
    SolverStats,
    Trajectory,
    estimate_blowup_time,
    integrate,
)
from .regularize import (
    RegularizedField,
    SmoothnessReport,
    check_smoothness,
    eval_regularized,
    integrate_regularized,
    make_polynomial_blend,
    make_preset_1d,
)
from .renorm import (
    BlowupVerdict,
    RadialAverages,
    RenormTrajectory,
    classify_blowup,
    physical_time,
    radial_averages,
    reconstruct,
    renorm_integrate,
)

__version__ = "0.1.0"
