"""Translation numbers for bundle automorphisms over tori.

The library models principal fiber bundles over T^n whose monodromy is a
fixed first-cohomology class, and computes the translation-number zoo
attached to their automorphisms: pointwise and mean limits, the two-cocycle
obstruction and its coboundary/additivity identities, homological winding of
isotopies, seminorm-based undistortion certificates with exact word-norm
experiments, and the fiber class of zero-Euler-number Seifert data.

Heavy orbit/grid loops run through numba when it is importable; set
TRANSNUM_NO_NUMBA=1 to run the same kernel source interpreted, on plain
Python floats (same results, slower).
"""

__version__ = "0.1.0"

from .errors import (
    CertificateUnavailable,
    ClassNotPreserved,
    DimensionMismatch,
    NonIntegerFiberError,
    NonzeroEulerNumber,
    NotPeriodicError,
    PreconditionError,
    SearchBudgetExceeded,
    TransnumError,
    ValidationError,
)
from .torus import (
    BundlePoint,
    CohomologyClass,
    Coefficients,
    EquivarianceReport,
    LiftedMap,
    canonicalize,
    check_equivariance,
    identity_lift,
    preserves_class,
    reduce_point,
    require_preserves_class,
    theta,
    torus_distance,
)
from .families import (
    TrigPolynomial,
    arnold_circle,
    rigid_rotation,
    sinusoidal_shear,
    skew_translation,
    torus_affine,
)
from .dynamics import (
    VERDICT_CONVERGED,
    VERDICT_EXACT_CLOSED_FORM,
    VERDICT_EXACT_LOCKED,
    VERDICT_EXACT_PERIODIC,
    VERDICT_NOT_CONVERGED,
    BundleAutomorphism,
    CochainPerturbation,
    ConvergenceReport,
    InvariantMeasure,
    MeanReport,
    TongueProof,
    fiber_translation,
    local_translation_number,
    local_translation_numbers,
    mean_translation_number,
    measure_invariance_residual,
    periodic_rot,
    perturbed_rho,
    perturbed_rho_power_average,
    rho,
    rho_many,
    rho_power_average,
)
from .galkedra import (
    ResidualSuite,
    SplittingReport,
    coboundary_residual,
    coboundary_residual_suite,
    cocycle_residual,
    cocycle_residual_suite,
    gal_kedra,
    gal_kedra_many,
    gal_kedra_quadrature,
    quasimorphism_defect,
    splitting_check,
)
from .isotopy import (
    Isotopy,
    arc_of,
    delta_phi,
    homological_translation,
    induced_bundle_map,
    mean_homological_translation,
    shear_isotopy,
    skew_isotopy,
    straight_isotopy,
)
from .distortion import (
    MODE_CERTIFIED,
    MODE_ESTIMATE,
    ExactAffineAutomorphism,
    SeminormReport,
    TranslationLengthReport,
    UndistortionCertificate,
    ball_norms,
    seminorm,
    translation_length_estimate,
    undistortion_certificate,
    word_norm_bfs,
)
from .seifert import (
    FiberClassHomomorphism,
    RelationConvention,
    SeifertData,
    construct_h1_class,
    euler_number,
    random_zero_euler_data,
    verify_homomorphism,
)

__all__ = [name for name in dir() if not name.startswith("_")]
