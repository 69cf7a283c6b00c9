"""Dimension estimation for time-varying graph directed contraction systems.

The package estimates the Hausdorff dimension of the limit set of a
schedule of conformal contractions along a time-indexed multigraph: it
evaluates partition functions over admissible words as float brackets (not
yet rounded outward on every path), brackets the zero-crossing of the
finite-horizon pressure in the exponent t, and reports finite-horizon checks
of the structural hypotheses under which that crossing equals the dimension
(fitted tail rates; the open set condition at time 1 only).  A box-counting
slope of a limit-set sample, with its regression stderr, is reported beside
the bracket; nothing compares the two.
"""

from .errors import (
    BowendimError,
    BracketingError,
    BudgetError,
    BuildError,
    CertificationError,
    ConfigurationError,
    InputError,
    IntegrityError,
    SchemaError,
    UnsupportedError,
)
from .geometry import (
    BoxCountFit,
    DiameterReport,
    LevelCover,
    OscReport,
    PointCloud,
    box_counting_dim,
    diameter_diagnostics,
    level_cover,
    sample_limit_set,
    verify_osc,
)
from .maps import (
    Contraction,
    MoebiusInverse,
    NormBracket,
    Similarity,
    Space,
    compose_norm,
    contraction_eta,
    continuants,
    disk,
    distortion_constant,
    image_region,
    interval,
)
from .symbolic import (
    GraphSchedule,
    GrowthStats,
    Letter,
    PrimitivityCertificate,
    Word,
    certify_primitivity,
    count_words,
    find_primitivity,
    growth_stats,
    is_admissible,
    subexp_diagnostic,
)
from .system import SystemSpec, validate_system
from .systems import (
    AscendingSpec,
    BlockSubsystem,
    EdgeSpec,
    EllipticModelReport,
    autonomous_closure,
    build_ascending,
    build_cf_system,
    build_gdms,
    build_similarity_system,
    elliptic_lower_bound,
    extract_subsystem_g_bounded,
    gaussian_lattice_poles,
    reblock_one_primitive,
    reblock_pinched,
)
from .thermo import (
    ABDimensionBounds,
    BalancingReport,
    DimensionResult,
    HypothesisReport,
    MeasureTrendReport,
    PartitionValue,
    PressureEstimate,
    PSeriesTail,
    ThetaBounds,
    ab_dimension_bounds,
    balancing_class,
    bowen_dimension,
    classify_rho,
    evenly_varying_check,
    hausdorff_measure_trend,
    hypothesis_report,
    partition,
    pressure_estimate,
    system_theta,
    theta_bounds,
)

__version__ = "0.1.0"
