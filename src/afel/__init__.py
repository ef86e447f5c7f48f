"""afel: exact mixed volumes, mixed area measures and Alexandrov-Fenchel
equality cases for low-dimensional polytopes."""

from .area_measure import (
    ArcSupport,
    AtomicMeasure,
    ball_measure_numeric,
    ball_polytope,
    ball_support_arcs,
    mixed_area_diff,
    mixed_area_measure,
)
from .afi import (
    AFIReport,
    afi_check,
    degenerate_branch,
    equality_by_measure,
    equality_by_support,
    gafi_check,
    is_homothetic,
    linearity_equivalence,
)
from .criticality import (
    CriticalityReport,
    check_append_rules,
    classify,
    positivity_crosscheck,
)
from .errors import AfelError, PreconditionError, TheoryViolationError
from .geometry import (
    Direction,
    SupportDiff,
    VPolytope,
    convex_hull,
    diameter_sq,
    dim_pspan,
    hausdorff_distance_sq,
    is_summand,
    minkowski_difference,
    minkowski_sum,
    minkowski_sum_many,
    scale_translate,
    segment,
    singleton,
    support_set,
    support_value,
    translate,
)
from .macroid import (
    AdmissibilityReport,
    FaceCensus,
    admissibility_check,
    ktope_vertex_growth,
    partial_sum_census,
    segment_summand_max,
    zonotope_kernel,
)
from .mixed_volume import (
    mixed_volume,
    mixed_volume_diff,
    mixed_volume_interpolated,
    mixed_volume_via_measure,
    volume,
)
from .numerics import (
    FloatWithError,
    mean_width_3d,
    sphere_surface_area,
    steiner_point_3d,
    unit_ball_volume,
)
from .polyoid import (
    ApproxMeasure,
    BodyMeasure,
    body_of_measure,
    diam_sum_check,
    hexagon_fixture,
    is_k_tope,
    mpos_sample,
    pspan_containment,
    steiner_normalize,
    support_pushforward,
    verify_generating,
)

__version__ = "0.1.0"
