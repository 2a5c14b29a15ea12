"""Verification toolkit for local graph representations of immersed manifolds.

Extract graph functions over affine tangent planes, measure the maximal
radii at which continuous and differentiable graph bounds hold, and check
the height-to-slope regularity statements on a zoo of analytic immersions.
"""

__version__ = "0.1.0"

from .errors import (
    BoundaryEscape,
    GeometryError,
    Inconclusive,
    InvalidParams,
    LeftRegion,
    MonotonicityViolation,
    NoConvergence,
    NotAGraph,
    PreconditionViolated,
    ProbeHypothesisFailed,
    RankDeficient,
    UnknownEntry,
)
from .extractor import (
    ComponentRegion,
    FrameContext,
    GraphSample,
    NormEstimates,
    component,
    extract,
    norms,
    solve_height,
)
from .geometry import (
    GraphMatrixResult,
    Isometry,
    Subspace,
    graph_matrix_from_probes,
    is_admissible,
    make_admissible_isometry,
    randomize_admissible,
    random_rotation,
)
from .radius import (
    KIND_C0,
    KIND_C1,
    PropertyVerdict,
    RadiusReport,
    Witness,
    is_c0_r_lambda,
    is_r_lambda,
    max_radius,
)
from .theorems import (
    CertifiedDuBound,
    CounterexampleReport,
    TheoremVerdict,
    analyze_counterexample,
    certify_du_bound,
    check_distance_bound,
    check_enlargement,
    check_inclusion,
    iteration_constant_check,
    lambda_cap,
    verify_main_theorem,
)
from .zoo import (
    Chart,
    ParamImmersion,
    ParamPoint,
    ZOO,
    ZooEntry,
    scale_immersion,
    tangent_space,
    transform_immersion,
    zoo_build,
)

__all__ = [name for name in dir() if not name.startswith("_")]
