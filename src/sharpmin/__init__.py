"""Sampled verification of first-order variational analysis on manifolds,
with a Cheeger-type graph clustering pipeline on the Stiefel manifold."""

from .manifolds import (
    GeometryError,
    LemmaReport,
    ManifoldDescriptor,
    Point,
    Tangent,
    curvature_norm,
    euclidean,
    sphere,
    stiefel,
    tangent_project,
    verify_local_distance_lemma,
)
from .cones import (
    PatternCone,
    RefutationVerdict,
    Schedule,
    check_dirderiv_identity,
    check_dist_subdiff_identity,
    contingent_cone_distance,
    contingent_derivative,
    cross_validate_pattern_cone,
    frechet_normal_refute,
    frechet_subdiff_refute,
    stiefel_plus_normal_cone,
    stiefel_plus_sampler,
)
from .wsm import (
    WsmInstance,
    WsmVerdict,
    check_dual_nc,
    check_primal_nc,
    estimate_modulus,
    verify_wsm_sampled,
)
from .cheeger import (
    BudgetExceededError,
    ClusterReport,
    Graph,
    GraphFormatError,
    SolverConfig,
    SubPartition,
    cheeger_objective,
    cut_boundary,
    exact_cheeger,
    grad_norm_l1,
    lipschitz_bound,
    load_graph,
    penalty_h,
    round_solution,
    solve_relaxation,
    wsm_penalty_check,
)

__version__ = "0.1.0"
