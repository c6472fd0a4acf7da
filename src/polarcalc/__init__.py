"""Exact polar calculus and classical enumerative invariants in P^3."""

from .polyring import (
    INFINITY,
    QQ,
    DomainError,
    ParseError,
    Poly,
    PolyRing,
    PrimeField,
    ProjPoint,
    determinant,
    resultant,
    valuation,
)
from .polarity import (
    LineContactReport,
    TangentConeReport,
    line_multiplicity,
    polar,
    polar_kic,
    tangent_cone,
    tangent_hyperplane,
)
from .curvature import (
    FundamentalForm,
    SurfacePointClass,
    SurfacePointKind,
    classify_surface_point,
    hessian_determinant,
    second_fundamental_form,
)
from .flecnodal import (
    ContactOrder,
    CovariantPair,
    flecnodal_covariants,
    flecnodal_member,
    max_contact_order,
)
from .localmodels import (
    GAMMA,
    SWALLOWTAIL,
    TRIPLE_T,
    contact_order,
    stratum_check,
    stratum_model,
    tacnode_discriminant,
)
from .plucker import (
    DevelopableCharacters,
    PlaneCurveCharacters,
    RankProfile,
    complete_developable,
    complete_plane_characters,
    dejonquieres_count,
    rank_profile,
    solve_from_genus,
    verify_plucker_relations,
)
from .invariants import (
    DualSurfaceTable,
    ProjectedSurfaceTable,
    branch_curve_characters,
    dual_surface_table,
    projected_surface_table,
    symbolic_degree,
    verify_dual_relations,
)

__version__ = "0.1.0"
