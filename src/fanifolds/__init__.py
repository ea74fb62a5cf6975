"""Exact-arithmetic toolkit for fanifolds: exit diagrams of toric fans.

A fanifold glues toric data along exit arrows: each stratum carries a fan
in its own lattice, and each arrow identifies a star quotient of the source
fan inside the target.  The package computes both sides of that picture --
rings of sections of the glued toric space, and conic Lagrangian skeleta
with their handle plans -- entirely over the integers.
"""

from .cones import Cone, product_cone, zero_cone
from .fanifold import (
    Arrow,
    Fanifold,
    Stratum,
    ValidationReport,
    delete_strata,
    disjoint_union,
    from_fan,
    manifold,
    product,
    sphere_section,
    suspension_boundary,
    unrolled_closure,
)
from .fans import (
    Fan,
    FanQuotient,
    RefinesResult,
    ResolveResult,
    StackyFan,
    face_closure,
    quotient_fan,
    refines,
    resolve_to_smooth,
    stellar_subdivision,
)
from .bmodel import (
    SectionCensus,
    SubalgebraReport,
    UFunctorDescriptor,
    chart_diagram,
    components,
    full_diagram,
    limit_census,
    subalgebra_check,
    u_functor,
)
from .skeleton import (
    Handle,
    HandlePlan,
    SkeletonModel,
    SkeletonStratum,
    euler_characteristic_c,
    handle_plan,
    skeleton_model,
)
from .mesh import export_mesh
from .mirror import (
    MirrorDictionary,
    RestrictionPair,
    mirror_dictionary,
    restriction_pairs,
)
from .files import load_fanifold, save_fanifold
from .examples import EXAMPLES

__version__ = "0.1.0"
