"""Plane-curve constructions with controlled fundamental groups.

A symbolic calculus over combinatorial plane-curve data: apply
Cremona-style constructions, track degree and singularity multisets,
extend the fundamental group of the complement centrally by a finite
cyclic group, audit the bookkeeping against the self-intersection
identity, replay meridian words on Hirzebruch surfaces, and lift Zariski
pairs into infinite families.
"""

from types import ModuleType as _ModuleType

from .constructions import (
    AuditReport,
    General,
    Mixed,
    Schedule,
    Special,
    Uludag,
    added_singularities,
    apply,
    audit_self_intersection,
    degree_after,
    format_spec,
    kernel_order,
    parse_spec,
)
from .curves import (
    CurveDatum,
    custom_seed,
    h1_from_degrees,
    seed_generic_lines,
    seed_pencil,
    seed_smooth,
)
from .extensions import (
    Cyclic,
    FiniteTagged,
    Free,
    FreeAbelian,
    GroupDescriptor,
    PropertyFlags,
    SplitKind,
    SplitVerdict,
    Tower,
    central_extend,
    direct_sum,
    format_descriptor,
    order_of,
    parse_descriptor,
    propagate_properties,
    props_from_descriptor,
    split_test,
    summands,
)
from .fpgroup import (
    AbelianInvariants,
    Presentation,
    Word,
    abelianization,
    cyclic_quotient_order,
    free_reduce,
    local_group,
    quotient,
    smith_normal_form,
)
from .meridians import (
    MeridianState,
    elem_first,
    elem_second,
    init_state,
    replay,
    trace_lines,
)
from .singularities import (
    SingularityMultiset,
    SingularityType,
    blowdown_type,
    drop,
    format_type,
    multiset,
    parse_type,
)
from .zariski import (
    ZariskiPairRecord,
    combinatorics_equal,
    enumerate_family,
    lift_pair,
    seed_pair,
)

__all__ = [
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
]

__version__ = "0.1.0"
