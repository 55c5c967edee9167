"""Combinatorial curve data and the seed catalog.

A :class:`CurveDatum` is the combinatorial shadow of a plane projective
curve: component degrees, a singularity multiset, a fundamental-group
descriptor for the complement, property flags, and a provenance log.  No
defining polynomials are stored and no geometric realizability is checked.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb

from .extensions import (
    Cyclic,
    FreeAbelian,
    Free,
    GroupDescriptor,
    PropertyFlags,
    UNKNOWN_PROPS,
    format_descriptor,
    props_from_descriptor,
)
from .fpgroup import AbelianInvariants, _require_ints, smith_normal_form
from .singularities import (
    SingularityMultiset,
    SingularityType,
    multiset,
)


def _assert_detail(asserted: PropertyFlags, reason: str) -> str:
    flags = ", ".join(f"{k}={v}" for k, v in asserted.known().items())
    return f"{flags} ({reason})"


@dataclass(frozen=True)
class LogEntry:
    seq: int
    op: str
    detail: str


@dataclass(frozen=True)
class CurveDatum:
    component_degrees: tuple[int, ...]
    singularities: SingularityMultiset
    group: GroupDescriptor
    props: PropertyFlags
    family_tag: str | None = None
    log: tuple[LogEntry, ...] = ()

    def __post_init__(self):
        degrees = tuple(self.component_degrees)
        _require_ints("component degrees", degrees, 1)
        if not degrees:
            raise ValueError("component degrees must be a nonempty list of positive integers")
        object.__setattr__(self, "component_degrees", degrees)

    @property
    def degree(self) -> int:
        return sum(self.component_degrees)

    @property
    def irreducible(self) -> bool:
        return len(self.component_degrees) == 1

    def logged(self, op: str, detail: str) -> "CurveDatum":
        entry = LogEntry(len(self.log), op, detail)
        return replace(self, log=self.log + (entry,))

    def with_asserted_props(self, asserted: PropertyFlags, reason: str) -> "CurveDatum":
        out = replace(self, props=self.props.merged(asserted))
        return out.logged("assert", _assert_detail(asserted, reason))

    def __str__(self) -> str:
        comps = ",".join(str(d) for d in self.component_degrees)
        return (
            f"degree {self.degree} curve (components {comps}), "
            f"singularities {self.singularities}, group {format_descriptor(self.group)}"
        )


def _seed(kind: str, degrees: tuple[int, ...], types: list[SingularityType], group: GroupDescriptor, detail: str) -> CurveDatum:
    datum = CurveDatum(
        component_degrees=degrees,
        singularities=multiset(types),
        group=group,
        props=props_from_descriptor(group),
        family_tag=kind,
    )
    return datum.logged("seed", f"{kind} {detail} group={format_descriptor(group)}")


def seed_smooth(degree: int) -> CurveDatum:
    """A smooth irreducible curve of the given degree.

    Its complement has cyclic fundamental group Z/degree (trivial for a
    line).
    """
    _require_ints("smooth curve degrees", (degree,), 1)
    return _seed("smooth", (degree,), [], Cyclic(degree), f"degree={degree}")


def seed_pencil(lines: int) -> CurveDatum:
    """m lines through a single point: one ordinary m-fold point [m], free
    fundamental group of rank m-1."""
    _require_ints("pencil line counts", (lines,), 2)
    return _seed("pencil", (1,) * lines, [SingularityType((lines,))], Free(lines - 1), f"lines={lines}")


def seed_generic_lines(lines: int) -> CurveDatum:
    """m lines in general position: C(m,2) nodes, free abelian group of
    rank m-1.  Two generic lines coincide with the two-line pencil."""
    _require_ints("generic line counts", (lines,), 2)
    if lines == 2:
        return seed_pencil(2)
    nodes = [SingularityType((2,))] * comb(lines, 2)
    return _seed("generic-lines", (1,) * lines, nodes, FreeAbelian(lines - 1), f"lines={lines}")


def custom_seed(
    component_degrees,
    singularities: SingularityMultiset,
    group: GroupDescriptor,
    asserted_props: PropertyFlags | None = None,
    family_tag: str | None = None,
) -> CurveDatum:
    """A user-supplied curve datum.  Properties start all-unknown; any
    asserted flags are merged in and recorded in the log."""
    datum = CurveDatum(
        component_degrees=tuple(component_degrees),
        singularities=singularities,
        group=group,
        props=UNKNOWN_PROPS,
        family_tag=family_tag,
    )
    datum = datum.logged("seed", f"custom degrees={list(datum.component_degrees)} group={format_descriptor(datum.group)}")
    if asserted_props is not None:
        datum = datum.with_asserted_props(asserted_props, "user-asserted seed properties")
    return datum


def h1_from_degrees(component_degrees) -> AbelianInvariants:
    """First homology of the complement from component degrees alone:
    Z^r modulo the single relation (d1, ..., dr)."""
    degrees = list(component_degrees)
    _require_ints("component degrees", degrees, 1)
    if not degrees:
        raise ValueError("component degrees must be positive")
    factors = smith_normal_form([degrees])
    torsion = tuple(d for d in factors if d > 1)
    return AbelianInvariants(len(degrees) - len(factors), torsion)
