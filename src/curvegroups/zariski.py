"""Zariski-pair bookkeeping and the family-generating lift.

A Zariski pair is two curves with the same combinatorics (degree, component
degrees, singularity multiset) whose complements are distinguished by some
invariant; the only distinguisher tracked here is cyclic-versus-noncyclic
fundamental group.  Lifting applies one construction to both sides: the
combinatorics stay equal, the cyclic side stays cyclic, and the non-cyclic
side stays non-cyclic because a central extension of a non-cyclic group is
never cyclic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constructions import (
    General,
    Schedule,
    _combinatorial_step,
    _group_step,
    added_singularities,
    format_spec,
)
from .curves import CurveDatum, _assert_detail
from .extensions import GroupDescriptor, PropertyFlags, props_from_descriptor, summands
from .fpgroup import _require_ints

DISTINGUISHER_CYCLIC = "cyclic-vs-noncyclic"
DISTINGUISHER_NONE = "none"

_NONCYCLIC = PropertyFlags(cyclic=False)
_NONCYCLIC_DETAIL = _assert_detail(_NONCYCLIC, "a central extension of a non-cyclic group is never cyclic")


@dataclass(frozen=True)
class ZariskiPairRecord:
    left: CurveDatum
    right: CurveDatum
    combinatorics_equal: bool
    distinguisher: str
    generation: int
    parent_spec: Schedule | None = None

    def __post_init__(self):
        _require_ints("generations", (self.generation,), 0)
        if self.distinguisher != DISTINGUISHER_NONE and not self.combinatorics_equal:
            raise ValueError("a distinguisher requires equal combinatorics")


def combinatorics_equal(a: CurveDatum, b: CurveDatum) -> bool:
    """Equal total degree, component-degree multiset, and singularity
    multiset; groups and flags are ignored."""
    return (
        a.degree == b.degree
        and sorted(a.component_degrees) == sorted(b.component_degrees)
        and a.singularities == b.singularities
    )


def seed_pair(left: CurveDatum, right: CurveDatum, distinguisher: str = DISTINGUISHER_CYCLIC) -> ZariskiPairRecord:
    """Generation-0 record for a user-asserted pair."""
    equal = combinatorics_equal(left, right)
    return ZariskiPairRecord(
        left=left,
        right=right,
        combinatorics_equal=equal,
        distinguisher=distinguisher if equal else DISTINGUISHER_NONE,
        generation=0,
    )


def certified_noncyclic(curve: CurveDatum) -> bool:
    """True when the curve's group is certifiably not cyclic: its flags say
    so (directly or via nonabelian), or its descriptor is a recognized
    non-cyclic form.  Never inferred from an arbitrary presentation."""
    if curve.props.cyclic is False:
        return True
    derived = props_from_descriptor(curve.group)
    return derived.cyclic is False


def _finite_cyclic(g: GroupDescriptor) -> bool:
    return [kind for kind, _, _ in summands(g)] == ["cyclic"]


def _check_liftable(pair: ZariskiPairRecord) -> None:
    if not pair.combinatorics_equal:
        raise ValueError("lift requires equal combinatorics on the seed pair")
    if not pair.left.irreducible:
        raise ValueError("lift requires an irreducible left curve")
    if not pair.right.irreducible:
        raise ValueError("lift requires an irreducible right curve")
    if not _finite_cyclic(pair.left.group):
        raise ValueError("lift requires a finite cyclic group on the left curve")
    if not certified_noncyclic(pair.right):
        raise ValueError("lift requires a certified non-cyclic group on the right curve")


def lift_pair(pair: ZariskiPairRecord, spec: Schedule) -> ZariskiPairRecord:
    """Apply one construction to both curves of a pair.

    Requires equal combinatorics, irreducibility on both sides, a finite
    cyclic group on the left, and certified non-cyclicity on the right.
    The result is again a distinguished pair, one generation deeper.
    """
    _check_liftable(pair)
    return _lift(pair, spec, {})


def _lift(pair: ZariskiPairRecord, spec: Schedule, steps: dict) -> ZariskiPairRecord:
    # ``pair`` has passed _check_liftable; ``steps`` maps a kernel order N to
    # both sides' group steps for this pair, and is filled on first use
    n = spec.kernel_order
    if n not in steps:
        left_step = _group_step(pair.left, n)
        right_group, right_props = _group_step(pair.right, n)
        steps[n] = left_step, (right_group, right_props.merged(_NONCYCLIC))
    left_step, right_step = steps[n]
    # equal combinatorics give both sides one degree, hence one added multiset
    added = added_singularities(pair.left.degree, spec)
    left = _combinatorial_step(pair.left, spec, added, *left_step)
    right = _combinatorial_step(pair.right, spec, added, *right_step).logged("assert", _NONCYCLIC_DETAIL)
    if not combinatorics_equal(left, right):
        raise AssertionError("lift produced unequal combinatorics")
    if not _finite_cyclic(left.group):
        raise AssertionError("lift of a cyclic irreducible curve must stay cyclic")
    return ZariskiPairRecord(
        left=left,
        right=right,
        combinatorics_equal=True,
        distinguisher=DISTINGUISHER_CYCLIC,
        generation=pair.generation + 1,
        parent_spec=spec,
    )


def _partitions_up_to(bound: int):
    """Nondecreasing tuples of positive integers with sum <= ``bound`` (one
    per partition of 1..bound), ordered by (length, tuple)."""

    def extend(prefix, low, remaining, slots):
        if slots == 0:
            yield prefix
            return
        for v in range(low, remaining // slots + 1):
            yield from extend(prefix + (v,), v, remaining - v, slots - 1)

    for length in range(1, bound + 1):
        yield from extend((), 1, bound, length)


def enumerate_family(pair: ZariskiPairRecord, bound: int) -> list[ZariskiPairRecord]:
    """All one-step lifts by general constructions, one record per partition
    of 1..``bound`` (sum over s <= bound of p(s) records), in (length, tuple)
    order of the nondecreasing count tuples.

    The construction's singularities do not depend on the order of the
    counts, so each partition stands for all of its permutations, and
    distinct partitions give distinct combinatorics.

    Each record equals ``lift_pair(pair, General(counts))``, but the work
    that does not depend on the counts is done once.  The pair is checked
    once per call.  A side's new group and flags depend only on that side
    and the kernel order N = sum(counts) + 1, so each side's group step is
    computed once per N (2 * bound steps, against two per record), with the
    right side's asserted ``cyclic=False`` merged in once per N; its
    ``assert`` log entry is still written on every record.  Both sides have
    the same degree, so one added multiset serves both.  The combinatorics
    and left-cyclic assertions still run on every record.
    """
    _require_ints("family bounds", (bound,), 0)
    _check_liftable(pair)
    steps: dict = {}
    return [_lift(pair, General(counts), steps) for counts in _partitions_up_to(bound)]


def describe_pair(record: ZariskiPairRecord) -> str:
    spec = format_spec(record.parent_spec) if record.parent_spec is not None else "seed"
    return (
        f"generation {record.generation} ({spec}): degree {record.left.degree}, "
        f"groups {record.left.group} vs {record.right.group}, "
        f"combinatorics_equal={record.combinatorics_equal}, distinguisher={record.distinguisher}"
    )
