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

from .constructions import ConstructionSpec, General, apply, format_spec
from .curves import CurveDatum
from .extensions import Cyclic, PropertyFlags, props_from_descriptor

DISTINGUISHER_CYCLIC = "cyclic-vs-noncyclic"
DISTINGUISHER_NONE = "none"


@dataclass(frozen=True)
class ZariskiPairRecord:
    left: CurveDatum
    right: CurveDatum
    combinatorics_equal: bool
    distinguisher: str
    generation: int
    parent_spec: ConstructionSpec | None = None

    def __post_init__(self):
        if self.generation < 0:
            raise ValueError("generation must be >= 0")
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


def _check_liftable(pair: ZariskiPairRecord) -> None:
    if not pair.combinatorics_equal:
        raise ValueError("lift requires equal combinatorics on the seed pair")
    if not pair.left.irreducible:
        raise ValueError("lift requires an irreducible left curve")
    if not pair.right.irreducible:
        raise ValueError("lift requires an irreducible right curve")
    if not isinstance(pair.left.group, Cyclic):
        raise ValueError("lift requires a finite cyclic group on the left curve")
    if not certified_noncyclic(pair.right):
        raise ValueError("lift requires a certified non-cyclic group on the right curve")


def lift_pair(pair: ZariskiPairRecord, spec: ConstructionSpec) -> ZariskiPairRecord:
    """Apply one construction to both curves of a pair.

    Requires equal combinatorics, irreducibility on both sides, a finite
    cyclic group on the left, and certified non-cyclicity on the right.
    The result is again a distinguished pair, one generation deeper.
    """
    _check_liftable(pair)
    left = apply(pair.left, spec)
    right = apply(pair.right, spec)
    right = right.with_asserted_props(
        PropertyFlags(cyclic=False),
        "a central extension of a non-cyclic group is never cyclic",
    )
    if not combinatorics_equal(left, right):
        raise AssertionError("lift produced unequal combinatorics")
    if not isinstance(left.group, Cyclic):
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
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    _check_liftable(pair)
    return [lift_pair(pair, General(counts)) for counts in _partitions_up_to(bound)]


def describe_pair(record: ZariskiPairRecord) -> str:
    spec = format_spec(record.parent_spec) if record.parent_spec is not None else "seed"
    return (
        f"generation {record.generation} ({spec}): degree {record.left.degree}, "
        f"groups {record.left.group} vs {record.right.group}, "
        f"combinatorics_equal={record.combinatorics_equal}, distinguisher={record.distinguisher}"
    )
