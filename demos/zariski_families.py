"""Walkthrough: growing a family of Zariski pairs from one seed pair.

A Zariski pair is two curves with the same combinatorics whose complements
differ.  If the pair is irreducible, one group is finite cyclic, and the
other is certified non-cyclic, then every construction lifts the pair:
both sides gain the same degree and singularities, the cyclic side stays
cyclic, and a central extension of a non-cyclic group can never be cyclic.

The seed below is the classic degree-6 pair with six double points; the
non-cyclic side's group is entered as an opaque order-12 stand-in with an
asserted non-abelian flag (the engine never verifies literature facts, it
only propagates them).
"""

from curvegroups import (
    Cyclic,
    FiniteTagged,
    PropertyFlags,
    SingularityType,
    Uludag,
    custom_seed,
    enumerate_family,
    lift_pair,
    multiset,
    seed_pair,
)
from curvegroups.zariski import describe_pair

six_cusps = multiset([SingularityType((2,))] * 6)
left = custom_seed((6,), six_cusps, Cyclic(6), family_tag="sextic-pair")
right = custom_seed(
    (6,),
    six_cusps,
    FiniteTagged(12),
    asserted_props=PropertyFlags(abelian=False),
    family_tag="sextic-pair",
)
pair = seed_pair(left, right)
print(describe_pair(pair))

lifted = lift_pair(pair, Uludag(1))
print(describe_pair(lifted))
print("  left singularities: ", lifted.left.singularities)
print("  right cyclic flag:", lifted.right.props.cyclic)

print("\none lift per partition of 1, 2 and 3 (reordering the counts gives the same lift):")
for record in enumerate_family(pair, 3):
    print(" ", describe_pair(record))
    print("    singularities:", record.left.singularities)
