"""Walkthrough: line arrangements and their split extensions.

Two families with completely computable groups:

* a pencil of m lines (all through one point): free group of rank m-1;
* m lines in general position: free abelian of rank m-1.

For a free group every central extension by Z/N splits, so the pencil
family always yields F_(m-1) (+) Z/N.  For generic lines the direct-sum
answer is a fact about that specific family (hence the family tag on the
seed); the engine refuses to assume it for an arbitrary Z^(m-1).
"""

from curvegroups import (
    FreeAbelian,
    General,
    apply,
    central_extend,
    format_spec,
    seed_generic_lines,
    seed_pencil,
)

pencil = seed_pencil(4)
print("pencil seed:", pencil)
out = apply(pencil, General((2, 1)))
print("after general(2,1):", out)
print("  singularities: the original [4] plus tacnodes [4,4], [4] and the blow-down [12,4,4,4]")

generic = seed_generic_lines(4)
print("\ngeneric seed:", generic)
out = apply(generic, General((2, 1)))
print("after general(2,1):", out)
print("  props:", out.props.known())

# The family tag is what licenses the direct-sum form for generic lines;
# a bare free abelian descriptor stays an unresolved tower.
tagged = central_extend(FreeAbelian(3), 4, family_tag="generic-lines")
bare = central_extend(FreeAbelian(3), 4)
print("\ncentral_extend(Z^3, 4) with the generic-lines tag:", tagged)
print("central_extend(Z^3, 4) without it:", bare)
assert str(bare) == "Tower(Z^3; 4)"

# Two lines are the degenerate member of both families, with group Z.
two = seed_pencil(2)
print("\ntwo lines:", two)
spec = General((1,))
print(f"after {format_spec(spec)}:", apply(two, spec).group, "(reducible, so not cyclic)")
