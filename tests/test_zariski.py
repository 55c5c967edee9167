import json
import sys

import pytest
from oracles import family_by_compositions, lift_by_apply, partition_count

from curvegroups import constructions, extensions
from curvegroups.constructions import General, Mixed, Special, Uludag, format_spec, kernel_order
from curvegroups.curves import custom_seed, seed_generic_lines, seed_pencil, seed_smooth
from curvegroups.extensions import Cyclic, FiniteTagged, PropertyFlags, direct_sum
from curvegroups.documents import pair_to_json
from curvegroups.singularities import SingularityType, multiset, parse_type
from curvegroups.zariski import (
    DISTINGUISHER_CYCLIC,
    ZariskiPairRecord,
    certified_noncyclic,
    combinatorics_equal,
    enumerate_family,
    lift_pair,
    seed_pair,
)


def sextic_pair():
    """A user-asserted seed pair: equal combinatorics (degree 6, six double
    points), cyclic group on the left, asserted non-cyclic on the right."""
    sings = multiset([SingularityType((2,))] * 6)
    left = custom_seed((6,), sings, Cyclic(6))
    right = custom_seed(
        (6,), sings, FiniteTagged(12), asserted_props=PropertyFlags(abelian=False)
    )
    return seed_pair(left, right)


def run_pair(degree, right_group="finite"):
    """Seed pair of the given degree whose singularities include runs.  The
    right group is ``Fin(6d)`` asserted non-abelian, or with
    ``right_group="sum"`` the non-cyclic ``Z/2 (+) Z/2d``."""
    sings = multiset(parse_type(t) for t in ("[2_3]", "[2]", "[3,2_2]"))
    left = custom_seed((degree,), sings, Cyclic(degree))
    if right_group == "sum":
        right = custom_seed((degree,), sings, direct_sum(Cyclic(2), Cyclic(2 * degree)))
    else:
        right = custom_seed(
            (degree,), sings, FiniteTagged(6 * degree), asserted_props=PropertyFlags(abelian=False)
        )
    return seed_pair(left, right)


def count_calls(monkeypatch, module, name):
    """Count the calls to ``module.name`` made through any ``curvegroups``
    module attribute that holds it; returns the list of argument tuples."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] == "curvegroups":
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return calls


# ---------------------------------------------------------------------------
# combinatorics comparison


def test_combinatorics_equal_reflexive():
    c = seed_smooth(3)
    assert combinatorics_equal(c, c)


def test_combinatorics_pencil_vs_generic():
    assert not combinatorics_equal(seed_pencil(3), seed_generic_lines(3))


def test_combinatorics_ignores_groups():
    sings = multiset([SingularityType((2,))] * 6)
    a = custom_seed((6,), sings, Cyclic(6))
    b = custom_seed((6,), sings, FiniteTagged(12))
    assert combinatorics_equal(a, b)


def test_combinatorics_compares_component_multisets():
    a = custom_seed((1, 2), multiset([]), Cyclic(1))
    b = custom_seed((2, 1), multiset([]), Cyclic(1))
    assert combinatorics_equal(a, b)
    c = custom_seed((3,), multiset([]), Cyclic(1))
    assert not combinatorics_equal(a, c)


# ---------------------------------------------------------------------------
# certification and record validation


def test_certified_noncyclic_via_assertion():
    pair = sextic_pair()
    assert certified_noncyclic(pair.right)
    assert not certified_noncyclic(pair.left)


def test_certified_noncyclic_via_descriptor():
    c = custom_seed((6,), multiset([]), FiniteTagged(12))
    assert not certified_noncyclic(c)  # opaque order-12 group could be cyclic
    d = seed_generic_lines(3)
    assert certified_noncyclic(d)  # Z^2 is recognized non-cyclic


def test_record_invariant_distinguisher_needs_equal_combinatorics():
    with pytest.raises(ValueError):
        ZariskiPairRecord(
            left=seed_smooth(2),
            right=seed_smooth(3),
            combinatorics_equal=False,
            distinguisher=DISTINGUISHER_CYCLIC,
            generation=0,
        )


# ---------------------------------------------------------------------------
# lifting


def test_lift_pair_single_fiber():
    record = lift_pair(sextic_pair(), Uludag(1))
    assert record.generation == 1
    assert record.combinatorics_equal
    assert record.left.degree == 12
    assert record.left.group == Cyclic(12)
    assert record.right.props.cyclic is False
    assert combinatorics_equal(record.left, record.right)


def test_lift_pair_general():
    record = lift_pair(sextic_pair(), General((1, 1)))
    assert record.left.degree == 18
    assert record.left.group == Cyclic(18)


def test_lift_rejects_reducible_curves():
    sings = multiset([])
    left = custom_seed((1, 1), sings, Cyclic(1))
    right = custom_seed((1, 1), sings, FiniteTagged(12), asserted_props=PropertyFlags(abelian=False))
    with pytest.raises(ValueError, match="irreducible"):
        lift_pair(seed_pair(left, right), Uludag(1))


def test_lift_rejects_noncyclic_left():
    sings = multiset([SingularityType((2,))] * 6)
    left = custom_seed((6,), sings, FiniteTagged(6))
    right = custom_seed((6,), sings, FiniteTagged(12), asserted_props=PropertyFlags(abelian=False))
    with pytest.raises(ValueError, match="cyclic group on the left"):
        lift_pair(seed_pair(left, right), Uludag(1))


def test_lift_rejects_uncertified_right():
    sings = multiset([SingularityType((2,))] * 6)
    left = custom_seed((6,), sings, Cyclic(6))
    right = custom_seed((6,), sings, FiniteTagged(12))
    with pytest.raises(ValueError, match="non-cyclic"):
        lift_pair(seed_pair(left, right), Uludag(1))


def test_lift_rejects_unequal_combinatorics():
    left = custom_seed((6,), multiset([]), Cyclic(6))
    right = custom_seed(
        (6,),
        multiset([SingularityType((2,))]),
        FiniteTagged(12),
        asserted_props=PropertyFlags(abelian=False),
    )
    with pytest.raises(ValueError, match="combinatorics"):
        lift_pair(seed_pair(left, right), Uludag(1))


LIFT_SPECS = [
    Uludag(1),
    Uludag(3),
    General((1, 2)),
    General((2, 2, 1)),
    Mixed((2, 1), (1, 1, 1)),
    Mixed((3,), (1, 2)),
    Special(1),
    Special(2),
]


@pytest.mark.parametrize("right_group", ["finite", "sum"])
@pytest.mark.parametrize("degree", [1, 3, 6])
@pytest.mark.parametrize("spec", LIFT_SPECS, ids=format_spec)
def test_lift_pair_matches_two_applies(spec, degree, right_group):
    pair = run_pair(degree, right_group)
    for _ in range(2):  # a seed pair, then a lifted one with a longer log
        record = lift_pair(pair, spec)
        expected = lift_by_apply(pair, spec)
        assert record == expected
        assert pair_to_json(record) == pair_to_json(expected)
        pair = record


def test_lift_pair_runs_each_step_once_per_side(monkeypatch):
    extends = count_calls(monkeypatch, extensions, "central_extend")
    added = count_calls(monkeypatch, constructions, "added_singularities")
    lift_pair(run_pair(3), General((2, 1)))
    assert len(extends) == 2
    assert len(added) == 1


def test_generations_compose():
    record = lift_pair(sextic_pair(), Uludag(1))
    record = lift_pair(record, General((2,)))
    assert record.generation == 2
    assert record.left.group == Cyclic(6 * 2 * 3)


# ---------------------------------------------------------------------------
# family enumeration


def test_enumerate_family_bound_zero():
    assert enumerate_family(sextic_pair(), 0) == []


def test_enumerate_family_bound_one():
    records = enumerate_family(sextic_pair(), 1)
    assert len(records) == 1
    assert records[0].parent_spec == General((1,))
    assert records[0].left.group == Cyclic(12)


def test_enumerate_family_bound_two():
    records = enumerate_family(sextic_pair(), 2)
    assert [r.parent_spec for r in records] == [General((1,)), General((2,)), General((1, 1))]
    assert [r.left.group for r in records] == [Cyclic(12), Cyclic(18), Cyclic(18)]
    sings = [r.left.singularities for r in records]
    assert len({s for s in sings}) == 3
    assert all(r.combinatorics_equal for r in records)
    assert all(r.generation == 1 for r in records)


def test_enumerate_family_kernel_orders():
    for record in enumerate_family(sextic_pair(), 3):
        n = kernel_order(record.parent_spec)
        assert record.left.group == Cyclic(6 * n)


@pytest.mark.parametrize("degree", [1, 3, 6])
def test_enumerate_family_matches_composition_oracle(degree):
    for right_group in ("finite", "sum"):
        pair = run_pair(degree, right_group)
        for bound in range(10):
            records = enumerate_family(pair, bound)
            expected = family_by_compositions(pair, bound)
            assert records == expected
            rendered = [json.dumps(pair_to_json(r), sort_keys=True) for r in records]
            assert rendered == [json.dumps(pair_to_json(r), sort_keys=True) for r in expected]


@pytest.mark.parametrize("bound, count", [(12, 271), (16, 914)])
def test_enumerate_family_one_record_per_partition(bound, count):
    records = enumerate_family(run_pair(1), bound)
    assert len(records) == count == sum(partition_count(s) for s in range(1, bound + 1))
    assert len({r.parent_spec for r in records}) == count
    assert all(list(r.parent_spec.counts) == sorted(r.parent_spec.counts) for r in records)


@pytest.mark.parametrize("bound", range(12))
def test_enumerate_family_shares_steps_across_the_family(monkeypatch, bound):
    # one group step per side and kernel order N = 2..bound+1, one added
    # multiset per lift
    extends = count_calls(monkeypatch, extensions, "central_extend")
    added = count_calls(monkeypatch, constructions, "added_singularities")
    records = enumerate_family(run_pair(3), bound)
    assert len(extends) == 2 * bound
    assert len(added) == len(records) == sum(partition_count(s) for s in range(1, bound + 1))
