import pytest
from hypothesis import given, strategies as st

from curvegroups.singularities import (
    BlowdownEntry,
    SingularityType,
    blowdown_type,
    drop,
    format_type,
    multiset,
    parse_type,
    tacnode_type,
)


# ---------------------------------------------------------------------------
# constructors


def test_tacnode_usual():
    # the usual tacnode: two branches, contact order 1
    assert tacnode_type(2, 1) == SingularityType((2, 2))


def test_tacnode_order_zero_is_ordinary_point():
    assert tacnode_type(5, 0) == SingularityType((5,))


def test_tacnode_higher_order():
    assert tacnode_type(3, 2) == SingularityType((3, 3, 3))


def test_tacnode_rejects_single_branch():
    with pytest.raises(ValueError):
        tacnode_type(1, 0)
    with pytest.raises(ValueError):
        tacnode_type(2, -1)


def test_blowdown_single_flat_cluster_flattens():
    t = blowdown_type(4, [SingularityType((2, 2))])
    assert t == SingularityType((4, 2, 2))


def test_blowdown_two_clusters_stay_nested():
    t = blowdown_type(6, [SingularityType((2, 2)), SingularityType((2,))])
    (entry,) = t.entries
    assert isinstance(entry, BlowdownEntry)
    assert entry.head == 6
    assert set(entry.clusters) == {SingularityType((2, 2)), SingularityType((2,))}


def test_blowdown_trivial_nested_point_flattens():
    assert blowdown_type(2, [SingularityType((2,))]) == SingularityType((2, 2))


def test_blowdown_validation():
    with pytest.raises(ValueError):
        blowdown_type(1, [SingularityType((2,))])
    with pytest.raises(ValueError):
        blowdown_type(4, [])


def test_entry_validation():
    with pytest.raises(ValueError):
        SingularityType(())
    with pytest.raises(ValueError):
        SingularityType((0,))


# ---------------------------------------------------------------------------
# self-intersection drops


def test_drop_flat_run():
    assert drop(SingularityType((3, 3))) == 18


def test_drop_blowdown_of_run():
    # head 6 over three more multiplicity-2 steps: 36 + 12
    assert drop(SingularityType((6, 2, 2, 2))) == 48


def test_drop_counts_unit_entries():
    assert drop(SingularityType((1,))) == 1
    assert drop(SingularityType((2, 1, 1))) == 6


@pytest.mark.parametrize("d", range(2, 7))
@pytest.mark.parametrize("q", range(0, 7))
def test_drop_of_tacnode(d, q):
    assert drop(tacnode_type(d, q)) == (q + 1) * d * d


types_st = st.recursive(
    st.lists(st.integers(1, 6), min_size=1, max_size=4).map(
        lambda entries: SingularityType(tuple(entries))
    ),
    lambda children: st.tuples(
        st.integers(2, 8), st.lists(children, min_size=1, max_size=3)
    ).map(lambda hc: blowdown_type(hc[0], hc[1])),
    max_leaves=6,
)


@given(st.integers(2, 9), st.lists(types_st, min_size=2, max_size=4))
def test_blowdown_drop_recursion(head, clusters):
    # two or more clusters always nest, so the recursion is visible
    t = blowdown_type(head, clusters)
    assert drop(t) == head * head + sum(drop(c) for c in clusters)


# ---------------------------------------------------------------------------
# text grammar


def test_format_elides_stored_units():
    t = SingularityType((2, 1, 1))
    assert t.pretty() == "[2]"
    assert format_type(t) == "[2,1,1]"


def test_format_keeps_all_unit_type_visible():
    assert SingularityType((1, 1)).pretty() == "[1,1]"


def test_run_abbreviation():
    assert format_type(SingularityType((2, 2, 2))) == "[2_3]"
    assert format_type(SingularityType((2, 2))) == "[2,2]"
    assert parse_type("[2_3]") == SingularityType((2, 2, 2))
    assert parse_type("[2,2,2]") == SingularityType((2, 2, 2))


def test_nested_grammar():
    text = "[6,(|[2,2]|,|[2]|)]"
    t = parse_type(text)
    (entry,) = t.entries
    assert isinstance(entry, BlowdownEntry)
    assert entry.head == 6
    assert parse_type(format_type(t)) == t


def test_parse_rejects_garbage():
    for bad in ("", "[", "[]", "[2", "[2,]", "[2]x", "[(|[2]|)]", "[2_0]"):
        with pytest.raises(ValueError):
            parse_type(bad)
    # a digit that is not decimal is not an integer, and says so by position
    with pytest.raises(ValueError, match="position 1: expected an integer"):
        parse_type("[\u00b2]")


@given(types_st)
def test_format_parse_round_trip(t):
    assert parse_type(format_type(t)) == t


@given(types_st)
def test_canonical_print_is_fixed_point(t):
    # parse(print(t)) reprints identically: print output is the canonical form
    text = format_type(t)
    assert format_type(parse_type(text)) == text


# ---------------------------------------------------------------------------
# multisets


def test_multiset_ignores_insertion_order():
    a = multiset([tacnode_type(2, 1), tacnode_type(3, 0)])
    b = multiset([tacnode_type(3, 0), tacnode_type(2, 1)])
    assert a == b


def test_multiset_counts_multiplicity():
    a = multiset([tacnode_type(2, 0), tacnode_type(2, 0)])
    b = multiset([tacnode_type(2, 0)])
    assert a != b
    assert len(a) == 2


def test_multiset_union():
    a = multiset([tacnode_type(2, 0)])
    b = multiset([tacnode_type(2, 1)])
    assert a + b == multiset([tacnode_type(2, 1), tacnode_type(2, 0)])


@given(st.permutations([tacnode_type(2, 1), tacnode_type(2, 1), tacnode_type(3, 0), tacnode_type(5, 2)]))
def test_multiset_permutation_invariance(types):
    reference = multiset([tacnode_type(2, 1), tacnode_type(2, 1), tacnode_type(3, 0), tacnode_type(5, 2)])
    assert multiset(types) == reference
