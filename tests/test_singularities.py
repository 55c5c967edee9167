import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import deadline
from curvegroups import singularities
from curvegroups.singularities import (
    BlowdownEntry,
    SingularityType,
    blowdown_type,
    drop,
    format_type,
    multiset,
    parse_type,
)


# ---------------------------------------------------------------------------
# constructors


def tacnode(branches, order):
    """``branches`` smooth branches sharing a tangent to contact ``order``:
    the multiplicity repeated order+1 times."""
    return SingularityType.from_runs(((branches, order + 1),))


def test_tacnode_usual():
    # the usual tacnode: two branches, contact order 1
    assert tacnode(2, 1) == SingularityType((2, 2))


def test_tacnode_order_zero_is_ordinary_point():
    assert tacnode(5, 0) == SingularityType((5,))


def test_tacnode_higher_order():
    assert tacnode(3, 2) == SingularityType((3, 3, 3))


def test_tacnode_rejects_single_branch():
    # a negative contact order is an empty run
    with pytest.raises(ValueError, match="^run lengths must be >= 1, got 0$"):
        tacnode(2, -1)


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
    assert drop(tacnode(d, q)) == (q + 1) * d * d


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


# Type text as the grammar allows it, with whitespace between any two
# tokens, numbers in other scripts' decimal digits, "\u00b2", "_0" and counts
# far beyond memory, then edited by inserting or deleting characters so that
# many draws leave the language.
WHITESPACE = st.sampled_from(["", "", " ", "\t", "\n", "\u3000", "\x1c", "\x1d", "\x1e", "\x1f"])
NUMBER = st.integers(1, 12).map(str) | st.sampled_from(["0", "\u0663", "1\u0664", "\u06f7", "\u00b2", "1000000000"])


def _padded(text_st):
    return st.tuples(WHITESPACE, text_st, WHITESPACE).map("".join)


def _type_text(items):
    return _padded(st.lists(items, min_size=1, max_size=3).map(lambda parts: "[" + ",".join(parts) + "]"))


_plain_items = _padded(NUMBER) | st.tuples(_padded(NUMBER), _padded(NUMBER)).map("_".join)


def _blowdown_items(children):
    clusters = st.lists(_padded(children.map("|{}|".format)), min_size=1, max_size=3).map(",".join)
    return st.tuples(_padded(NUMBER), WHITESPACE, clusters).map(lambda t: f"{t[0]},{t[1]}({t[2]})")


type_text_st = st.recursive(
    _type_text(_plain_items),
    lambda children: _type_text(_plain_items | _blowdown_items(children)),
    max_leaves=8,
)
TYPE_EDITS = st.lists(
    st.tuples(
        st.integers(0, 10**6),
        st.sampled_from([None, " ", "\u3000", "\x1c", ",", "(", "|", "]", "[", "_", "_0", "\u0663", "\u00b2"]),
    ),
    max_size=3,
)


def _outcome(parse, text):
    try:
        t = parse(text)
    except ValueError as exc:
        return ("error", str(exc))
    return ("value", t.runs)


@settings(max_examples=400)
@given(type_text_st, TYPE_EDITS)
def test_parse_type_matches_the_recursive_reference_parser(text, edits):
    for at, token in edits:  # None deletes the character at that place
        at %= len(text) + 1
        text = text[:at] + (token or "") + text[at + (token is None) :]
    assert _outcome(parse_type, text) == _outcome(oracles.ref_parse_type_runs, text)


def test_parse_type_grammar_edges():
    assert parse_type(" [ 6 ,\u3000( | [ 2 _ 2 ] | ,\x1c|[2]| ) ] ") == parse_type("[6,(|[2,2]|,|[2]|)]")
    assert parse_type("[\u0663_\u0662]") == SingularityType((3, 3))
    assert parse_type("[2_1000000000]").runs == ((2, 10**9),)
    with pytest.raises(ValueError, match="position 4: run length must be >= 1"):
        parse_type("[2_0]")
    with pytest.raises(ValueError, match="position 6: expected an integer"):
        parse_type("[2_3, (|[2]|)]")


@pytest.mark.parametrize("bad", [5, None, b"[2]", ["[2]"]], ids=repr)
def test_parse_type_rejects_non_strings(bad):
    with pytest.raises(ValueError, match="singularity types must be strings, got "):
        parse_type(bad)


def test_parse_type_interns_by_text():
    text = "[7,(|[3_4]|,|[2]|)]"
    assert parse_type(text) is parse_type(text)
    assert parse_type(text) is not parse_type(" " + text)  # keyed by text, not by value
    assert parse_type(text) == parse_type(" " + text)


def test_parse_type_never_caches_a_rejection():
    before = singularities._parse_interned.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ValueError, match="expected '\\]'"):
            parse_type("[2,3")
    assert singularities._parse_interned.cache_info().currsize == before


def test_parse_type_bypasses_the_cache_past_the_length_cap():
    text = "[" + ",".join(["2,3"] * (singularities._INTERNED_CHARS // 4)) + "]"
    assert len(text) > singularities._INTERNED_CHARS
    assert parse_type(text) is not parse_type(text)
    assert parse_type(text) == parse_type(text)
    short = text[: singularities._INTERNED_CHARS - 1].rsplit(",", 1)[0] + "]"
    assert parse_type(short) is parse_type(short)


def test_parse_type_cache_is_bounded():
    bound = singularities._INTERNED_TYPES
    for n in range(1, bound + 50):
        parse_type(f"[{n},1]")
    info = singularities._parse_interned.cache_info()
    assert info.maxsize == bound and info.currsize == bound


def test_parse_type_depth_costs_no_recursion():
    depth = 20_000
    with deadline(1.0):
        t = parse_type("[2,(|" * depth + "[3]" + "|)]" * depth)
    levels = 0
    while t.runs != ((3, 1),):
        ((entry, count),) = t.runs
        assert (entry.head, count) == (2, 1)
        (t,) = entry.clusters
        levels += 1
    assert levels == depth


# ---------------------------------------------------------------------------
# multisets


def test_multiset_ignores_insertion_order():
    a = multiset([tacnode(2, 1), tacnode(3, 0)])
    b = multiset([tacnode(3, 0), tacnode(2, 1)])
    assert a == b


def test_multiset_counts_multiplicity():
    a = multiset([tacnode(2, 0), tacnode(2, 0)])
    b = multiset([tacnode(2, 0)])
    assert a != b
    assert len(a) == 2


def test_multiset_union():
    a = multiset([tacnode(2, 0)])
    b = multiset([tacnode(2, 1)])
    assert a + b == multiset([tacnode(2, 1), tacnode(2, 0)])


@given(st.permutations([tacnode(2, 1), tacnode(2, 1), tacnode(3, 0), tacnode(5, 2)]))
def test_multiset_permutation_invariance(types):
    reference = multiset([tacnode(2, 1), tacnode(2, 1), tacnode(3, 0), tacnode(5, 2)])
    assert multiset(types) == reference
