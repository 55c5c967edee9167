import itertools
import json
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from curvegroups import extensions
from curvegroups.extensions import (
    Cyclic,
    FiniteTagged,
    Free,
    FreeAbelian,
    PropertyFlags,
    RULE_COPRIME_FINITE,
    RULE_NONE,
    RULE_SUMMANDS_NONCOPRIME,
    SplitKind,
    Tower,
    central_extend,
    direct_sum,
    format_descriptor,
    order_of,
    parse_descriptor,
    propagate_properties,
    props_from_descriptor,
    split_test,
)
from curvegroups.curves import CurveDatum, h1_from_degrees, seed_smooth
from curvegroups.documents import group_to_json
from curvegroups.fpgroup import AbelianInvariants, Presentation, Word
from curvegroups.singularities import EMPTY_MULTISET

import oracles
from conftest import deadline


# ---------------------------------------------------------------------------
# canonical forms


def test_trivial_forms_collapse():
    assert Free(0) == Cyclic(1)
    assert FreeAbelian(0) == Cyclic(1)
    assert direct_sum() == Cyclic(1)
    assert direct_sum(Cyclic(1), Cyclic(1)) == Cyclic(1)


def test_rank_one_free_forms_are_identified():
    assert FreeAbelian(1) == Free(1)
    assert format_descriptor(Free(1)) == "Z"


def test_coprime_cyclic_merge():
    assert direct_sum(Cyclic(2), Cyclic(3)) == Cyclic(6)
    assert format_descriptor(direct_sum(Cyclic(2), Cyclic(4))) == "Z/2 (+) Z/4"
    assert direct_sum(Cyclic(2), Cyclic(4)) != Cyclic(8)
    # isomorphic regroupings share one canonical form
    assert direct_sum(Cyclic(4), Cyclic(6)) == direct_sum(Cyclic(2), Cyclic(12))


def test_direct_sum_flattens_and_sorts():
    g = direct_sum(Cyclic(3), direct_sum(Free(2), Cyclic(2)))
    assert g == direct_sum(Free(2), Cyclic(6))
    assert format_descriptor(g) == "F2 (+) Z/6"


def test_free_abelian_ranks_merge():
    assert direct_sum(Free(1), Free(1)) == FreeAbelian(2)
    assert direct_sum(FreeAbelian(2), Free(1)) == FreeAbelian(3)


def test_canonical_string_examples():
    assert format_descriptor(direct_sum(Free(2), Cyclic(3))) == "F2 (+) Z/3"
    assert format_descriptor(direct_sum(FreeAbelian(4), Cyclic(5))) == "Z^4 (+) Z/5"
    assert format_descriptor(Tower(Cyclic(2), (2, 3))) == "Tower(Z/2; 2,3)"


def test_parse_descriptor_examples():
    assert parse_descriptor("Z/6") == Cyclic(6)
    assert parse_descriptor("Z") == Free(1)
    assert parse_descriptor("F2 (+) Z/3") == direct_sum(Free(2), Cyclic(3))
    assert parse_descriptor("Z^4 (+) Z/5") == direct_sum(FreeAbelian(4), Cyclic(5))
    assert parse_descriptor("Tower(Z/2; 2,3)") == Tower(Cyclic(2), (2, 3))
    assert parse_descriptor("Fin(12)") == FiniteTagged(12)
    with pytest.raises(ValueError):
        parse_descriptor("Q/8")


descriptor_st = st.recursive(
    st.one_of(
        st.integers(1, 30).map(Cyclic),
        st.integers(0, 5).map(Free),
        st.integers(0, 5).map(FreeAbelian),
        st.integers(1, 20).map(FiniteTagged),
    ),
    lambda children: st.one_of(
        st.lists(children, min_size=1, max_size=3).map(lambda parts: direct_sum(*parts)),
        st.tuples(children, st.lists(st.integers(2, 6), min_size=1, max_size=2)).map(
            lambda bk: Tower(bk[0], tuple(bk[1]))
        ),
    ),
    max_leaves=6,
)


@given(descriptor_st)
def test_descriptor_string_round_trip(g):
    assert parse_descriptor(format_descriptor(g)) == g


# Descriptor text as the grammar allows it, with whitespace wherever it may
# go and numbers in other scripts' decimal digits, then edited by inserting
# or deleting characters so that many draws leave the language.
WHITESPACE = st.sampled_from(["", "", " ", "\t", "\n", "\u3000", "\x1c"])
NUMBER = st.integers(0, 40).map(str) | st.sampled_from(["\u0663", "1\u0664", "\u06f7"])


def _padded(text_st):
    return st.tuples(WHITESPACE, text_st, WHITESPACE).map("".join)


descriptor_text_st = st.recursive(
    st.one_of(
        st.just("Z"),
        NUMBER.map("Z/{}".format),
        NUMBER.map("Z^{}".format),
        NUMBER.map("F{}".format),
        NUMBER.map("Fin({})".format),
    ),
    lambda children: st.one_of(
        st.lists(_padded(children), min_size=2, max_size=3).map("(+)".join),
        st.tuples(
            _padded(children),
            st.lists(_padded(NUMBER | st.just("")), min_size=1, max_size=3).map(",".join),
        ).map(lambda t: f"Tower({t[0]};{t[1]})"),
    ),
    max_leaves=6,
)
EDITS = st.lists(
    st.tuples(
        st.integers(0, 10**6),
        st.sampled_from([None, " ", "\x1c", ",", ";", "(", ")", "(+)", "\u0663", "\u00b2"]),
    ),
    max_size=3,
)


def _outcome(parse, text):
    try:
        return ("value", parse(text))
    except ValueError:
        return ("error",)


@settings(max_examples=400)
@given(descriptor_text_st, EDITS)
def test_parse_descriptor_matches_reference_parser(text, edits):
    for at, token in edits:  # None deletes the character at that place
        at %= len(text) + 1
        text = text[:at] + (token or "") + text[at + (token is None) :]
    assert _outcome(parse_descriptor, text) == _outcome(oracles.ref_parse_descriptor, text)


def test_parse_descriptor_grammar_edges():
    assert parse_descriptor(" Tower( Z/2 (+) Z/3 ;  2 ,, 3 ) (+) Z ") == direct_sum(Tower(Cyclic(6), (2, 3)), Free(1))
    assert parse_descriptor("Z/\u0663") == Cyclic(3)
    assert parse_descriptor("Fin(1)") == FiniteTagged(1) != Cyclic(1)
    for bad in ("", "Z / 2", "Fin( 3)", "Tower (Z; 2)", "Tower(Z; 2", "Z; 2)", "Tower(Z;)", "Z (+)"):
        with pytest.raises(ValueError, match="cannot parse group descriptor"):
            parse_descriptor(bad)


def test_parse_descriptor_depth_costs_no_recursion():
    depth = 20_000
    with deadline(1.0):
        g = parse_descriptor("Tower(" * depth + "Z/2" + "; 2)" * depth)
    levels = 0
    while g.towers:
        ((g, kernels),) = g.towers
        assert kernels == (2,)
        levels += 1
    assert levels == depth
    assert g == Cyclic(2)


@pytest.mark.parametrize("value", [2.5, True, "3"])
@pytest.mark.parametrize(
    "build",
    [
        Cyclic,
        Free,
        FreeAbelian,
        FiniteTagged,
        lambda v: Tower(Cyclic(2), (2, v)),
        lambda v: AbelianInvariants(v),
        lambda v: AbelianInvariants(0, (2, v)),
        lambda v: CurveDatum((2, v), EMPTY_MULTISET, Cyclic(1), PropertyFlags()),
        lambda v: h1_from_degrees((2, v)),
    ],
    ids=["Cyclic", "Free", "FreeAbelian", "FiniteTagged", "Tower", "free_rank", "torsion", "CurveDatum", "h1"],
)
def test_constructors_reject_non_integers(build, value):
    with pytest.raises(ValueError, match=f"must be integers, got {value!r}"):
        build(value)


@pytest.mark.parametrize("degree", [2.5, True])
def test_seed_smooth_rejects_non_integer_degree(degree):
    with pytest.raises(ValueError, match="must be integers"):
        seed_smooth(degree)


PRESENTATION = Presentation(("x", "y"), (Word.parse("x^2 y^-3"),))

recipe_st = st.recursive(
    st.one_of(
        st.tuples(st.just("cyclic"), st.integers(1, 30)),
        st.tuples(st.just("free"), st.integers(0, 5)),
        st.tuples(st.just("free-abelian"), st.integers(0, 5)),
        st.tuples(st.just("finite"), st.integers(1, 20), st.sampled_from([None, PRESENTATION])),
    ),
    lambda children: st.one_of(
        st.tuples(st.just("sum"), st.lists(children, max_size=3)),
        st.tuples(st.just("tower"), children, st.lists(st.integers(2, 6), min_size=1, max_size=2)),
    ),
    max_leaves=6,
)

LIBRARY = {
    "cyclic": Cyclic,
    "free": Free,
    "free-abelian": FreeAbelian,
    "finite": FiniteTagged,
    "sum": direct_sum,
    "tower": Tower,
}
REFERENCE = {
    "cyclic": oracles.Cyclic,
    "free": oracles.Free,
    "free-abelian": oracles.FreeAbelian,
    "finite": oracles.FiniteTagged,
    "sum": oracles.ref_direct_sum,
    "tower": oracles.Tower,
}


def build(recipe, ns):
    kind, *args = recipe
    if kind == "sum":
        return ns["sum"](*(build(r, ns) for r in args[0]))
    if kind == "tower":
        return ns["tower"](build(args[0], ns), tuple(args[1]))
    return ns[kind](*args)


def assert_same_group(g, ref):
    """``g`` from the library and canonical ``ref`` from the reference agree
    on text, document bytes, order and flags."""
    text = oracles.ref_format(ref)
    assert format_descriptor(g) == text
    assert json.dumps(group_to_json(g)) == json.dumps({"form": text, "tree": oracles.ref_tree(ref)})
    assert order_of(g) == oracles.ref_order(ref)
    assert props_from_descriptor(g).known() == oracles.ref_props(ref).known()


@given(recipe_st)
def test_descriptor_matches_per_class_reference(recipe):
    g = build(recipe, LIBRARY)
    ref = oracles.ref_canonical(build(recipe, REFERENCE))
    assert_same_group(g, ref)
    for n, irreducible, family_tag in itertools.product(range(2, 7), (False, True), (None, "generic-lines")):
        assert_same_group(
            central_extend(g, n, irreducible=irreducible, family_tag=family_tag),
            oracles.ref_central_extend(ref, n, irreducible=irreducible, family_tag=family_tag),
        )


@given(recipe_st, recipe_st)
def test_sums_in_both_orders_match_reference(a, b):
    ab = direct_sum(build(a, LIBRARY), build(b, LIBRARY))
    ba = direct_sum(build(b, LIBRARY), build(a, LIBRARY))
    ref_ab = oracles.ref_direct_sum(build(a, REFERENCE), build(b, REFERENCE))
    ref_ba = oracles.ref_direct_sum(build(b, REFERENCE), build(a, REFERENCE))
    assert_same_group(ab, ref_ab)
    assert_same_group(ba, ref_ba)
    assert (ab == ba) == (ref_ab == ref_ba)


def test_direct_sum_never_factors_an_order():
    with deadline(2.0):
        g = direct_sum(Cyclic(2), Cyclic(10**18 + 3))
    assert format_descriptor(g) == f"Z/{2 * (10**18 + 3)}"


def test_order_of():
    assert order_of(Cyclic(6)) == 6
    assert order_of(Free(2)) is None
    assert order_of(Free(0)) == 1
    assert order_of(direct_sum(Cyclic(2), Cyclic(4))) == 8
    assert order_of(Tower(Cyclic(2), (2, 3))) == 12
    assert order_of(direct_sum(FreeAbelian(2), Cyclic(3))) is None


# ---------------------------------------------------------------------------
# central extension rules


def test_rule_a_cyclic_irreducible():
    assert central_extend(Cyclic(3), 2, irreducible=True) == Cyclic(6)


def test_rule_b_free_splits():
    g = central_extend(Free(3), 4)
    assert g == direct_sum(Free(3), Cyclic(4))


def test_rule_b_covers_infinite_cyclic():
    assert central_extend(Free(1), 2) == direct_sum(Free(1), Cyclic(2))


def test_rule_c_needs_family_tag():
    tagged = central_extend(FreeAbelian(3), 2, family_tag="generic-lines")
    assert tagged == direct_sum(FreeAbelian(3), Cyclic(2))
    untagged = central_extend(FreeAbelian(3), 2)
    assert untagged == Tower(FreeAbelian(3), (2,))


def test_rule_d_coprime_finite():
    assert central_extend(FiniteTagged(5), 3) == direct_sum(FiniteTagged(5), Cyclic(3))
    # non-coprime stays unresolved
    assert central_extend(FiniteTagged(6), 3) == Tower(FiniteTagged(6), (3,))


def test_rule_e_unresolved_tower():
    g = central_extend(Cyclic(2), 2)
    assert g == Tower(Cyclic(2), (2,))
    # a further coprime extension of the (finite) tower splits off instead
    again = central_extend(g, 3)
    assert again == direct_sum(Tower(Cyclic(2), (2,)), Cyclic(3))
    # non-coprime extensions keep stacking the tower
    deeper = central_extend(g, 2)
    assert deeper == Tower(Cyclic(2), (2, 2))


def test_extend_rejects_identity_kernel():
    with pytest.raises(ValueError):
        central_extend(Cyclic(2), 1)


def test_rules_a_and_d_agree_on_coprime_cyclic():
    for r, n in itertools.product(range(1, 13), range(2, 13)):
        if gcd(r, n) != 1:
            continue
        by_rule_a = central_extend(Cyclic(r), n, irreducible=True)
        assert by_rule_a == Cyclic(r * n)
        assert by_rule_a == direct_sum(Cyclic(r), Cyclic(n))


def test_order_multiplies_across_extensions():
    for g in (Cyclic(4), FiniteTagged(6), Tower(Cyclic(2), (3,))):
        for n in (2, 3, 5):
            extended = central_extend(g, n, irreducible=True)
            assert order_of(extended) == order_of(g) * n


def test_tower_composition_multiplies_orders():
    g = Cyclic(2)
    total = 2
    for n in (2, 4, 3):
        g = central_extend(g, n)
        total *= n
        assert order_of(g) == total


# ---------------------------------------------------------------------------
# split / non-split


def test_split_smooth_conic_case():
    verdict = split_test(AbelianInvariants(0, (2,)), 1, 2)
    assert verdict.kind is SplitKind.NON_SPLIT
    assert verdict.justification == RULE_SUMMANDS_NONCOPRIME


def test_split_coprime_case():
    verdict = split_test(AbelianInvariants(0, (3,)), 1, 2)
    assert verdict.kind is SplitKind.SPLITS_AS_DIRECT_SUM
    assert verdict.justification == RULE_COPRIME_FINITE


def test_split_unknown_case():
    # summand count 2 != r = 1, and the free part blocks the coprime rule
    verdict = split_test(AbelianInvariants(1, (2,)), 1, 2)
    assert verdict.kind is SplitKind.UNKNOWN
    assert verdict.justification == RULE_NONE


def test_split_free_summand_counts_as_noncoprime():
    # gcd(0, N) = N: a Z summand never blocks the non-split rule
    verdict = split_test(AbelianInvariants(1, ()), 1, 5)
    assert verdict.kind is SplitKind.NON_SPLIT


def test_nonsplit_agrees_with_extension_rule():
    # the conic: H1 = Z/2, extension by Z/2 must be Z/4, not Z/2 (+) Z/2
    assert split_test(AbelianInvariants(0, (2,)), 1, 2).kind is SplitKind.NON_SPLIT
    assert central_extend(Cyclic(2), 2, irreducible=True) == Cyclic(4)
    assert Cyclic(4) != direct_sum(Cyclic(2), Cyclic(2))


# ---------------------------------------------------------------------------
# property flags


def test_flag_closure_chains():
    flags = PropertyFlags(cyclic=True)
    assert flags.abelian is True
    assert flags.nilpotent is True
    assert flags.solvable is True
    assert flags.supersolvable is True
    assert flags.polycyclic is True
    assert flags.virtually_solvable is True


def test_flag_closure_backward_false():
    flags = PropertyFlags(solvable=False)
    assert flags.abelian is False
    assert flags.cyclic is False
    assert flags.nilpotent is False


def test_flag_closure_matches_fixpoint_oracle_on_every_assignment():
    names = extensions._TRISTATE_FIELDS
    for values in itertools.product((None, False, True), repeat=len(names)):
        state = dict(zip(names, values))
        try:
            expected = oracles.close_flags_by_fixpoint(state)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                PropertyFlags(**state)
            assert str(info.value) == str(exc)
            continue
        flags = PropertyFlags(**state)
        assert {name: getattr(flags, name) for name in names} == expected


def test_flag_contradiction_rejected():
    with pytest.raises(ValueError):
        PropertyFlags(cyclic=True, abelian=False)


def test_nonabelian_mirrors_abelian():
    assert PropertyFlags(abelian=False).nonabelian is True
    assert PropertyFlags(abelian=True).nonabelian is False
    assert PropertyFlags().nonabelian is None


def test_propagate_finite_solvable():
    flags = PropertyFlags(finite=True, solvable=True)
    out = propagate_properties(flags, 3)
    assert out.finite is True
    assert out.solvable is True


def test_propagate_p_group_needs_matching_prime_power():
    flags = PropertyFlags(finite=True, p_group=2)
    assert propagate_properties(flags, 3).p_group is None
    assert propagate_properties(flags, 4).p_group == 2
    assert propagate_properties(flags, 6).p_group is None


def test_propagate_nilpotency_class_widens():
    flags = PropertyFlags(nilpotent=True, nilpotency_class=(2, 2))
    out = propagate_properties(flags, 2)
    assert out.nilpotent is True
    assert out.nilpotency_class == (2, 3)


def test_propagate_abelian_true_degrades_but_false_persists():
    assert propagate_properties(PropertyFlags(abelian=True), 2).abelian is None
    assert propagate_properties(PropertyFlags(abelian=False), 2).abelian is False


def test_propagate_never_invents_knowledge():
    unknown = PropertyFlags()
    out = propagate_properties(unknown, 5)
    assert all(
        getattr(out, name) is None
        for name in (
            "finite",
            "abelian",
            "cyclic",
            "solvable",
            "supersolvable",
            "polycyclic",
            "nilpotent",
            "virtually_nilpotent",
            "virtually_solvable",
            "p_group",
            "nilpotency_class",
        )
    )


flag_values = st.sampled_from([True, False, None])


@given(
    st.fixed_dictionaries(
        {
            "finite": flag_values,
            "solvable": flag_values,
            "nilpotent": flag_values,
            "virtually_solvable": flag_values,
        }
    ),
    st.integers(2, 9),
)
def test_propagate_is_monotone_information_loss(kwargs, n):
    try:
        flags = PropertyFlags(**kwargs)
    except ValueError:
        return  # contradictory assignment, nothing to propagate
    out = propagate_properties(flags, n)
    for name in ("finite", "solvable", "nilpotent", "virtually_solvable"):
        before, after = getattr(flags, name), getattr(out, name)
        assert after is None or after == before


@st.composite
def valid_flags(draw):
    """A flag record that construction accepts: nine drawn tri-states, a
    small prime or None, and a class interval or None."""
    kw = {name: draw(flag_values) for name in extensions._TRISTATE_FIELDS}
    kw["p_group"] = draw(st.sampled_from([None, 2, 3, 5]))
    bounds = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(sorted).map(tuple)
    kw["nilpotency_class"] = draw(st.one_of(st.none(), bounds))
    try:
        return PropertyFlags(**kw)
    except ValueError:
        assume(False)


kernel_orders_st = st.lists(
    st.one_of(
        st.integers(2, 500),
        st.builds(pow, st.sampled_from([2, 3, 5]), st.integers(1, 12)),
    ),
    min_size=1,
    max_size=8,
)


@given(valid_flags(), kernel_orders_st)
def test_propagate_closed_form_matches_one_kernel_fold(flags, kernels):
    assert propagate_properties(flags, *kernels) == oracles.ref_propagate(flags, kernels)


def test_propagate_needs_a_kernel_order():
    with pytest.raises(ValueError, match="^propagate_properties needs at least one kernel order$"):
        propagate_properties(PropertyFlags())


def test_propagate_checks_every_kernel_order():
    with pytest.raises(ValueError, match="^kernel orders must be >= 2, got 1$"):
        propagate_properties(PropertyFlags(), 2, 4, 1)


def test_props_of_a_tall_tower_match_the_fold():
    kernels = (2, 4) * 30
    tower = Tower(Cyclic(8), kernels)
    flags = props_from_descriptor(tower)
    assert flags == oracles.ref_propagate(props_from_descriptor(Cyclic(8)), kernels)
    assert (flags.p_group, flags.nilpotency_class) == (2, (1, 61))


def test_props_from_descriptor_cyclic():
    flags = props_from_descriptor(Cyclic(8))
    assert flags.cyclic is True
    assert flags.finite is True
    assert flags.p_group == 2
    assert flags.nilpotency_class == (1, 1)


def test_props_from_descriptor_free():
    flags = props_from_descriptor(Free(2))
    assert flags.abelian is False
    assert flags.solvable is False
    assert flags.finite is False
    assert flags.virtually_solvable is False


def test_props_from_descriptor_direct_sum_noncyclic():
    flags = props_from_descriptor(direct_sum(Cyclic(2), Cyclic(2)))
    assert flags.cyclic is False
    assert flags.abelian is True
    assert flags.p_group == 2


def test_props_from_descriptor_tower_keeps_nonabelian():
    base = props_from_descriptor(direct_sum(Free(2), Cyclic(2)))
    assert base.abelian is False
    tower = props_from_descriptor(Tower(direct_sum(Free(2), Cyclic(2)), (3,)))
    assert tower.abelian is False
    assert tower.cyclic is False  # closure: nonabelian forces noncyclic


def test_props_of_prime_order_group():
    flags = props_from_descriptor(FiniteTagged(7))
    assert flags.cyclic is True
    assert flags.p_group == 7


def test_props_of_finite_groups_against_naive_factoring():
    for n in range(1, 301):
        divisors = [p for p in range(2, n + 1) if n % p == 0]
        primes = [p for p in divisors if all(p % q for q in range(2, p))]
        flags = props_from_descriptor(FiniteTagged(n))
        assert flags.finite is True
        assert flags.p_group == (primes[0] if len(primes) == 1 else None)
        assert flags.cyclic is (True if n == 1 or primes == [n] else None)


# ---------------------------------------------------------------------------
# descriptor records read as first homology


@pytest.mark.parametrize(
    "g,expected",
    [
        (Cyclic(5), AbelianInvariants(0, (5,))),
        (Cyclic(1), AbelianInvariants(0, ())),
        (Free(3), AbelianInvariants(3, ())),
        (FreeAbelian(4), AbelianInvariants(4, ())),
    ],
)
def test_to_presentation_abelianization(g, expected):
    assert oracles.h1_of_record(g) == expected
    if not g.free:  # an abelian group is its own first homology
        assert order_of(g) == expected.order


def test_to_presentation_unrecognized():
    assert oracles.h1_of_record(Tower(Cyclic(2), (2,))) is None
