import itertools
import re

import pytest
from hypothesis import given, strategies as st

from curvegroups.fpgroup import (
    AbelianInvariants,
    Presentation,
    SINGLE_BRANCH_LOCAL_GROUP,
    Word,
    abelianization,
    commutator,
    cyclic_quotient_order,
    free_reduce,
    generator,
    local_group,
    local_group_center,
    quotient,
    smith_normal_form,
)

from conftest import deadline
from oracles import (
    bareiss_determinant,
    invariant_factors_by_minors,
    naive_reduce,
    ref_free_reduce,
    ref_parse_letters,
    ref_word_text,
)

letters_st = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from([1, -1])),
    max_size=30,
).map(tuple)

words_st = letters_st.map(Word)


# ---------------------------------------------------------------------------
# words and free reduction


def test_free_reduce_cancels_inverse_pair():
    assert free_reduce(Word.parse("a a^-1")).letters == ()


def test_free_reduce_single_cancellation():
    assert free_reduce(Word.parse("a b b^-1 a")).letters == (("a", 1), ("a", 1))


def test_free_reduce_repeated_cancellation():
    # expected value computed with the naive repeated-scan oracle
    w = Word.parse("a b^-1 b a^-1 a b")
    assert naive_reduce(w.letters) == (("a", 1), ("b", 1))
    assert free_reduce(w).letters == (("a", 1), ("b", 1))


@given(letters_st)
def test_free_reduce_matches_naive_oracle(letters):
    assert free_reduce(Word(letters)).letters == naive_reduce(letters)


@given(words_st)
def test_free_reduce_idempotent_and_nonincreasing(w):
    once = free_reduce(w)
    assert free_reduce(once) == once
    assert len(once) <= len(w)


@given(words_st)
def test_word_print_parse_round_trip(w):
    reduced = free_reduce(w)
    assert Word.parse(str(reduced)).letters == reduced.letters


def test_word_equality_is_reduced_equality():
    assert Word.parse("a b b^-1") == Word.parse("a")
    assert hash(Word.parse("a b b^-1")) == hash(Word.parse("a"))
    assert Word.parse("a") != Word.parse("b")


@given(words_st, words_st)
def test_word_inverse_cancels(u, v):
    assert not (u * u.inverse())
    assert (u * v).inverse() == v.inverse() * u.inverse()


def test_word_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Word.parse("a^")
    with pytest.raises(ValueError):
        Word.parse("3a")


@pytest.mark.parametrize("sign", [True, False, 1.0, -1.0, "1"])
def test_word_rejects_letter_signs_that_are_not_int(sign):
    with pytest.raises(ValueError, match=f"^letter sign must be \\+1 or -1, got {re.escape(repr(sign))}$"):
        Word((("a", sign),))


def test_word_exponent_sum():
    w = Word.parse("a^3 b a^-1")
    assert w.exponent_sum("a") == 2
    assert w.exponent_sum("b") == 1
    assert w.exponent_sum("c") == 0


# ---------------------------------------------------------------------------
# the run form against the letter-by-letter reference

# word texts of `name` and `name^int` terms, zero and repeated exponents included
texts_st = st.lists(
    st.tuples(st.sampled_from(["a", "b", "x1"]), st.one_of(st.none(), st.integers(-5, 5))),
    max_size=10,
).map(lambda terms: " ".join(g if e is None else f"{g}^{e}" for g, e in terms))

any_letters_st = st.one_of(letters_st, texts_st.map(ref_parse_letters))


def assert_matches_letters(w, letters):
    assert w.letters == letters
    assert str(w) == ref_word_text(letters)
    assert len(w) == len(letters)
    for g in ("a", "b", "c", "x1"):
        assert w.exponent_sum(g) == sum(s for h, s in letters if h == g)
    assert free_reduce(w).letters == ref_free_reduce(letters) == naive_reduce(letters)
    assert bool(w) == bool(ref_free_reduce(letters))
    # one representation: no zero exponent, neighbours differ in generator or sign
    assert all(e for _, e in w.runs)
    assert all(g != h or (e > 0) != (f > 0) for (g, e), (h, f) in zip(w.runs, w.runs[1:]))


@given(any_letters_st)
def test_word_from_letters_matches_letter_reference(letters):
    assert_matches_letters(Word(letters), letters)


@given(texts_st)
def test_word_parse_matches_letter_reference(text):
    letters = ref_parse_letters(text)
    w = Word.parse(text)
    assert_matches_letters(w, letters)
    assert w.runs == Word(letters).runs


@given(any_letters_st, any_letters_st)
def test_word_equality_hash_and_product_match_letter_reference(u, v):
    a, b = Word(u), Word(v)
    assert (a == b) == (ref_free_reduce(u) == ref_free_reduce(v))
    if a == b:
        assert hash(a) == hash(b)
    assert_matches_letters(a * b, u + v)
    assert_matches_letters(a.inverse(), tuple((g, -s) for g, s in reversed(u)))


@given(any_letters_st, st.integers(-4, 4))
def test_word_power_matches_repeated_letters(letters, n):
    inverse = tuple((g, -s) for g, s in reversed(letters))
    assert_matches_letters(Word(letters) ** n, letters * n if n >= 0 else inverse * -n)


def test_word_keeps_runs_unreduced():
    assert str(Word.parse("a a^-1")) == "a a^-1"
    assert str(Word.parse("a^2 a^3 a^0 b^-1 b^-1")) == "a^5 b^-2"
    assert Word.parse("a^2 a^-1").runs == (("a", 2), ("a", -1))
    assert Word.parse("a^0").runs == ()


def test_word_with_a_huge_exponent_is_one_run():
    with deadline(1.0):
        w = Word.parse("x^1000000000")
        assert w.runs == (("x", 10**9),)
        assert str(w) == "x^1000000000"
        assert len(w) == 10**9
        assert w.exponent_sum("x") == 10**9
        assert str(w**-3) == "x^-3000000000"
        assert str(free_reduce(w * Word.parse("x^-999999999 y"))) == "x y"
        assert w == Word.parse("x^999999999 x") != Word.parse("x^999999999")


def test_abelianization_of_a_huge_exponent_relator():
    with deadline(1.0):
        p = Presentation(("x",), (Word.parse("x^1000000000"),))
        assert abelianization(p) == AbelianInvariants(0, (10**9,))


# ---------------------------------------------------------------------------
# smith normal form


def test_snf_identity():
    assert smith_normal_form([[1, 0], [0, 1]]) == (1, 1)


def test_snf_frozen_example():
    # brute-force oracle: D1 = gcd of entries = 2, D2 = |det| = 8, so (2, 4)
    assert invariant_factors_by_minors([[2, 4], [6, 8]]) == (2, 4)
    assert smith_normal_form([[2, 4], [6, 8]]) == (2, 4)


def test_snf_zero_matrix():
    assert smith_normal_form([[0, 0], [0, 0]]) == ()


def test_snf_rectangular():
    assert smith_normal_form([[2, 0, 0]]) == (2,)
    assert smith_normal_form([[0], [3], [0]]) == (3,)


def test_snf_empty():
    assert smith_normal_form([]) == ()


def test_snf_rejects_ragged():
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])


matrices_st = st.lists(
    st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=3, max_size=3
)


@given(matrices_st)
def test_snf_divisibility_chain_and_determinant(m):
    factors = smith_normal_form(m)
    assert all(d > 0 for d in factors)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    det = bareiss_determinant(m)
    if det != 0:
        assert len(factors) == 3
        product = factors[0] * factors[1] * factors[2]
        assert product == abs(det)


@given(matrices_st)
def test_snf_matches_minor_gcd_oracle(m):
    assert smith_normal_form(m) == invariant_factors_by_minors(m)


# ---------------------------------------------------------------------------
# presentations, abelianization, local groups


def test_abelianization_cyclic():
    for d in range(2, 8):
        p = Presentation(("a",), (Word.parse(f"a^{d}"),))
        assert abelianization(p) == AbelianInvariants(0, (d,))


def test_abelianization_commutator():
    p = Presentation(("a", "b"), (commutator(generator("a"), generator("b")),))
    assert abelianization(p) == AbelianInvariants(2, ())


def test_abelianization_local_group():
    # two commutator relators have zero exponent rows, so rank 0
    assert abelianization(local_group(3)) == AbelianInvariants(3, ())


def test_local_group_presentations():
    assert str(local_group(2)) == "< a a2 | a a2 a^-1 a2^-1 >"
    p = local_group(3)
    assert p.generators == ("a", "a2", "a3")
    assert p.relators == (
        commutator(generator("a"), generator("a2")),
        commutator(generator("a"), generator("a3")),
    )


def test_local_group_rejects_small_k():
    with pytest.raises(ValueError):
        local_group(1)
    assert SINGLE_BRANCH_LOCAL_GROUP.generators == ("a",)
    assert SINGLE_BRANCH_LOCAL_GROUP.relators == ()


def test_local_group_center():
    assert local_group_center(3) == ("a", ("a1", "a2", "a3"))


@pytest.mark.parametrize("k", range(2, 9))
def test_local_group_abelianization_is_free_of_rank_k(k):
    assert abelianization(local_group(k)) == AbelianInvariants(k, ())


def test_quotient_appends_relator():
    p = Presentation(("a",))
    q = quotient(p, [Word.parse("a^3")])
    assert q.relators == (Word.parse("a^3"),)


def test_quotient_identity():
    p = local_group(2)
    assert quotient(p, []) == p


def test_quotient_rejects_unknown_generator():
    with pytest.raises(ValueError):
        quotient(Presentation(("a",)), [Word.parse("b")])


def test_quotient_of_local_group_gives_cyclic_of_order_three():
    # relations a^{n_i} a_i for (n1, n2) = (1, 1), with the first branch
    # meridian rewritten as a * a2^-1; homology is Z/3 = Z/(n1+n2+1)
    p = quotient(local_group(2), [Word.parse("a^2 a2^-1"), Word.parse("a a2")])
    assert abelianization(p) == AbelianInvariants(0, (3,))


def test_quotient_abelianization_order_insensitive():
    p = local_group(2)
    extras = [Word.parse("a^3"), Word.parse("a2^2")]
    one = abelianization(quotient(quotient(p, extras[:1]), extras[1:]))
    other = abelianization(quotient(quotient(p, extras[1:]), extras[:1]))
    assert one == other == abelianization(quotient(p, extras))


def test_presentation_drops_empty_relators():
    p = Presentation(("a",), (Word.parse("a a^-1"),))
    assert p.relators == ()


def test_presentation_rejects_undeclared_generator():
    with pytest.raises(ValueError):
        Presentation(("a",), (Word.parse("b"),))


def test_presentation_rejects_duplicate_generators():
    with pytest.raises(ValueError):
        Presentation(("a", "a"))


# ---------------------------------------------------------------------------
# the abelianized kernel order


def test_cyclic_quotient_order_single_fiber():
    for n in range(1, 7):
        assert cyclic_quotient_order((n,)) == n + 1


def test_cyclic_quotient_order_multi_fiber_cases():
    assert cyclic_quotient_order((1, 1)) == 3
    assert cyclic_quotient_order((2, 3, 4)) == 10


def test_cyclic_quotient_order_rejects_bad_counts():
    with pytest.raises(ValueError):
        cyclic_quotient_order(())
    with pytest.raises(ValueError):
        cyclic_quotient_order((1, 0))


def test_cyclic_quotient_order_small_grid():
    for k in range(1, 4):
        for counts in itertools.product(range(1, 4), repeat=k):
            assert cyclic_quotient_order(counts) == sum(counts) + 1


# ---------------------------------------------------------------------------
# invariant containers


def test_abelian_invariants_validation():
    with pytest.raises(ValueError):
        AbelianInvariants(-1, ())
    with pytest.raises(ValueError):
        AbelianInvariants(0, (1,))
    with pytest.raises(ValueError):
        AbelianInvariants(0, (4, 6))
    inv = AbelianInvariants(1, (2, 4))
    assert inv.summand_count == 3
    assert inv.order is None
    assert AbelianInvariants(0, (2, 4)).order == 8
