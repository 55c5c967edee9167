import pytest

from curvegroups.constructions import General, Mixed, Special, Uludag, kernel_order
from curvegroups.fpgroup import Word, cyclic_quotient_order, smith_normal_form
from curvegroups.meridians import (
    elem_first,
    elem_second,
    generator_for_label,
    init_state,
    max_index,
    replay,
    trace_lines,
)


def letters(*names):
    return Word(tuple((n, 1) for n in names))


def expected_raised_word(k, n, i):
    """(b a1 ... ak)^n * ai, written out letter for letter."""
    block = ["b"] + [f"a{j}" for j in range(1, k + 1)]
    return letters(*(block * n + [f"a{i}"]))


# ---------------------------------------------------------------------------
# fiber labels


@pytest.mark.parametrize(
    "label, name",
    [
        ("P", "b"),
        ("P12", "b12"),
        ("P\u0663", "b\u0663"),  # an Arabic-Indic digit is a decimal digit
        ("Q", "Q"),
        ("Q3", "a3"),
        ("L", "a"),
        ("L1", "L1"),
        ("X", "X"),
        ("Pa", "Pa"),
    ],
)
def test_generator_for_label(label, name):
    assert generator_for_label(label) == name


# ---------------------------------------------------------------------------
# initial state


def test_init_state_orders_the_exceptional_meridian():
    s = init_state(("P", "Q1", "Q2"))
    assert s.index == 1
    assert s.exceptional.letters == letters("b", "a1", "a2").letters
    assert s.word("Q1").letters == letters("a1").letters


def test_init_state_single_line():
    s = init_state(("L",))
    assert s.exceptional.letters == letters("a").letters


def test_init_state_two_lines():
    s = init_state(("P", "Q1"))
    assert s.exceptional.letters == letters("b", "a1").letters


def test_init_state_rejects_empty_or_duplicate():
    with pytest.raises(ValueError):
        init_state(())
    with pytest.raises(ValueError):
        init_state(("P", "P"))


# ---------------------------------------------------------------------------
# elementary transformations


def test_elem_first_left_multiplies_by_the_exceptional_meridian():
    s = init_state(("P", "Q1", "Q2"))
    s1 = elem_first(s, "Q1")
    assert s1.index == 2
    assert s1.word("Q1").letters == letters("b", "a1", "a2", "a1").letters
    # other fibers untouched
    assert s1.word("Q2") == s.word("Q2")
    assert s1.word("P") == s.word("P")
    assert s1.exceptional == s.exceptional


def test_elem_first_unknown_fiber():
    with pytest.raises(KeyError):
        elem_first(init_state(("P",)), "Q1")


def test_elem_second_preserves_words_and_lowers_index():
    s = elem_first(init_state(("P", "Q1")), "Q1")
    s2 = elem_second(s, "P")
    assert s2.index == 1
    assert s2.fibers == s.fibers


def test_elem_second_rejected_on_surface_one():
    with pytest.raises(ValueError):
        elem_second(init_state(("P", "Q1")), "P")


def test_raise_then_lower_is_not_the_identity():
    s = init_state(("P", "Q1"))
    round_trip = elem_second(elem_first(s, "Q1"), "Q1")
    assert round_trip.index == s.index
    assert round_trip.word("Q1") != s.word("Q1")


# ---------------------------------------------------------------------------
# schedule replay


def test_run_schedule_single_fiber_special_case():
    for n in range(1, 7):
        words = replay(Special(n)).words()
        assert words["L"].letters == (("a", 1),) * (n + 1)


def test_run_schedule_general_closed_form_small():
    words = replay(General((2, 1))).words()
    assert words["P"].letters == letters("b").letters
    assert words["Q1"].letters == expected_raised_word(2, 2, 1).letters
    assert words["Q2"].letters == expected_raised_word(2, 1, 2).letters


def test_run_schedule_single_fiber_pair():
    assert replay(Uludag(3)).words() == replay(General((3,))).words()


def test_run_schedule_mixed_keeps_lower_fiber_meridians():
    words = replay(Mixed((2, 1), (1, 1, 1))).words()
    assert words["P1"].letters == letters("b1").letters
    assert words["P2"].letters == letters("b2").letters
    assert words["P3"].letters == letters("b3").letters
    # raised words use the full exceptional meridian b1 b2 b3 a1 a2
    block = ["b1", "b2", "b3", "a1", "a2"]
    assert words["Q1"].letters == letters(*(block * 2 + ["a1"])).letters



def test_mixed_with_one_lower_fiber_keeps_its_numbered_label():
    mixed, general = replay(Mixed((2, 1), (3,))), replay(General((2, 1)))
    assert mixed.labels() == ("P1", "Q1", "Q2")
    assert general.labels() == ("P", "Q1", "Q2")
    assert mixed.word("P1").letters == letters("b1").letters
    assert general.word("P").letters == letters("b").letters
    assert mixed.word("Q1").letters == letters(*(["b1", "a1", "a2"] * 2 + ["a1"])).letters
    assert general.word("Q1").letters == expected_raised_word(2, 2, 1).letters
    assert mixed.trace[-1] == (1, "type2", "P1")
    assert general.trace[-1] == (1, "type2", "P")


def test_replay_final_index_and_maximum():
    for counts in [(1,), (3,), (2, 1), (1, 1, 2)]:
        state = replay(General(counts))
        assert state.index == 1
        assert max_index(state) == sum(counts) + 1


def test_replay_reports_step_numbers_on_bad_schedules():
    # an over-lowering schedule cannot be expressed through specs; drive the
    # primitive steps directly to check the guard
    s = init_state(("P", "Q1"))
    s = elem_first(s, "Q1")
    s = elem_second(s, "P")
    with pytest.raises(ValueError):
        elem_second(s, "P")


def test_trace_format():
    state = replay(General((1, 1)))
    lines = trace_lines(state)
    assert lines[0] == "F1 init P Q1 Q2"
    assert "F2 type1 Q1" in lines
    assert "F3 type1 Q2" in lines
    assert lines.count("F2 type2 P") + lines.count("F1 type2 P") == 2
    assert any(line.startswith("Q1 = ") for line in lines)


# ---------------------------------------------------------------------------
# consistency with the group-theoretic kernel


def recovered_counts(words, k):
    """Read n_i back off the meridian words with the lowering generator(s)
    erased, checking the closed form on the way."""
    counts = []
    for i in range(1, k + 1):
        word = words[f"Q{i}"]
        erased = Word(tuple((g, s) for g, s in word.letters if not g.startswith("b")))
        exponents = [erased.exponent_sum(f"a{j}") for j in range(1, k + 1)]
        n = exponents[(i % k)] if k > 1 else exponents[0] - 1
        block = [(f"a{j}", 1) for j in range(1, k + 1)]
        assert erased.letters == tuple(block * n) + ((f"a{i}", 1),)
        counts.append(n)
    return tuple(counts)


@pytest.mark.parametrize("counts", [(1,), (2,), (1, 1), (3, 2), (2, 1, 3)])
def test_meridian_words_reproduce_the_kernel_order(counts):
    k = len(counts)
    words = replay(General(counts)).words()
    assert recovered_counts(words, k) == counts
    assert cyclic_quotient_order(counts) == kernel_order(General(counts))
    # independent route: abelianize the relator words directly
    rows = [
        [words[f"Q{i}"].exponent_sum(f"a{j}") for j in range(1, k + 1)]
        for i in range(1, k + 1)
    ]
    factors = smith_normal_form(rows)
    order = 1
    for f in factors:
        order *= f
    assert len(factors) == k
    assert order == kernel_order(General(counts))
