import pytest

from curvegroups.curves import (
    CurveDatum,
    custom_seed,
    h1_from_degrees,
    seed_generic_lines,
    seed_pencil,
    seed_smooth,
)
from curvegroups.extensions import (
    Cyclic,
    FiniteTagged,
    Free,
    FreeAbelian,
    PropertyFlags,
)
from curvegroups.fpgroup import AbelianInvariants
from curvegroups.singularities import SingularityType, multiset

import oracles


@pytest.mark.parametrize("value", [2.5, True, "3"])
@pytest.mark.parametrize(
    "seed,what",
    [(seed_smooth, "smooth curve degrees"), (seed_pencil, "pencil line counts"), (seed_generic_lines, "generic line counts")],
    ids=["smooth", "pencil", "generic-lines"],
)
def test_seeds_reject_non_integers_by_name(seed, what, value):
    with pytest.raises(ValueError, match=f"^{what} must be integers, got {value!r}$"):
        seed(value)


def test_seed_smooth_line_is_simply_connected():
    c = seed_smooth(1)
    assert c.group == Cyclic(1)
    assert c.degree == 1
    assert c.irreducible


def test_seed_smooth_conic_and_cubic():
    assert seed_smooth(2).group == Cyclic(2)
    assert seed_smooth(3).group == Cyclic(3)
    assert len(seed_smooth(3).singularities) == 0
    assert seed_smooth(3).props.cyclic is True
    assert seed_smooth(3).props.finite is True


def test_seed_smooth_rejects_degree_zero():
    with pytest.raises(ValueError):
        seed_smooth(0)


def test_seed_pencil():
    c = seed_pencil(3)
    assert c.component_degrees == (1, 1, 1)
    assert c.singularities == multiset([SingularityType((3,))])
    assert c.group == Free(2)
    assert c.props.abelian is False
    assert seed_pencil(5).group == Free(4)


def test_seed_pencil_two_lines_group_is_infinite_cyclic():
    c = seed_pencil(2)
    assert c.group == Free(1)
    assert c.props.cyclic is True
    assert c.props.finite is False


def test_seed_generic_lines():
    c = seed_generic_lines(3)
    assert c.component_degrees == (1, 1, 1)
    assert len(c.singularities) == 3
    assert set(c.singularities) == {SingularityType((2,))}
    assert c.group == FreeAbelian(2)
    assert seed_generic_lines(4).group == FreeAbelian(3)
    assert len(seed_generic_lines(4).singularities) == 6


def test_two_generic_lines_coincide_with_the_pencil():
    assert seed_generic_lines(2) == seed_pencil(2)


def test_seed_validation():
    with pytest.raises(ValueError):
        seed_pencil(1)
    with pytest.raises(ValueError):
        seed_generic_lines(1)


def test_h1_from_degrees_irreducible():
    assert h1_from_degrees([5]) == AbelianInvariants(0, (5,))
    assert h1_from_degrees([1]) == AbelianInvariants(0, ())


def test_h1_from_degrees_two_lines():
    assert h1_from_degrees([1, 1]) == AbelianInvariants(1, ())


def test_h1_from_degrees_two_conics():
    assert h1_from_degrees([2, 2]) == AbelianInvariants(1, (2,))


def test_h1_from_degrees_rejects_bad_input():
    with pytest.raises(ValueError):
        h1_from_degrees([])
    with pytest.raises(ValueError):
        h1_from_degrees([0, 2])


@pytest.mark.parametrize("d", range(1, 7))
def test_smooth_seed_group_matches_h1(d):
    c = seed_smooth(d)
    assert oracles.h1_of_record(c.group) == h1_from_degrees(c.component_degrees)


@pytest.mark.parametrize("m", range(2, 7))
def test_pencil_seed_group_matches_h1(m):
    c = seed_pencil(m)
    assert oracles.h1_of_record(c.group) == h1_from_degrees(c.component_degrees)


@pytest.mark.parametrize("m", range(2, 7))
def test_generic_lines_seed_group_matches_h1(m):
    c = seed_generic_lines(m)
    assert oracles.h1_of_record(c.group) == h1_from_degrees(c.component_degrees)


def test_custom_seed_props_unknown_until_asserted():
    sings = multiset([SingularityType((2,))] * 6)
    c = custom_seed((6,), sings, FiniteTagged(12))
    assert c.props.abelian is None
    assert c.props.finite is None
    asserted = custom_seed(
        (6,), sings, FiniteTagged(12), asserted_props=PropertyFlags(abelian=False)
    )
    assert asserted.props.abelian is False
    assert asserted.props.cyclic is False  # closure: nonabelian is never cyclic
    assert any(entry.op == "assert" for entry in asserted.log)


def test_custom_seed_canonicalizes_group():
    c = custom_seed((2, 2), multiset([]), FreeAbelian(1))
    assert c.group == Free(1)


def test_log_is_append_only_and_ordered():
    c = seed_smooth(2)
    c2 = c.logged("note", "extra step")
    assert [e.seq for e in c2.log] == list(range(len(c2.log)))
    assert c2.log[: len(c.log)] == c.log


def test_curve_datum_validation():
    with pytest.raises(ValueError):
        CurveDatum((), multiset([]), Cyclic(1), PropertyFlags())
    with pytest.raises(ValueError):
        CurveDatum((0,), multiset([]), Cyclic(1), PropertyFlags())
