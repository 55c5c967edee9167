"""Every integer-taking entry point refuses bools, floats, numeric strings
and values below its bound with a ValueError that names the argument."""

import re

import pytest

from curvegroups.constructions import General, Mixed, Special, Uludag, added_singularities, degree_after
from curvegroups.curves import seed_smooth
from curvegroups.extensions import Cyclic, PropertyFlags, central_extend, propagate_properties, split_test
from curvegroups.fpgroup import (
    EMPTY_WORD,
    AbelianInvariants,
    Word,
    cyclic_quotient_order,
    local_group,
    local_group_center,
    smith_normal_form,
)
from curvegroups.meridians import MeridianState
from curvegroups.singularities import BlowdownEntry, SingularityType, blowdown_type
from curvegroups.zariski import DISTINGUISHER_NONE, ZariskiPairRecord, enumerate_family, seed_pair

NODE = SingularityType((2,))
H1 = AbelianInvariants(0, (2,))
CURVE = seed_smooth(2)
PAIR = seed_pair(CURVE, CURVE)

# (id, call with the value under test, name in the message, least allowed or None)
ENTRY_POINTS = [
    ("smith_normal_form", lambda v: smith_normal_form([[v, 2], [3, 4]]), "matrix entries", None),
    ("Word-power", lambda v: Word.parse("a b") ** v, "exponents", None),
    ("cyclic_quotient_order", lambda v: cyclic_quotient_order((v,)), "transformation counts", 1),
    ("local_group", lambda v: local_group(v), "branch counts", 2),
    ("local_group_center", lambda v: local_group_center(v), "branch counts", 1),
    ("Uludag", lambda v: Uludag(v), "raise counts", 1),
    ("General", lambda v: General((1, v)), "raise counts", 1),
    ("Special", lambda v: Special(v), "raise counts", 1),
    ("Mixed-lower", lambda v: Mixed((1,), (v,)), "lower counts", 1),
    ("degree_after", lambda v: degree_after(v, Uludag(1)), "degrees", 1),
    ("added_singularities", lambda v: added_singularities(v, Uludag(1)), "degrees", 1),
    ("propagate_properties", lambda v: propagate_properties(PropertyFlags(), v), "kernel orders", 2),
    ("central_extend", lambda v: central_extend(Cyclic(2), v), "kernel orders", 2),
    ("split_test-components", lambda v: split_test(H1, v, 2), "component counts", 1),
    ("split_test-kernel", lambda v: split_test(H1, 1, v), "kernel orders", 2),
    ("SingularityType", lambda v: SingularityType((2, v)), "multiplicity entries", 1),
    ("from_runs-entry", lambda v: SingularityType.from_runs([(v, 2)]), "multiplicity entries", 1),
    ("from_runs-length", lambda v: SingularityType.from_runs([(2, v)]), "run lengths", 1),
    ("BlowdownEntry", lambda v: BlowdownEntry(v, (NODE,)), "blow-down head multiplicities", 2),
    ("blowdown_type", lambda v: blowdown_type(v, [NODE, NODE]), "blow-down head multiplicities", 2),
    ("blowdown_type-flat", lambda v: blowdown_type(v, [NODE]), "blow-down head multiplicities", 2),
    ("MeridianState", lambda v: MeridianState(v, EMPTY_WORD, ()), "Hirzebruch indices", 1),
    (
        "ZariskiPairRecord",
        lambda v: ZariskiPairRecord(CURVE, CURVE, True, DISTINGUISHER_NONE, v),
        "generations",
        0,
    ),
    ("enumerate_family", lambda v: enumerate_family(PAIR, v), "family bounds", 0),
]

CASES = [
    pytest.param(call, value, f"{what} must be integers, got {value!r}", id=f"{name}-{value!r}")
    for name, call, what, least in ENTRY_POINTS
    for value in (True, 2.5, "3")
] + [
    pytest.param(call, least - 1, f"{what} must be >= {least}, got {least - 1}", id=f"{name}-below")
    for name, call, what, least in ENTRY_POINTS
    if least is not None
]


@pytest.mark.parametrize("call,value,message", CASES)
def test_integer_arguments_are_checked_by_name(call, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)

