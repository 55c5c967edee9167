import json
import re

import pytest
from hypothesis import given, strategies as st

from curvegroups.constructions import General, Special, Uludag, apply, audit_self_intersection, parse_spec
from curvegroups.curves import custom_seed, seed_generic_lines, seed_pencil, seed_smooth
from curvegroups.documents import (
    _group_from_json,
    audit_to_json,
    curve_from_json,
    curve_to_json,
    decode_int,
    encode_int,
    group_to_json,
    pair_to_json,
    parse_document,
    render_document,
)
from curvegroups.extensions import Cyclic, FiniteTagged, Free, PropertyFlags, Tower
from curvegroups.fpgroup import Presentation, Word
from curvegroups.singularities import SingularityType, multiset
from curvegroups.zariski import lift_pair, seed_pair


def test_int_encoding_thresholds():
    assert encode_int(7) == 7
    assert encode_int(-(2**53 - 1)) == -(2**53 - 1)
    big = 2**64 + 3
    assert encode_int(big) == str(big)
    assert decode_int(encode_int(big), "n") == big
    assert decode_int(5, "n") == 5
    for value, got in ((1.5, "1.5"), (True, "true"), (None, "null"), ("x", '"x"'), ([], "an array")):
        with pytest.raises(ValueError, match=f"^curve\\.degree: expected an integer or decimal string, got {re.escape(got)}$"):
            decode_int(value, "curve.degree")


def test_document_round_trip_for_seeds():
    for seed in (seed_smooth(3), seed_pencil(4), seed_generic_lines(3)):
        text = render_document(seed)
        back, reports = parse_document(text)
        assert back == seed
        assert reports == {}


def test_document_round_trip_after_constructions():
    curve = apply(apply(seed_smooth(2), Uludag(1)), General((2, 1)))
    back, _ = parse_document(render_document(curve))
    assert back == curve


def test_document_keeps_reports_section():
    report = audit_self_intersection(1, Special(1))
    text = render_document(seed_smooth(1), {"audit": audit_to_json(report)})
    _, reports = parse_document(text)
    assert reports == {"audit": audit_to_json(report)}


def test_group_round_trip_with_presentation_inside_tower():
    pres = Presentation(("x", "y"), (Word.parse("x^2 y^-3"),))
    g = Tower(FiniteTagged(12, pres), (2, 2))
    assert _group_from_json(group_to_json(g), "group") == g


def test_curve_json_is_deterministic():
    curve = apply(seed_pencil(3), Uludag(2))
    assert render_document(curve) == render_document(curve)
    data = curve_to_json(curve)
    assert curve_from_json(json.loads(json.dumps(data))) == curve


def test_parse_document_validates_schema_version():
    with pytest.raises(ValueError):
        parse_document(json.dumps({"curve": {}}))
    with pytest.raises(ValueError):
        parse_document(json.dumps({"schema_version": "99", "curve": {}}))


def test_parse_document_validates_degree():
    doc = json.loads(render_document(seed_smooth(2)))
    doc["curve"]["degree"] = 3
    with pytest.raises(ValueError):
        parse_document(json.dumps(doc))


def test_irreducible_must_agree_with_component_degrees():
    doc = json.loads(render_document(seed_pencil(3)))
    doc["curve"]["irreducible"] = True
    with pytest.raises(ValueError, match=r"^curve\.irreducible: expected false, got true$"):
        parse_document(json.dumps(doc))
    del doc["curve"]["irreducible"]  # a missing value is derived
    assert parse_document(json.dumps(doc))[0] == seed_pencil(3)


def test_pair_record_round_trip():
    sings = multiset([SingularityType((2,))] * 6)
    left = custom_seed((6,), sings, Cyclic(6))
    right = custom_seed(
        (6,), sings, FiniteTagged(12), asserted_props=PropertyFlags(abelian=False)
    )
    record = lift_pair(seed_pair(left, right), Uludag(1))
    data = json.loads(json.dumps(pair_to_json(record)))
    assert curve_from_json(data["left"]) == record.left
    assert curve_from_json(data["right"]) == record.right
    assert (data["combinatorics_equal"], data["distinguisher"], data["generation"]) == (
        record.combinatorics_equal,
        record.distinguisher,
        record.generation,
    )
    assert parse_spec(data["parent_spec"]) == record.parent_spec


seeds_st = st.one_of(
    st.integers(1, 5).map(seed_smooth),
    st.integers(2, 5).map(seed_pencil),
    st.integers(2, 5).map(seed_generic_lines),
)

specs_st = st.one_of(
    st.integers(1, 3).map(Uludag),
    st.lists(st.integers(1, 3), min_size=1, max_size=3).map(lambda c: General(tuple(c))),
    st.integers(1, 3).map(Special),
)


@given(seeds_st, st.lists(specs_st, max_size=3))
def test_document_round_trip_fuzzed(seed, specs):
    curve = seed
    for spec in specs:
        curve = apply(curve, spec)
    back, _ = parse_document(render_document(curve))
    assert back == curve


@pytest.mark.parametrize(
    "tree,expected",
    [
        ({"kind": "direct-sum", "parts": [{"kind": "cyclic", "order": 2}, {"kind": "cyclic", "order": 3}]}, Cyclic(6)),
        ({"kind": "free", "rank": 0}, Cyclic(1)),
        ({"kind": "free-abelian", "rank": 1}, Free(1)),
    ],
)
def test_group_trees_read_into_canonical_form(tree, expected):
    g = _group_from_json({"form": "unused", "tree": tree}, "group")
    assert g == expected
    assert group_to_json(g) == group_to_json(expected)


@pytest.mark.parametrize(
    "tree",
    [
        {"kind": "quaternion", "order": 8},
        {"kind": "direct-sum", "parts": [{"kind": "cyclic", "order": 2}]},
        {"kind": "direct-sum", "parts": []},
    ],
)
def test_group_tree_rejects_unknown_kinds_and_short_sums(tree):
    with pytest.raises(ValueError):
        _group_from_json({"tree": tree}, "group")
