"""Run-length singularity types against the expanded-entry references, and
constructions whose counts are far too large to expand."""

import json

from hypothesis import given, strategies as st

import oracles
from conftest import deadline
from curvegroups.cli import main
from curvegroups.constructions import General, apply, audit_self_intersection
from curvegroups.curves import seed_smooth
from curvegroups.singularities import (
    BlowdownEntry,
    SingularityType,
    blowdown_type,
    drop,
    format_type,
    multiset,
    parse_type,
    type_key,
)

# small values and counts, so equal neighbours, 1s and shared prefixes are common
plain_runs = st.lists(st.tuples(st.integers(1, 3), st.integers(1, 4)), min_size=1, max_size=5)


def _with_blowdowns(children):
    entry = st.one_of(
        st.integers(1, 3),
        st.builds(BlowdownEntry, st.integers(2, 4), st.lists(children, min_size=1, max_size=3).map(tuple)),
    )
    return st.lists(st.tuples(entry, st.integers(1, 3)), min_size=1, max_size=4).map(SingularityType.from_runs)


types_st = st.recursive(plain_runs.map(SingularityType.from_runs), _with_blowdowns, max_leaves=8)


@st.composite
def type_pairs(draw):
    """Two types that often share a prefix and differ only in a run length
    or in what follows it."""
    prefix = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), max_size=2))
    tails = [draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), max_size=3)) for _ in range(2)]
    if draw(st.booleans()):
        return tuple(SingularityType.from_runs(prefix + tail or [(1, 1)]) for tail in tails)
    return draw(types_st), draw(types_st)


def runs_text(t):
    """Every plain run written as value_count, even counts 1 and 2: a text
    the printer never emits but the parser must read."""
    parts = []
    for e, count in t.runs:
        if isinstance(e, int):
            parts.append(f"{e}_{count}")
        else:
            inner = ",".join(f"|{runs_text(c)}|" for c in e.clusters)
            parts.extend([f"{e.head},({inner})"] * count)
    return "[" + ",".join(parts) + "]"


@given(types_st)
def test_runs_are_canonical_and_match_the_expanded_form(t):
    assert all(count >= 1 for _, count in t.runs)
    assert all(a[0] != b[0] for a, b in zip(t.runs, t.runs[1:]))
    assert sum(count for _, count in t.runs) == len(t.entries)
    rebuilt = SingularityType(t.entries)
    assert rebuilt == t and rebuilt.runs == t.runs and hash(rebuilt) == hash(t)


@given(type_pairs())
def test_order_equality_and_hash_match_the_expanded_reference(pair):
    a, b = pair
    assert (type_key(a) < type_key(b)) == (oracles.ref_type_key(a) < oracles.ref_type_key(b))
    assert (type_key(a) == type_key(b)) == (oracles.ref_type_key(a) == oracles.ref_type_key(b))
    assert (a == b) == (oracles.ref_type_key(a) == oracles.ref_type_key(b))
    if a == b:
        assert hash(a) == hash(b)


@given(types_st)
def test_drop_and_text_match_the_expanded_reference(t):
    assert drop(t) == oracles.ref_drop(t)
    for elide_ones in (False, True):
        assert format_type(t, elide_ones) == oracles.ref_format_type(t, elide_ones)


@given(types_st)
def test_parse_matches_the_expanded_reference(t):
    for text in (format_type(t), runs_text(t)):
        parsed = parse_type(text)
        assert parsed == t == oracles.ref_parse_type(text)
        assert parsed.runs == t.runs
    pretty = t.pretty()
    assert parse_type(pretty) == oracles.ref_parse_type(pretty)


@given(st.integers(2, 4), types_st)
def test_blowdown_merges_its_head_into_a_flat_cluster(head, t):
    merged = blowdown_type(head, [t])
    if all(isinstance(e, int) for e in t.entries):
        assert merged.entries == (head,) + t.entries
    else:
        assert merged.entries == (BlowdownEntry(head, (t,)),)
    assert format_type(merged) == oracles.ref_format_type(merged)
    assert drop(merged) == oracles.ref_drop(merged)


def test_blowdown_of_an_equal_head_is_one_run():
    assert blowdown_type(2, [SingularityType((2,))]).runs == ((2, 2),)
    assert blowdown_type(3, [SingularityType((3, 3, 2))]).runs == ((3, 3), (2, 1))


def test_elided_ones_merge_the_runs_around_them():
    t = SingularityType((2, 1, 2))
    assert t.runs == ((2, 1), (1, 1), (2, 1))
    assert t.pretty() == "[2,2]"
    assert SingularityType((2, 1, 2, 2)).pretty() == "[2_3]"


@given(st.lists(types_st, max_size=6))
def test_multiset_order_matches_the_expanded_reference(types):
    assert multiset(types).types == tuple(sorted(types, key=oracles.ref_type_key))


def test_sort_key_orders_run_lengths_by_what_follows():
    # [2,2,3] sorts before [2,3] although its first run is longer, and
    # [2,2] before [2,2,1] and [2_3]
    order = ["[2]", "[2,2]", "[2,2,1]", "[2_3]", "[2,2,3]", "[2,3]"]
    types = [parse_type(text) for text in order]
    assert [format_type(t) for t in sorted(reversed(types), key=type_key)] == order
    assert sorted(reversed(types), key=oracles.ref_type_key) == types


# ---------------------------------------------------------------------------
# counts that cannot be expanded


def test_audit_of_a_hundred_million_steps_is_immediate():
    with deadline(2.0):
        report = audit_self_intersection(2, General((10**8,)))
    assert report.residual == 0


def test_apply_with_a_thirty_digit_count():
    n = 10**30
    with deadline(2.0):
        curve = apply(seed_smooth(2), General((n,)))
    run = SingularityType.from_runs(((2, n),))
    assert run in curve.singularities
    assert format_type(run) == "[2_1" + "0" * 30 + "]"
    assert drop(run) == n * 2 * 2
    assert curve.degree == 2 * (n + 1)


def test_cli_audit_of_a_hundred_million_steps(capsys):
    with deadline(2.0):
        code = main(["audit", "general(100000000)", "--degree", "2"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    report = json.loads(captured.out)
    assert report["verdict"] == "pass" and int(report["residual"]) == 0


def test_cli_apply_prints_a_huge_run(tmp_path, capsys):
    seed = tmp_path / "conic.json"
    assert main(["seed", "smooth", "--degree", "2", "--out", str(seed)]) == 0
    with deadline(2.0):
        code = main(["apply", "general(100000000)", "--in", str(seed)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    printed = json.loads(captured.out)["curve"]["singularities"]
    assert "[2_100000000]" in printed
    assert drop(parse_type("[2_100000000]")) == 10**8 * 4
