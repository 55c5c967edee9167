import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from curvegroups.cli import main
from curvegroups.documents import parse_document

from conftest import deadline


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seed_smooth(capsys):
    code, out, err = run_cli(capsys, "seed", "smooth", "--degree", "3")
    assert code == 0, err
    curve, _ = parse_document(out)
    assert curve.degree == 3
    assert json.loads(out)["curve"]["group"]["form"] == "Z/3"


def test_seed_pencil(capsys):
    code, out, _ = run_cli(capsys, "seed", "pencil", "--lines", "4")
    assert code == 0
    assert json.loads(out)["curve"]["group"]["form"] == "F3"


def test_seed_invalid_degree_fails(capsys):
    code, out, err = run_cli(capsys, "seed", "smooth", "--degree", "0")
    assert code != 0
    assert "degree" in err


def test_seed_smooth_of_a_19_digit_prime_degree_finishes(capsys):
    with deadline(2.0):
        code, out, err = run_cli(capsys, "seed", "smooth", "--degree", "1000000000000000003")
    assert code == 0, err
    assert '"p_group": "1000000000000000003"' in out
    assert parse_document(out)[0].props.p_group == 10**18 + 3


@pytest.mark.parametrize(
    "q,p_group",
    [(999999999999999999999743, '"999999999999999999999743"'), (2**127 - 1, "null")],
    ids=["24-digit-prime", "mersenne-127"],
)
def test_large_prime_order_seed_and_apply_finish(tmp_path, capsys, q, p_group):
    seed = tmp_path / "seed.json"
    with deadline(2.0):
        code, _, err = run_cli(capsys, "seed", "custom", "--degrees", "4", "--group", f"Fin({q})", "--out", str(seed))
        assert code == 0, err
        code, out, err = run_cli(capsys, "apply", "general(1,2)", "--in", str(seed))
        assert code == 0, err
        assert '"p_group": null' in out
        code, out, err = run_cli(capsys, "seed", "smooth", "--degree", str(q))
    assert code == 0, err
    assert f'"p_group": {p_group}' in out


def test_seed_custom_rejects_a_composite_p_group(capsys):
    code, out, err = run_cli(
        capsys, "seed", "custom", "--degrees", "4", "--group", "Fin(16)", "--assertion", "p_group=4"
    )
    assert code == 2
    assert out == ""
    assert err == "error: bad property assertion: p_group must be a prime, got 4\n"


@pytest.mark.parametrize(
    "option,message",
    [
        (["--degrees", "2,x"], "bad integer 'x' in --degrees '2,x'"),
        (["--degrees", ","], "bad integer '' in --degrees ','"),
        (
            ["--degrees", "4", "--assertion", "p_group=x"],
            '--assertion \'p_group=x\': expected an integer or decimal string, got "x"',
        ),
        (
            ["--degrees", "4", "--assertion", "p_group=true"],
            '--assertion \'p_group=true\': expected an integer or decimal string, got "true"',
        ),
        (
            ["--degrees", "4", "--assertion", "nilpotency_class=a"],
            '--assertion \'nilpotency_class=a\': expected an integer or decimal string, got "a"',
        ),
        (
            ["--degrees", "4", "--assertion", "nilpotency_class=1:b"],
            '--assertion \'nilpotency_class=1:b\': expected an integer or decimal string, got "b"',
        ),
        (["--degrees", "4", "--assertion", "bogus=true"], "--assertion 'bogus=true': unknown property 'bogus'"),
    ],
    ids=[
        "non-decimal-degree",
        "empty-degree",
        "non-decimal-p-group",
        "boolean-p-group",
        "non-decimal-nilpotency-class",
        "non-decimal-nilpotency-class-upper-bound",
        "unknown-property",
    ],
)
def test_seed_custom_option_text_is_a_named_error(capsys, option, message):
    code, out, err = run_cli(capsys, "seed", "custom", "--group", "Fin(16)", *option)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_seed_custom_with_assertions(capsys):
    code, out, _ = run_cli(
        capsys,
        "seed",
        "custom",
        "--degrees",
        "6",
        "--singularity",
        "[2]",
        "--singularity",
        "[2]",
        "--group",
        "Fin(12)",
        "--assertion",
        "abelian=false",
    )
    assert code == 0
    curve, _ = parse_document(out)
    assert curve.props.abelian is False
    assert len(curve.singularities) == 2


def test_apply_pipeline(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "seed", "smooth", "--degree", "2")
    assert code == 0
    doc = tmp_path / "conic.json"
    doc.write_text(out)
    code, out, err = run_cli(capsys, "apply", "general(1,2)", "--in", str(doc))
    assert code == 0, err
    curve, reports = parse_document(out)
    assert curve.degree == 8
    assert json.loads(out)["curve"]["group"]["form"] == "Z/8"
    assert reports["audit"]["verdict"] == "pass"


def test_apply_audit_only_discrepancy_exits_zero(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "seed", "smooth", "--degree", "1")
    doc = tmp_path / "line.json"
    doc.write_text(out)
    code, out, err = run_cli(capsys, "apply", "special(1)", "--audit-only", "--in", str(doc))
    assert code == 0, err
    report = json.loads(out)
    assert report["verdict"] == "discrepancy"
    assert report["residual"] == -3
    assert report["variant_residual"] == 0


def test_apply_unbalanced_mixed_fails(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "seed", "smooth", "--degree", "2")
    doc = tmp_path / "conic.json"
    doc.write_text(out)
    code, _, err = run_cli(capsys, "apply", "mixed(2;1)", "--in", str(doc))
    assert code != 0
    assert "raise counts = sum of lower counts" in err


def test_apply_bad_spec_names_token(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "seed", "smooth", "--degree", "2")
    doc = tmp_path / "conic.json"
    doc.write_text(out)
    code, _, err = run_cli(capsys, "apply", "general(1,oops)", "--in", str(doc))
    assert code != 0
    assert "oops" in err


def test_apply_with_meridian_table(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "seed", "smooth", "--degree", "2")
    doc = tmp_path / "conic.json"
    doc.write_text(out)
    code, out, _ = run_cli(capsys, "apply", "general(2,1)", "--meridians", "--in", str(doc))
    assert code == 0
    _, reports = parse_document(out)
    assert reports["meridians"]["fibers"]["P"] == "b"
    assert reports["meridians"]["fibers"]["Q2"] == "b a1 a2^2"


def test_apply_writes_a_huge_exponent_relator_back_unchanged(tmp_path, capsys):
    code, out, err = run_cli(capsys, "seed", "custom", "--degrees", "3", "--group", "Fin(12)")
    assert code == 0, err
    doc = json.loads(out)
    presentation = {"generators": ["x"], "relators": ["x^1000000000"]}
    doc["curve"]["group"] = {"tree": {"kind": "finite", "order": 12, "presentation": presentation}}
    path = tmp_path / "fin12.json"
    path.write_text(json.dumps(doc))
    with deadline(1.0):
        code, out, err = run_cli(capsys, "apply", "uludag(1)", "--in", str(path))
    assert code == 0, err
    assert json.loads(out)["curve"]["group"]["tree"]["base"]["presentation"] == presentation


def test_audit_command(capsys):
    code, out, _ = run_cli(capsys, "audit", "general(1,2)", "--degree", "2")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["computed"] == 4


def test_meridians_trace(capsys):
    code, out, _ = run_cli(capsys, "meridians", "special(2)", "--trace")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "F1 init L"
    assert "L = a^3" in lines


def test_meridians_json(capsys):
    code, out, _ = run_cli(capsys, "meridians", "general(1,1)")
    assert code == 0
    data = json.loads(out)
    assert data["fibers"]["Q1"] == "b a1 a2 a1"


def make_pair_docs(tmp_path, capsys, equal=True, reducible=False):
    degrees = "3,3" if reducible else "6"
    code, out, _ = run_cli(
        capsys,
        "seed",
        "custom",
        "--degrees",
        degrees,
        *[arg for _ in range(6) for arg in ("--singularity", "[2]")],
        "--group",
        "Z/6",
    )
    assert code == 0
    left = tmp_path / "left.json"
    left.write_text(out)
    right_sings = 6 if equal else 5
    code, out, _ = run_cli(
        capsys,
        "seed",
        "custom",
        "--degrees",
        degrees,
        *[arg for _ in range(right_sings) for arg in ("--singularity", "[2]")],
        "--group",
        "Fin(12)",
        "--assertion",
        "abelian=false",
    )
    assert code == 0
    right = tmp_path / "right.json"
    right.write_text(out)
    return left, right


def test_zariski_lift(tmp_path, capsys):
    left, right = make_pair_docs(tmp_path, capsys)
    code, out, err = run_cli(
        capsys, "zariski", "--left", str(left), "--right", str(right), "--spec", "uludag(1)"
    )
    assert code == 0, err
    record = json.loads(out)
    assert record["generation"] == 1
    assert record["left"]["group"]["form"] == "Z/12"
    assert record["combinatorics_equal"] is True


def test_zariski_enumerate(tmp_path, capsys):
    left, right = make_pair_docs(tmp_path, capsys)
    code, out, err = run_cli(
        capsys, "zariski", "--left", str(left), "--right", str(right), "--enumerate", "2"
    )
    assert code == 0, err
    records = json.loads(out)
    assert len(records) == 3
    assert [r["left"]["group"]["form"] for r in records] == ["Z/12", "Z/18", "Z/18"]


def test_zariski_rejects_reducible(tmp_path, capsys):
    left, right = make_pair_docs(tmp_path, capsys, reducible=True)
    code, _, err = run_cli(
        capsys, "zariski", "--left", str(left), "--right", str(right), "--spec", "uludag(1)"
    )
    assert code != 0
    assert "irreducible" in err


def test_zariski_rejects_unequal_combinatorics(tmp_path, capsys):
    left, right = make_pair_docs(tmp_path, capsys, equal=False)
    code, _, err = run_cli(
        capsys, "zariski", "--left", str(left), "--right", str(right), "--spec", "uludag(1)"
    )
    assert code != 0
    assert "combinatorics" in err


def test_cli_output_documents_reparse(tmp_path, capsys):
    # every emitted curve document re-parses to an equal value
    code, seed_out, _ = run_cli(capsys, "seed", "generic-lines", "--lines", "3")
    assert code == 0
    doc = tmp_path / "lines.json"
    doc.write_text(seed_out)
    code, out, _ = run_cli(capsys, "apply", "uludag(2)", "--in", str(doc))
    assert code == 0
    curve, _ = parse_document(out)
    text_again = None
    doc2 = tmp_path / "step2.json"
    doc2.write_text(out)
    code, text_again, _ = run_cli(capsys, "apply", "general(1,1)", "--in", str(doc2))
    assert code == 0
    curve2, _ = parse_document(text_again)
    assert curve2.degree == curve.degree * 3


def test_zariski_reads_a_direct_sum_tree_in_canonical_form(tmp_path, capsys):
    left, right = make_pair_docs(tmp_path, capsys)
    doc = json.loads(left.read_text())
    doc["curve"]["group"] = {
        "form": "Z/2 (+) Z/3",
        "tree": {"kind": "direct-sum", "parts": [{"kind": "cyclic", "order": 2}, {"kind": "cyclic", "order": 3}]},
    }
    left.write_text(json.dumps(doc))
    code, out, err = run_cli(
        capsys, "zariski", "--left", str(left), "--right", str(right), "--spec", "uludag(1)"
    )
    assert code == 0, err
    assert json.loads(out)["left"]["group"]["form"] == "Z/12"


def nested_towers(depth):
    return "Tower(" * depth + "Z/2" + "; 2)" * depth


def test_deeply_nested_group_is_a_named_error(capsys):
    code, out, err = run_cli(capsys, "seed", "custom", "--degrees", "6", "--group", nested_towers(1500))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_deeply_nested_document_is_a_named_error(tmp_path, capsys):
    doc = json.loads(run_cli(capsys, "seed", "smooth", "--degree", "2")[1])
    tree = '{"kind": "tower", "base": ' * 1500 + '{"kind": "cyclic", "order": 2}' + ', "kernels": [2]}' * 1500
    text = json.dumps(doc).replace(json.dumps(doc["curve"]["group"]["tree"]), tree)
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "apply", "uludag(1)", "--in", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad document: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda curve: curve.update(singularities=[5]), "curve.singularities[0]: expected a string, got 5"),
        (lambda curve: curve["props"].update(x=[]), "curve.props.x: unknown key"),
        (
            lambda curve: curve["props"].update(nilpotency_class=[0.5, 1.5]),
            "curve.props.nilpotency_class[0]: expected an integer or decimal string, got 0.5",
        ),
        (lambda curve: curve.update(group=None), "curve.group: expected an object, got null"),
        (lambda curve: curve.update(props=[]), "curve.props: expected an object, got an array"),
        (
            lambda curve: curve.update(component_degrees="2"),
            "curve.component_degrees: expected an array, got a string",
        ),
        (lambda curve: curve.update(group={"tree": None}), "curve.group.tree: expected an object, got null"),
        (lambda curve: curve.update(group={"form": 5}), "curve.group.form: expected a string, got 5"),
        (lambda curve: curve.update(group={}), "curve.group.form: missing key"),
        (lambda curve: curve.update(group={"tree": {"order": 2}}), "curve.group.tree.kind: missing key"),
        (
            lambda curve: curve.update(group={"tree": {"kind": "direct-sum", "parts": [5, 6]}}),
            "curve.group.tree.parts[0]: expected an object, got 5",
        ),
        (
            lambda curve: curve.update(
                group={"tree": {"kind": "finite", "order": 4, "presentation": {"generators": 5, "relators": []}}}
            ),
            "curve.group.tree.presentation.generators: expected an array, got 5",
        ),
        (
            lambda curve: curve.update(
                group={"tree": {"kind": "finite", "order": 4, "presentation": {"generators": ["a"], "relators": [5]}}}
            ),
            "curve.group.tree.presentation.relators[0]: expected a string, got 5",
        ),
        (lambda curve: curve.update(log=[5]), "curve.log[0]: expected an object, got 5"),
        (lambda curve: curve["log"][0].pop("seq"), "curve.log[0].seq: missing key"),
        (lambda curve: curve["props"].update(cyclic=5), "curve.props.cyclic: expected true, false or null, got 5"),
        (lambda curve: curve["props"].update(abelian=1), "curve.props.abelian: expected true, false or null, got 1"),
        (
            lambda curve: curve["props"].update(nilpotency_class=5),
            "curve.props.nilpotency_class: expected an array, got 5",
        ),
        (lambda curve: curve.update(singularities=5), "curve.singularities: expected an array, got 5"),
        (lambda curve: curve.update(family_tag=5), "curve.family_tag: expected a string or null, got 5"),
        (lambda curve: curve["log"][0].update(seq="x"), "curve.log[0].seq: expected 0, got a string"),
        (lambda curve: curve["log"][0].update(seq=False), "curve.log[0].seq: expected 0, got false"),
        (lambda curve: curve["log"][0].update(seq=0.0), "curve.log[0].seq: expected 0, got 0.0"),
        (lambda curve: curve["log"][0].update(seq=3), "curve.log[0].seq: expected 0, got 3"),
        (lambda curve: curve["log"][0].update(op=None), "curve.log[0].op: expected a string, got null"),
        (lambda curve: curve["log"][0].update(detail=[]), "curve.log[0].detail: expected a string, got an array"),
        (lambda curve: curve["log"][0].pop("detail"), "curve.log[0].detail: missing key"),
        (lambda curve: curve.update(irreducible=False), "curve.irreducible: expected true, got false"),
        (lambda curve: curve.update(irreducible="yes"), "curve.irreducible: expected true, got a string"),
        (lambda curve: curve.update(irreducibel=True), "curve.irreducibel: unknown key"),
        (lambda curve: curve.pop("degree"), "curve.degree: missing key"),
        (lambda curve: curve["group"].update(extra=1), "curve.group.extra: unknown key"),
        (lambda curve: curve["group"]["tree"].update(rank=1), "curve.group.tree.rank: unknown key"),
        (lambda curve: curve["group"]["tree"].update(colour=1), "curve.group.tree.colour: unknown key"),
        (
            lambda curve: curve.update(group={"tree": {"kind": "cyclic", "order": 2, "presentation": None}}),
            "curve.group.tree.presentation: unknown key",
        ),
        (lambda curve: curve.update(group={"tree": {"kind": "cyclic"}}), "curve.group.tree.order: missing key"),
        (
            lambda curve: curve.update(group={"tree": {"kind": "quaternion", "order": 8}}),
            'curve.group.tree.kind: unknown group kind "quaternion"',
        ),
        (
            lambda curve: curve.update(
                group={"tree": {"kind": "finite", "order": 4, "presentation": {"generators": [], "relators": [], "x": 1}}}
            ),
            "curve.group.tree.presentation.x: unknown key",
        ),
        (lambda curve: curve["log"][0].update(when="now"), "curve.log[0].when: unknown key"),
        (
            lambda curve: curve["props"].update(nilpotency_class=[1]),
            "curve.props.nilpotency_class: expected [lo, hi], got [1]",
        ),
        (
            lambda curve: curve["props"].update(nilpotency_class=[]),
            "curve.props.nilpotency_class: expected [lo, hi], got []",
        ),
        (
            lambda curve: curve.update(degree="x"),
            'curve.degree: expected an integer or decimal string, got "x"',
        ),
        (
            lambda curve: curve.update(component_degrees=[2.0]),
            "curve.component_degrees[0]: expected an integer or decimal string, got 2.0",
        ),
        (
            lambda curve: curve["props"].update(p_group=True),
            "curve.props.p_group: expected an integer or decimal string, got true",
        ),
        (lambda curve: curve["props"].update(p_group=4), "curve.props: p_group must be a prime, got 4"),
        (
            lambda curve: curve["props"].update(nilpotency_class=[True, 2]),
            "curve.props.nilpotency_class[0]: expected an integer or decimal string, got true",
        ),
        (
            lambda curve: curve.update(group={"tree": {"kind": "cyclic", "order": 0}}),
            "curve.group.tree.order: cyclic orders must be >= 1, got 0",
        ),
        (
            lambda curve: curve.update(group={"tree": {"kind": "free-abelian", "rank": -1}}),
            "curve.group.tree.rank: free ranks must be >= 0, got -1",
        ),
        (
            lambda curve: curve.update(group={"tree": {"kind": "finite", "order": 0, "presentation": None}}),
            "curve.group.tree.order: finite group orders must be >= 1, got 0",
        ),
        (
            lambda curve: curve.update(
                group={"tree": {"kind": "tower", "base": {"kind": "cyclic", "order": 2}, "kernels": [1]}}
            ),
            "curve.group.tree.kernels: tower kernel orders must be >= 2, got 1",
        ),
        (lambda curve: curve.update(degree=5), "curve.degree: expected 2, the sum of component_degrees, got 5"),
        (lambda curve: curve.update(component_degrees=[0], degree=0), "curve: component degrees must be >= 1, got 0"),
        (
            lambda curve: curve.update(
                group={"tree": {"kind": "finite", "order": 4, "presentation": {"generators": ["x"], "relators": ["x^"]}}}
            ),
            "curve.group.tree.presentation.relators[0]: cannot parse word term 'x^'",
        ),
        (
            lambda curve: curve.update(
                group={"tree": {"kind": "finite", "order": 4, "presentation": {"generators": ["x"], "relators": ["y^2"]}}}
            ),
            "curve.group.tree.presentation: relator uses undeclared generators ['y']",
        ),
        (
            lambda curve: curve.update(singularities=["[2"]),
            "curve.singularities[0]: bad singularity type at position 2: expected ']' in '[2'",
        ),
        (
            lambda curve: curve.update(group={"form": "Z/"}),
            "curve.group.form: cannot parse group descriptor 'Z/' at position 1",
        ),
    ],
    ids=[
        "non-string-type",
        "unknown-props-key",
        "fractional-nilpotency-class",
        "null-group",
        "props-not-an-object",
        "component-degrees-not-a-list",
        "null-group-tree",
        "non-string-group-form",
        "group-without-tree-or-form",
        "group-tree-without-kind",
        "non-object-direct-sum-part",
        "non-array-generators",
        "non-string-relator",
        "non-object-log-entry",
        "log-entry-without-seq",
        "non-boolean-flag",
        "integer-flag",
        "non-array-nilpotency-class",
        "non-array-singularities",
        "non-string-family-tag",
        "string-log-seq",
        "boolean-log-seq",
        "float-log-seq",
        "log-seq-not-its-index",
        "null-log-op",
        "non-string-log-detail",
        "log-entry-without-detail",
        "irreducible-disagrees-with-degrees",
        "non-boolean-irreducible",
        "unknown-curve-key",
        "curve-without-degree",
        "unknown-group-key",
        "key-of-another-tree-kind",
        "unknown-tree-key",
        "presentation-on-a-cyclic-node",
        "cyclic-node-without-order",
        "unknown-group-kind",
        "unknown-presentation-key",
        "unknown-log-entry-key",
        "one-bound-nilpotency-class",
        "empty-nilpotency-class",
        "non-decimal-degree",
        "float-component-degree",
        "boolean-p-group",
        "composite-p-group",
        "boolean-nilpotency-class-bound",
        "zero-cyclic-order",
        "negative-free-abelian-rank",
        "zero-finite-order",
        "tower-kernel-below-two",
        "degree-not-the-sum",
        "zero-component-degree",
        "unparsable-relator",
        "relator-on-undeclared-generator",
        "unparsable-singularity-type",
        "unparsable-group-form",
    ],
)
def test_hand_edited_document_is_a_named_error(tmp_path, capsys, edit, message):
    doc = json.loads(run_cli(capsys, "seed", "smooth", "--degree", "2")[1])
    edit(doc["curve"])
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "apply", "uludag(1)", "--in", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: bad document: {message}\n"


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda doc: doc.update(curve=None), "curve: expected an object, got null"),
        (lambda doc: [doc], "document: expected an object, got an array"),
        (lambda doc: doc.update(extra=1), "document.extra: unknown key"),
        (lambda doc: {"schema_version": "1"}, "document.curve: missing key"),
        (
            lambda doc: {"schema_version": "2", "extra": 1},
            'document.schema_version: expected "1", got "2"',
        ),
        (lambda doc: {"schema_version": 1}, 'document.schema_version: expected "1", got 1'),
        (lambda doc: {"curve": doc["curve"]}, "document is missing schema_version"),
    ],
    ids=[
        "null-curve",
        "array-document",
        "unknown-document-key",
        "document-without-curve",
        "schema-version-checked-first",
        "integer-schema-version",
        "document-without-schema-version",
    ],
)
def test_hand_edited_document_top_level_is_a_named_error(tmp_path, capsys, edit, message):
    doc = json.loads(run_cli(capsys, "seed", "smooth", "--degree", "2")[1])
    doc = edit(doc) or doc
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "apply", "uludag(1)", "--in", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: bad document: {message}\n"


def test_deeply_nested_singularity_type_is_a_named_error(capsys):
    # parses (parsing has no depth limit) but is too deep to print
    depth = 5_000
    text = "[2,(|" * depth + "[3]" + "|)]" * depth
    code, out, err = run_cli(capsys, "seed", "custom", "--degrees", "6", "--group", "Z/6", "--singularity", text)
    assert code == 2
    assert out == ""
    assert err == "error: input is nested too deeply\n"


def test_group_nested_950_deep_round_trips(tmp_path):
    # a fresh process: the test runner's own stack would eat into the depth
    text = nested_towers(950)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    seed = tmp_path / "seed.json"
    cli = [sys.executable, "-m", "curvegroups.cli"]
    subprocess.run(cli + ["seed", "custom", "--degrees", "6", "--group", text, "--out", str(seed)], env=env, check=True)
    assert json.loads(seed.read_text())["curve"]["group"]["form"] == text
    lifted = subprocess.run(
        cli + ["apply", "uludag(1)", "--in", str(seed)], env=env, check=True, capture_output=True, text=True
    ).stdout
    assert json.loads(lifted)["curve"]["group"]["form"] == text[:-1] + ",2)"


def test_group_nested_985_deep_is_a_named_error_when_rendered():
    # parses (parsing has no depth limit) but is too deep for the JSON
    # encoder; a fresh process, as above
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    argv = [sys.executable, "-m", "curvegroups.cli", "seed", "custom", "--degrees", "6", "--group", nested_towers(985)]
    result = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "nested too deeply" in result.stderr


def test_repeated_main_calls_share_no_state(tmp_path, capsys):
    for _ in range(2):
        code, out, err = run_cli(
            capsys, "seed", "custom", "--degrees", "3", "--group", "Z/3", "--singularity", "[2]", "--singularity", "[3,2]"
        )
        assert code == 0, err
        assert sorted(json.loads(out)["curve"]["singularities"]) == ["[2]", "[3,2]"]
        code, out, err = run_cli(capsys, "seed", "custom", "--degrees", "3", "--group", "Z/3")
        assert code == 0, err
        assert json.loads(out)["curve"]["singularities"] == []
    seed = tmp_path / "seed.json"
    assert main(["seed", "smooth", "--degree", "2", "--out", str(seed)]) == 0
    for _ in range(2):
        code, out, err = run_cli(capsys, "apply", "general(2,1)", "--in", str(seed), "--meridians")
        assert code == 0, err
        assert set(json.loads(out)["reports"]) == {"audit", "meridians"}
        code, out, err = run_cli(capsys, "apply", "general(2,1)", "--in", str(seed))
        assert code == 0, err
        assert set(json.loads(out)["reports"]) == {"audit"}
    with pytest.raises(SystemExit):
        main(["audit", "uludag(1)"])
    assert "--degree" in capsys.readouterr().err
    code, out, err = run_cli(capsys, "audit", "uludag(1)", "--degree", "2")
    assert code == 0, err
