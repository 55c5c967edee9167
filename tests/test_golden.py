"""Byte-for-byte golden CLI outputs.

Each case is a short CLI pipeline; ``{i}`` in an argument stands for the
file holding step i's standard output and ``{golden}`` for this directory's
``golden/`` folder.  The last step's output must equal ``golden/<case>``
byte for byte.  To rewrite the files from the code on ``PYTHONPATH``:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from curvegroups.cli import main

from conftest import deadline

GOLDEN = Path(__file__).parent / "golden"

SEXTIC = [arg for _ in range(6) for arg in ("--singularity", "[2]")]

CASES = {
    "seed_smooth.json": [["seed", "smooth", "--degree", "3"]],
    "seed_pencil.json": [["seed", "pencil", "--lines", "4"]],
    "seed_generic_lines.json": [["seed", "generic-lines", "--lines", "4"]],
    "seed_custom.json": [
        ["seed", "custom", "--degrees", "2,4", "--group", "Fin(5) (+) Tower(Z^2; 3) (+) Z/4",
         "--singularity", "[2]", "--singularity", "[3,2]", "--assertion", "solvable=true", "--tag", "golden"],
    ],
    "apply_free_sum.json": [
        ["seed", "pencil", "--lines", "3"],
        ["apply", "general(2,1)", "--in", "{0}"],
        ["apply", "uludag(1)", "--in", "{1}"],
        ["apply", "mixed(1,1;2)", "--in", "{2}", "--meridians"],
    ],
    "apply_tower.json": [
        ["seed", "custom", "--degrees", "2,2", "--group", "Z/4", "--singularity", "[2]"],
        ["apply", "uludag(1)", "--in", "{0}"],
        ["apply", "special(2)", "--in", "{1}"],
        ["apply", "general(1,1)", "--in", "{2}"],
    ],
    "apply_presented_finite.json": [
        ["apply", "uludag(4)", "--in", "{golden}/fin12_presented.input.json"],
        ["apply", "general(1)", "--in", "{0}"],
        ["apply", "special(2)", "--in", "{1}"],
    ],
    "apply_audit_only.json": [
        ["seed", "smooth", "--degree", "2"],
        ["apply", "mixed(2,1;3)", "--in", "{0}", "--audit-only"],
    ],
    "zariski_enumerate.json": [
        ["seed", "custom", "--degrees", "6", *SEXTIC, "--group", "Z/6"],
        ["seed", "custom", "--degrees", "6", *SEXTIC, "--group", "Fin(12)", "--assertion", "abelian=false"],
        ["zariski", "--left", "{0}", "--right", "{1}", "--enumerate", "2"],
    ],
    "meridians.json": [["meridians", "general(2,1)"]],
    "meridians_trace.txt": [["meridians", "mixed(2,1;3)", "--trace"]],
}


def render(steps, workdir: Path) -> str:
    out = ""
    for i, argv in enumerate(steps):
        argv = [arg.format(*(str(workdir / f"{j}.out") for j in range(i)), golden=GOLDEN) for arg in argv]
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(argv)
        assert code == 0, argv
        out = buffer.getvalue()
        (workdir / f"{i}.out").write_text(out)
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path):
    assert render(CASES[case], tmp_path).encode() == (GOLDEN / case).read_bytes()


# The curve documents among the goldens: what ``apply --in`` reads.
CURVE_DOCUMENTS = sorted(
    path.name
    for path in GOLDEN.glob("*.json")
    if path.name.startswith(("seed_", "apply_", "fin12_")) and path.name != "apply_audit_only.json"
)
# one small value of each JSON type
SMALL_VALUES = (None, True, 0, 1.5, "x", [], {})


def _json_type(value):
    return "bool" if type(value) is bool else type(value).__name__


def _locations(node, path=()):
    """Every (path, value) of a JSON tree, the root first."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _locations(child, path + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def mutated_documents(draw):
    """A golden curve document with one key dropped, one key added, or one
    value swapped for a small value of another JSON type; returns the
    document and whether it must be refused."""
    doc = json.loads((GOLDEN / draw(st.sampled_from(CURVE_DOCUMENTS))).read_text())
    located = list(_locations(doc))
    edit = draw(st.sampled_from(["drop", "add", "swap"]))
    if edit == "drop":
        path = draw(st.sampled_from([p for p, _ in located if p and type(p[-1]) is str]))
        del _parent(doc, path)[path[-1]]
        return doc, False
    if edit == "add":
        # the reports section is written, never read, so it takes any key
        objects = [v for p, v in located if isinstance(v, dict) and p[:1] != ("reports",)]
        target = draw(st.sampled_from(objects))
        key = draw(st.sampled_from(["extra", "irreducibel", "kind ", "Order", "x"]).filter(lambda k: k not in target))
        target[key] = draw(st.sampled_from(SMALL_VALUES))
        return doc, True
    path, value = draw(st.sampled_from(located))
    new = draw(st.sampled_from([v for v in SMALL_VALUES if _json_type(v) != _json_type(value)]))
    if not path:
        return new, False
    _parent(doc, path)[path[-1]] = new
    return doc, False


@settings(max_examples=300, deadline=None)
@given(mutated_documents())
def test_mutated_golden_document_is_read_or_refused_by_name(mutation):
    doc, refused = mutation
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "mutated.json"
        path.write_text(json.dumps(doc))
        with deadline(5.0), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["apply", "uludag(1)", "--in", str(path)])
    assert code in ((2,) if refused else (0, 2)), stderr.getvalue()
    if code == 2:
        assert stdout.getvalue() == ""
        assert stderr.getvalue().startswith("error: bad document: ")
        assert stderr.getvalue().count("\n") == 1 and stderr.getvalue().endswith("\n")


if __name__ == "__main__":
    for case, steps in CASES.items():
        with tempfile.TemporaryDirectory() as workdir:
            (GOLDEN / case).write_bytes(render(steps, Path(workdir)).encode())
