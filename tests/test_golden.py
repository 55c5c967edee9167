"""Byte-for-byte golden CLI outputs.

Each case is a short CLI pipeline; ``{i}`` in an argument stands for the
file holding step i's standard output and ``{golden}`` for this directory's
``golden/`` folder.  The last step's output must equal ``golden/<case>``
byte for byte.  To rewrite the files from the code on ``PYTHONPATH``:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from curvegroups.cli import main

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


if __name__ == "__main__":
    import tempfile

    for case, steps in CASES.items():
        with tempfile.TemporaryDirectory() as workdir:
            (GOLDEN / case).write_bytes(render(steps, Path(workdir)).encode())
