import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    if path.name == "zariski_families.py":
        # one lift per partition of 1, 2 and 3: 1 + 2 + 3
        listed = [line for line in out.splitlines() if line.startswith("  generation 1 (general(")]
        assert len(listed) == 6
