"""The benchmark tracer wraps library functions by module attribute; every
name it lists must still resolve to a callable there."""

import importlib
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def _traced():
    # executed from its source text, so nothing (not even bytecode) is
    # written next to it
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER_PATH.read_text(encoding="utf-8"), str(TRACER_PATH), "exec"), namespace)
    return namespace["PACKAGE"], namespace["TRACED"]


PACKAGE, TRACED = _traced()


@pytest.mark.parametrize("name", sorted(TRACED))
def test_traced_name_is_a_callable_module_attribute(name):
    module_name, attribute = TRACED[name]
    target = importlib.import_module(f"{PACKAGE}.{module_name}")
    for part in attribute.split("."):
        target = getattr(target, part)
    assert callable(target)
