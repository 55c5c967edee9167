import doctest
import importlib
import pkgutil

import curvegroups


def test_module_doctests():
    names = [info.name for info in pkgutil.iter_modules(curvegroups.__path__)]
    for module in [curvegroups, *(importlib.import_module(f"curvegroups.{name}") for name in names)]:
        result = doctest.testmod(module)
        assert result.failed == 0, f"doctest failures in {module.__name__}"
