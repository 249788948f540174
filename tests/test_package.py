import importlib
import inspect

import dpconc

MODULES = ("bandit", "cgf", "kinf", "measures", "sampler", "sums")


def _module(name):
    return importlib.import_module(f"dpconc.{name}")


def test_package_all_joins_the_module_lists_in_order():
    joined = [name for mod in MODULES for name in _module(mod).__all__]
    assert dpconc.__all__ == joined
    assert len(set(joined)) == len(joined)


def test_package_names_are_the_module_objects():
    for mod in MODULES:
        for name in _module(mod).__all__:
            assert getattr(dpconc, name) is getattr(_module(mod), name), name
    assert inspect.isfunction(dpconc.kinf)  # the function, not the module


def test_every_declared_name_exists():
    for mod in MODULES + ("verify",):
        module = _module(mod)
        for name in module.__all__:
            assert hasattr(module, name), f"dpconc.{mod}.{name}"
