import ast
import importlib
import inspect
from pathlib import Path

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


def _imports(source: str) -> set[str]:
    """The top-level names of every module that ``source`` imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_kernel_modules_import_no_numpy():
    # the conjugate kernel and the bounds read off it run on math alone
    for mod in ("cgf", "sums", "kinf"):
        source = inspect.getsource(_module(mod))
        assert "numpy" not in _imports(source), f"dpconc.{mod} imports numpy"


def test_kernel_modules_read_measures_by_their_float_core():
    # a measure's arrays are copies made on each access: the kernel reads its float core
    for mod in ("cgf", "sums", "kinf"):
        tree = ast.parse(inspect.getsource(_module(mod)))
        reads = sorted({node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
                       & {"values", "weights", "positive"})
        assert not reads, f"dpconc.{mod} reads {reads} off a measure"


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _benchmark_names() -> set[tuple[str, str]]:
    """(module, attribute) pairs of dpconc that the benchmark uses: every
    function ``perfbench/tracer.py`` wraps by its TRACED table, and every
    attribute ``perfbench/workloads.py`` reads off a module it loads with
    ``_program``, read from their sources without importing them."""
    tracer = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    traced = next(node.value for node in ast.walk(tracer) if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets))
    names = {(mod, fn) for mod, fns in ast.literal_eval(traced).items() for fn in fns}

    workloads = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    loaded = set()  # the modules named in an assignment from _program, bound to their names
    for node in ast.walk(workloads):
        if isinstance(node, ast.Assign) and any(
                isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_program"
                for call in ast.walk(node.value)):
            loaded |= {c.value for c in ast.walk(node.value)
                       if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    names |= {(node.value.id, node.attr) for node in ast.walk(workloads)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in loaded}
    return names


def test_benchmark_names_exist():
    names = _benchmark_names()
    assert ("kinf", "kinf_inverse") in names and ("sampler", "sample_exact") in names
    missing = [f"dpconc.{mod}.{name}" for mod, name in sorted(names)
               if not hasattr(_module(mod), name)]
    assert not missing, f"perfbench uses names dpconc no longer has: {missing}"
