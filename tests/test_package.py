"""The package surface: the facade, and the submodule `__all__` lists.

A submodule's `__all__` must name every function another g2tau module
imports from it, because tools that trace the layers from outside (see
perfbench/spans.py) wrap exactly those names.  And every function it names
must be called from the package itself: code that only tests call lives
beside the tests (closed_form_reference.py, fock_reference.py).
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import g2tau

SUBMODULES = ("gaussian_core", "param_map", "fock_oracle", "sweep_cli")
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_facade_names_resolve():
    assert [name for name in g2tau.__all__ if not hasattr(g2tau, name)] == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_resolves(name):
    module = importlib.import_module(f"g2tau.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_cross_module_imports_are_listed_by_their_provider():
    modules = {name: importlib.import_module(f"g2tau.{name}") for name in SUBMODULES}
    unlisted = []
    for consumer, module in modules.items():
        for attr, value in vars(module).items():
            if not inspect.isfunction(value):
                continue
            provider = value.__module__.rpartition(".")[2]
            if provider != consumer and provider in modules:
                if attr not in modules[provider].__all__:
                    unlisted.append(f"{consumer}.{attr} from {provider}")
    assert unlisted == []


def _callers_in_the_package() -> set[str]:
    """Names the package's own code uses, imports into the facade, or runs as a script."""
    used = set()
    for path in Path(g2tau.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and path.name == "__init__.py":
                used.update(alias.name for alias in node.names)
    # console scripts: name = "g2tau.module:function"
    used.update(re.findall(r'"g2tau\.\w+:(\w+)"', PYPROJECT.read_text(encoding="utf-8")))
    return used


def test_every_listed_function_has_a_caller_in_the_package():
    used = _callers_in_the_package()
    uncalled = []
    for name in SUBMODULES:
        module = importlib.import_module(f"g2tau.{name}")
        uncalled += [f"{name}.{attr}" for attr in module.__all__
                     if inspect.isfunction(getattr(module, attr)) and attr not in used]
    assert uncalled == []
