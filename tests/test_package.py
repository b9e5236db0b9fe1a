"""The package surface: the facade, and the submodule `__all__` lists.

A submodule's `__all__` must name every function another g2tau module
imports from it, because tools that trace the layers from outside (see
perfbench/spans.py) wrap exactly those names.
"""

import importlib
import inspect

import pytest

import g2tau

SUBMODULES = ("gaussian_core", "param_map", "fock_oracle", "sweep_cli")


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
