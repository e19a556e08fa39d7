"""Static checks on the package's public surface.

Every name a module exports in ``__all__`` must exist, and every name a
module imports must be used again in that module, so a deletion cannot
leave a stale export or an orphaned import behind.  Every verification
check takes the configuration alone, so its numerics come from
``Config.propagator`` and nowhere else.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import geomgates
from geomgates import verify

MODULES = sorted(m.name for m in pkgutil.iter_modules(geomgates.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(f"geomgates.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"geomgates.{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_imported_names_are_used(name):
    source = (Path(geomgates.__file__).parent / f"{name}.py").read_text(encoding="utf-8")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    imported.discard("annotations")
    unused = sorted(
        n for n in imported if len(re.findall(rf"\b{re.escape(n)}\b", source)) < 2
    )
    assert not unused, f"geomgates.{name} imports unused names: {unused}"


@pytest.mark.parametrize("check", verify.ALL_CHECKS, ids=lambda fn: fn.__name__)
def test_verify_checks_take_only_the_config(check):
    assert list(inspect.signature(check).parameters) == ["cfg"]
