"""Every module's ``__all__`` names only what the module defines.

The perfbench tracer wraps the functions each module lists in
``__all__``, and star-imports read it, so a stale entry breaks both.
"""

import importlib
import pkgutil

import pytest

import pqbernstein

MODULES = sorted(m.name for m in pkgutil.iter_modules(pqbernstein.__path__))


def test_library_modules_declare_all():
    modules = {m: importlib.import_module(f"pqbernstein.{m}") for m in MODULES}
    assert {m for m, mod in modules.items() if hasattr(mod, "__all__")} == set(MODULES) - {"cli"}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import_works(name):
    module = importlib.import_module(f"pqbernstein.{name}")
    names = getattr(module, "__all__", [])
    assert len(set(names)) == len(names), name
    assert [a for a in names if not hasattr(module, a)] == [], name
    namespace = {}
    exec(f"from pqbernstein.{name} import *", namespace)
    assert set(names) <= set(namespace), name
