"""Every name that the package or one of its modules exports exists, so that
a star import gives it."""

import importlib
import pkgutil

import pytest

import cgl_blowup

# __main__ runs the command line when imported
MODULES = ["cgl_blowup"] + [f"cgl_blowup.{m.name}" for m in pkgutil.iter_modules(cgl_blowup.__path__)
                            if m.name != "__main__"]


def test_the_package_lists_each_of_its_modules():
    assert {"cgl_blowup.euclid", "cgl_blowup.system", "cgl_blowup.torus"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_a_star_import_gives_every_exported_name(name):
    exports = getattr(importlib.import_module(name), "__all__", [])
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert [export for export in exports if export not in namespace] == []
