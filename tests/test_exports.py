"""The package's public names: ``from swoks import *`` and every module's ``__all__``."""
import importlib
import pkgutil

import pytest

import swoks

MODULES = sorted(info.name for info in pkgutil.iter_modules(swoks.__path__))


def test_star_import_binds_every_listed_name():
    namespace: dict = {}
    exec("from swoks import *", namespace)
    assert sorted(set(swoks.__all__) - namespace.keys()) == []


@pytest.mark.parametrize("name", ["swoks"] + [f"swoks.{m}" for m in MODULES])
def test_every_listed_name_resolves(name):
    module = importlib.import_module(name)
    listed = getattr(module, "__all__", [])  # cli.py lists none; it has one entry point
    assert len(set(listed)) == len(listed), "a name is listed twice"
    assert [n for n in listed if not hasattr(module, n)] == []
