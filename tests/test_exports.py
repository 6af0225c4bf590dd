"""The package's public names: ``from swoks import *`` and every module's
``__all__``, and what ``import swoks`` costs."""
import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_import_loads_no_heavy_module():
    """Every run pays for ``import swoks``: scipy (label alignment) and the
    stream reader's process modules load where they are used, not here."""
    heavy = ("scipy", "multiprocessing", "mmap", "signal")
    src = os.path.dirname(os.path.dirname(swoks.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = f"import sys, swoks; print(*(m for m in {heavy!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == []
