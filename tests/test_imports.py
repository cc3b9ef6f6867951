"""The library loads without ``scipy.stats``: importing it costs every
``sepfeti`` process about 36 MiB of resident memory and most of a second.
And every annotation in the library names something its module imports."""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import sepfeti


def test_library_does_not_import_scipy_stats():
    src = str(Path(sepfeti.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "import sepfeti.cli, sepfeti.arr, sepfeti.stats, sepfeti.reference, "
        "sepfeti.problems, sepfeti.feti\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('sepfeti.'))\n"
        "print(' '.join(loaded))\n"
        "assert 'scipy.stats' not in sys.modules\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert "sepfeti.stats" in done.stdout.split()


def _hinted(module):
    """The classes and functions that ``module`` defines, with the methods,
    properties and cached properties of its classes."""
    for obj in vars(module).values():
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if obj.__module__ != module.__name__:
            continue
        yield obj
        if inspect.isclass(obj):
            for attr in vars(obj).values():
                if isinstance(attr, property):
                    attr = attr.fget
                elif isinstance(attr, functools.cached_property):
                    attr = attr.func
                if inspect.isfunction(attr):
                    yield attr


@pytest.mark.parametrize(
    "name", sorted(info.name for info in pkgutil.iter_modules(sepfeti.__path__))
)
def test_every_annotation_resolves(name):
    # annotations stay strings under ``from __future__ import annotations``,
    # so a name that the module never imports fails only when resolved
    module = importlib.import_module(f"sepfeti.{name}")
    objects = list(_hinted(module))
    assert objects
    for obj in objects:
        typing.get_type_hints(obj)
