"""The package ships the non-Python files its modules load at run time.

A C kernel source missing from an installed package makes
``load_kernel`` return ``None`` and the code fall back to NumPy: slower,
and not reported.  Every ``.c`` file that a ``load_kernel`` call names
must therefore be declared package data in ``pyproject.toml``.
"""

import os
import re

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(ROOT, "src")


def kernel_sources():
    """(package, file name) for each ``.c`` literal in a module that
    calls ``load_kernel``."""
    found = set()
    for dirpath, _, filenames in os.walk(os.path.join(SRC, "repro")):
        for name in filenames:
            if not name.endswith(".py"):
                continue
            with open(os.path.join(dirpath, name)) as fh:
                text = fh.read()
            if "load_kernel(" not in text or name == "perfmode.py":
                continue
            package = os.path.relpath(dirpath, SRC).replace(os.sep, ".")
            for source in re.findall(r'"([\w.]+\.c)"', text):
                found.add((package, source))
    return found


def test_kernel_sources_are_declared_package_data():
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        package_data = tomllib.load(fh)["tool"]["setuptools"]["package-data"]
    sources = kernel_sources()
    assert {("repro.net", "_fastalloc.c"),
            ("repro.sim", "_fastdrain.c")} <= sources
    for package, source in sorted(sources):
        assert os.path.exists(os.path.join(SRC, *package.split("."),
                                           source)), source
        assert source in package_data.get(package, []), (package, source)
