"""The package's public surface: ``lottalora.__all__`` names what
``from lottalora import *`` gives, so a stale name in it (one whose
definition was deleted or renamed) must fail here, not at a user's import."""

import ast
import glob
import importlib
import os

import pytest

import lottalora
from lottalora.errors import LottaError


@pytest.mark.parametrize("name", lottalora.__all__)
def test_every_public_name_resolves_on_the_package(name):
    assert hasattr(lottalora, name)


def test_the_public_names_are_unique():
    assert len(set(lottalora.__all__)) == len(lottalora.__all__)


def raised_classes(path: str):
    """``(line, name)`` of every ``raise`` but a bare one in the module at
    ``path``: the name it raises or calls, or None for any other expression."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield node.lineno, exc.id if isinstance(exc, ast.Name) else None


def test_every_raise_in_the_package_raises_a_lotta_error():
    # ROADMAP aim 3: a caller catches LottaError and never a raw Python exception
    src = os.path.dirname(lottalora.__file__)
    offenders = []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        stem = os.path.basename(path)[:-3]
        module = lottalora if stem == "__init__" else importlib.import_module(f"lottalora.{stem}")
        for line, name in raised_classes(path):
            cls = vars(module).get(name)
            if not (isinstance(cls, type) and issubclass(cls, LottaError)):
                offenders.append(f"{os.path.basename(path)}:{line} raises {name or 'an unnamed expression'}")
    assert not offenders
