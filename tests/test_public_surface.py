"""The package's public surface: ``lottalora.__all__`` names what
``from lottalora import *`` gives, so a stale name in it (one whose
definition was deleted or renamed) must fail here, not at a user's import."""

import pytest

import lottalora


@pytest.mark.parametrize("name", lottalora.__all__)
def test_every_public_name_resolves_on_the_package(name):
    assert hasattr(lottalora, name)


def test_the_public_names_are_unique():
    assert len(set(lottalora.__all__)) == len(lottalora.__all__)
