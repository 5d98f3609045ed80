"""Shared fixtures: session-scoped bases at the sizes the suite reuses."""

import pytest

from sixbeam import eigenbasis as eb
from sixbeam.eigenbasis import build_basis


@pytest.fixture(autouse=True)
def empty_basis_memo():
    """Each test starts with an empty ``build_basis`` memo, so a basis that a
    test builds under overflow traps or memory tracing is built there."""
    eb._build_basis.cache_clear()


@pytest.fixture(scope="session")
def basis30():
    return build_basis(30)


@pytest.fixture(scope="session")
def basis60():
    return build_basis(60)


@pytest.fixture(scope="session")
def basis100():
    return build_basis(100)
