"""Fixtures shared by every test module."""

import pytest

from casimir_laurent import quadrature


@pytest.fixture(autouse=True)
def fresh_helper_team():
    """Close the sampling helper team after each test: helpers run the module
    state they were forked with, so each test's team is forked after that
    test's monkeypatches."""
    yield
    quadrature._close_team()
