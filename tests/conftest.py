"""Shared fixtures."""

import pytest

from faultroute import stability


@pytest.fixture(autouse=True)
def cold_search():
    """Start every test with an empty search cache, so counts of searches do not depend on test order."""
    stability._search_bits.cache_clear()
