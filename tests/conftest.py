"""Fixtures shared by every test module."""

import pytest

from annular import maps, noncrossing, streams


@pytest.fixture(autouse=True)
def _no_kept_family_passes():
    # a family pass kept by an earlier test would hide a source a test rebinds
    maps._GROUPS.clear()
    noncrossing._GROUPS.clear()


@pytest.fixture(scope="session", autouse=True)
def _one_cap_search_per_source():
    # each source hands its own module-level length to the cap search, so
    # the search's cache never holds more entries than there are sources
    yield
    from test_streams import SOURCES

    assert streams._default_cap.cache_info().currsize <= len(SOURCES)
