"""Fixtures shared by every test module."""

import pytest

from annular import maps, noncrossing


@pytest.fixture(autouse=True)
def _no_kept_family_passes():
    # a family pass kept by an earlier test would hide a source a test rebinds
    maps._GROUPS.clear()
    noncrossing._GROUPS.clear()
