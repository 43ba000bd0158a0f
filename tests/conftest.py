"""Shared test set-up."""

import pytest

from witnesskit import optimize


@pytest.fixture(autouse=True)
def _empty_seesaw_memo():
    """Start every test with an empty see-saw memo, so that a test that
    patches the search's internals runs the search instead of reading a
    result that an earlier test stored."""
    optimize._SEESAW_MEMO.clear()
