"""`tests/mutants.py`'s edits still apply: each old text occurs once in its file."""

import pytest

from mutants import MUTANTS, check


def test_names_are_unique():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_old_text_occurs_once(mutant):
    check(mutant)
    assert mutant.old != mutant.new
