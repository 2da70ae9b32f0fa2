from pathlib import Path

import pytest

from mutants import MUTANTS

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_applies_once_and_names_existing_tests(mutant):
    assert mutant.old != mutant.new
    assert (REPO / "src" / mutant.file).read_text().count(mutant.old) == 1
    for arg in mutant.selector:
        file, _, test = arg.partition("::")
        assert f"def {test}(" in (REPO / file).read_text()
