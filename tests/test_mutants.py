"""The committed mutants of ``scripts/mutants.py`` still apply to the tree."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_mutant_names_are_distinct():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names)) >= 3


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_old_text_occurs_exactly_once(mutant):
    assert mutant.old != mutant.new
    assert mutants.occurrences(mutant) == 1
    for test in mutant.tests:
        path, _, name = test.partition("::")
        assert (ROOT / path).is_file()
        assert not name or f"def {name}(" in (ROOT / path).read_text()
