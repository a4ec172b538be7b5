"""``scripts/mutants.py``'s list still applies to the tree: no mutant is
run here (the script runs them, outside tier-1)."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("name, path, old, new", mutants.MUTANTS,
                         ids=[m[0] for m in mutants.MUTANTS])
def test_mutant_applies_once(name, path, old, new):
    text = (ROOT / path).read_text(encoding="utf-8")
    assert text.count(old) == 1 and old != new


def test_names_are_unique_and_notes_name_mutants():
    names = [m[0] for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    assert set(mutants.EQUIVALENT) | set(mutants.SURVIVING) <= set(names)
    assert not set(mutants.EQUIVALENT) & set(mutants.SURVIVING)


def test_apply_rejects_text_that_is_not_there_once(tmp_path):
    (tmp_path / "f.py").write_text("a = 1\na = 1\n")
    with pytest.raises(ValueError, match="occurs 2 times"):
        mutants.apply(str(tmp_path), "f.py", "a = 1", "a = 2")
    mutants.apply(str(tmp_path), "f.py", "a = 1\na", "b = 1\na")
    assert (tmp_path / "f.py").read_text() == "b = 1\na = 1\n"
