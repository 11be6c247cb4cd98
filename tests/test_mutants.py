"""The mutation catalogue stays applicable: each old snippet occurs exactly
once in its file and each named test exists. Running the mutants is
``python mutants/run.py``, outside tier-1."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("catalogue", ROOT / "mutants" / "catalogue.py")
catalogue = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(catalogue)
ENTRIES = catalogue.MUTANTS + catalogue.EQUIVALENT


def test_ids_are_unique():
    ids = [m.id for m in ENTRIES]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("mutant", ENTRIES, ids=lambda m: m.id)
def test_entry_applies(mutant):
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    # a killable mutant names its tests; an equivalent one says why none fails
    assert bool(mutant.tests) != bool(mutant.reason)
    for node in mutant.tests:
        path, *names = node.split("::")
        source = (ROOT / path).read_text()
        for name in names:
            assert f" {name}(" in source or f"class {name}:" in source, node
