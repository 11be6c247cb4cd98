"""The mutation catalogue stays applicable: each old snippet occurs exactly
once in its file and each named test exists; and the runner checks a snippet
against the copy it tests. Running the mutants is ``python mutants/run.py``,
outside tier-1."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("catalogue", ROOT / "mutants" / "catalogue.py")
catalogue = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(catalogue)
ENTRIES = catalogue.MUTANTS + catalogue.EQUIVALENT


def load_runner(monkeypatch):
    """mutants/run.py as a module, importing this catalogue."""
    monkeypatch.setitem(sys.modules, "catalogue", catalogue)
    spec = importlib.util.spec_from_file_location("mutants_run", ROOT / "mutants" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


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


def test_snippet_missing_from_the_copy_is_stale(tmp_path, monkeypatch):
    # the live file still holds the snippet; the copy the tests would run in
    # does not, so applying it would change nothing and the mutant would
    # survive for the wrong reason
    mutant = catalogue.MUTANTS[0]
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    copy = tmp_path / mutant.file
    copy.parent.mkdir(parents=True)
    copy.write_text((ROOT / mutant.file).read_text().replace(mutant.old, ""))
    status, detail = load_runner(monkeypatch).run_mutant(mutant, tmp_path)
    assert status == "STALE"
    assert detail == f"old snippet occurs 0 times in {mutant.file}"


def test_tests_that_run_too_long_kill_the_mutant(tmp_path, monkeypatch):
    # a fault that makes a test loop for ever must not stall the catalogue
    run = load_runner(monkeypatch)
    mutant = catalogue.MUTANTS[0]
    copy = tmp_path / mutant.file
    copy.parent.mkdir(parents=True)
    copy.write_text((ROOT / mutant.file).read_text())

    def hang(args, **kwargs):
        assert kwargs["timeout"] == run.TIMEOUT_S
        assert copy.read_text().count(mutant.new) == 1
        raise subprocess.TimeoutExpired(args, kwargs["timeout"])

    monkeypatch.setattr(run.subprocess, "run", hang)
    status, detail = run.run_mutant(mutant, tmp_path)
    assert (status, detail) == ("killed", f"timed out after {run.TIMEOUT_S} s")
    # the copy is restored for the next mutant
    assert copy.read_text() == (ROOT / mutant.file).read_text()
