"""Run the mutation catalogue: apply each mutant to a copy of the tree and
check that every test it names fails.

    python mutants/run.py            # every mutant in mutants/catalogue.py
    python mutants/run.py ID [ID...] # only these

A mutant is killed when each of its tests fails or errors; it survives when
any of them passes. An entry is stale when its old snippet does not occur
exactly once in the copy's file (equivalent mutants are checked for that
too), so the text checked is the text the tests run against. A
mutant whose tests run longer than TIMEOUT_S seconds is counted as killed:
a fault that makes a test loop for ever is caught, and the run goes on. The
script prints one line per mutant and exits 1 on any survivor, stale entry
or test run that failed to start (for example an unknown node id).

Standard library only; the tests run with the interpreter that runs this
script, which needs pytest and hypothesis.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from catalogue import EQUIVALENT, MUTANTS

ROOT = Path(__file__).resolve().parent.parent
# the longest one mutant's tests may run: each mutant's tests take seconds,
# so a run this long is stuck
TIMEOUT_S = 300
SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench-out", "*.pyc"
)


def stale(mutant, tree):
    """Why the mutant's old snippet cannot be applied to the tree's copy of
    its file, or None if it can."""
    count = (tree / mutant.file).read_text().count(mutant.old)
    if count != 1:
        return f"old snippet occurs {count} times in {mutant.file}"
    return None


def failed_ids(output):
    """Node ids that pytest's -rfE summary reports as failed or errored."""
    ids = []
    for line in output.splitlines():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                ids.append(line[len(tag):].split(" - ", 1)[0])
    return ids


def killed_by(test, failures):
    return any(f == test or f.startswith((test + "[", test + "::")) for f in failures)


def run_mutant(mutant, tree):
    """(status, detail): status is 'killed', 'SURVIVED', 'STALE' or 'ERROR'.

    The snippet is checked against, and applied to, the file as it is in
    ``tree``, the copy the tests run in."""
    why = stale(mutant, tree)
    if why:
        return "STALE", why
    path = tree / mutant.file
    original = path.read_text()
    path.write_text(original.replace(mutant.old, mutant.new))
    try:
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "killed", f"timed out after {TIMEOUT_S} s"
    finally:
        path.write_text(original)
    failures = failed_ids(proc.stdout)
    if proc.returncode not in (0, 1) and not failures:
        tail = (proc.stdout + proc.stderr).strip().splitlines()[-3:]
        return "ERROR", f"pytest exit {proc.returncode}: " + " | ".join(tail)
    passed = [t for t in mutant.tests if not killed_by(t, failures)]
    if passed:
        return "SURVIVED", "passed " + ", ".join(passed)
    return "killed", ""


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ids", nargs="*", help="mutant ids to run (default: all)")
    args = parser.parse_args(argv)
    by_id = {m.id: m for m in MUTANTS}
    unknown = [i for i in args.ids if i not in by_id]
    if unknown:
        parser.error("unknown mutant id: " + ", ".join(unknown))
    chosen = [by_id[i] for i in args.ids] if args.ids else list(MUTANTS)

    def report(mutant, status, detail):
        print(f"{status}: {mutant.id}" + (f": {detail}" if detail else ""), flush=True)
        return status not in ("killed", "equivalent")

    bad = 0
    with tempfile.TemporaryDirectory(prefix="hpavsim-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        for m in EQUIVALENT:
            why = stale(m, tree)
            bad += report(m, "STALE" if why else "equivalent", why or m.reason)
        for m in chosen:
            bad += report(m, *run_mutant(m, tree))
    print(f"{len(chosen)} mutants run, {bad} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
