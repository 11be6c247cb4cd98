import os
import subprocess
import sys

import hpavsim


def test_all_names_resolve_once():
    assert len(hpavsim.__all__) == len(set(hpavsim.__all__))
    missing = [name for name in hpavsim.__all__ if not hasattr(hpavsim, name)]
    assert missing == []
    namespace = {}
    exec("from hpavsim import *", namespace)
    assert set(hpavsim.__all__) <= namespace.keys()


def test_import_loads_neither_dataclasses_nor_inspect():
    # the records are NamedTuples, so importing the CLI generates no class
    # code through dataclasses, and inspect, which it imports, stays unloaded
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import hpavsim.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    # the fresh interpreter imports the package these tests import
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hpavsim.__file__)))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout == "[]\n"
