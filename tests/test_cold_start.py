"""Cold start: a command imports only what it uses.  ``dataclasses`` (and
through it ``inspect``, ``ast``, ``dis`` and ``tokenize``) would cost more
than the rest of ``import closurelab.cli``, so the package must not pull it
in."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
PROBE = """
import sys
before = set(sys.modules)
import closurelab.cli
from closurelab.closure import load_reference_tables
load_reference_tables()
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_no_dataclasses_or_inspect():
    # a fresh interpreter, and the modules that the import adds, so that a
    # site hook that loads either module first does not hide or fake a load
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "closurelab.cli" in out
    assert not {"dataclasses", "inspect"} & set(out)
