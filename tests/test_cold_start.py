"""Cold start: a command imports only what it uses.  ``dataclasses`` (and
through it ``inspect``, ``ast``, ``dis`` and ``tokenize``) would cost more
than the rest of ``import closurelab.cli``, so the package must not pull it
in.  Nor may it load ``random`` (only ``spectrum`` draws random spectra) or
``importlib.resources``, which brings pathlib, tempfile, random, shutil and
zipfile with it, or ``closurelab.opalg``, the reference operator algebra
that no command runs.  ``decimal`` is not tested: ``fractions`` imports
it."""

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


def _new_modules() -> set[str]:
    # a fresh interpreter without site (-S), and the modules that the import
    # adds, so that a site hook that loads a module first does not hide or
    # fake a load
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-S", "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "closurelab.cli" in out
    return set(out)


def test_cli_import_loads_no_dataclasses_or_inspect():
    assert not {"dataclasses", "inspect"} & _new_modules()


def test_cli_import_loads_no_random_or_resources():
    assert not {"random", "importlib.resources", "tempfile"} & _new_modules()


def test_cli_import_loads_no_operator_algebra():
    assert "closurelab.opalg" not in _new_modules()
