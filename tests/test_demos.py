"""Demos: the walkthroughs run, and the plugin builder reproduces plugins/."""

import hashlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


# sha256 of the stdout of the demos whose output is pinned: the ladder
# actions (03) and the companion eigenvectors and inverse (04), recorded
# while the package still built the eigenvector matrix and its inverse
STDOUT_DIGESTS = {
    "03_ladder_operators.py":
        "a1a429ca62b813fdabb1c83d9a42f30f300e385d00dc57ad00ec6cd053c08e6c",
    "04_companion_matrix.py":
        "74cbad6929203429e33ec6e6b6df96eeaff12980cf9b865e4d8adc41ed78bbc9",
}


@pytest.mark.parametrize("name", [
    "00_exact_family_data.py",
    "01_five_term_recurrence.py",
    "02_closure_relation.py",
    "03_ladder_operators.py",
    "04_companion_matrix.py",
])
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if name in STDOUT_DIGESTS:
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_DIGESTS[name]


def test_build_plugins_reproduces_shipped_plugins(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "build_plugins", DEMOS / "05_build_plugins.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.OUT = tmp_path
    demo.main()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(name for name, *_ in demo.SPECS)
    for name in written:
        assert (tmp_path / name).read_bytes() == (ROOT / "plugins" / name).read_bytes()
