"""Run the mutants of ``tests/mutants.py``, one after another.

    python tests/run_mutants.py [name ...]

Copies ``src/`` to a temporary directory once, then for each mutant (all of
them, or the ones named) writes the mutated file into the copy, runs the
mutant's test selection in one pytest subprocess against the copy, and
restores the file.  Prints the mutant, the first failing test (the killer)
and the seconds it took; a mutant whose selection passes is SURVIVED, and
the exit code is 1 when any survives.  A selection that runs no test, or
a pytest that fails other than by failing tests, stops the run.  Standard
library only; never runs two mutants at once.
"""

import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from mutants import MUTANTS  # noqa: E402


def run(mutant: dict, src: pathlib.Path) -> tuple[str | None, float]:
    """The first test of the mutant's selection that fails on the mutated
    copy ``src`` (None when all pass), and the seconds the run took."""
    path = src / "closurelab" / mutant["file"]
    original = path.read_text()
    if original.count(mutant["snippet"]) != 1:
        raise SystemExit(f"{mutant['name']}: the snippet does not occur exactly once")
    path.write_text(original.replace(mutant["snippet"], mutant["replacement"]))
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "-rfE", *mutant["tests"]],
            cwd=ROOT, env=env, capture_output=True, text=True)
    finally:
        path.write_text(original)
    seconds = time.perf_counter() - start
    if proc.returncode == 0:
        return None, seconds
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    if proc.returncode != 1 or not failed:  # no test ran, or pytest itself failed
        raise SystemExit(f"{mutant['name']}: pytest exit {proc.returncode}\n"
                         f"{proc.stdout}{proc.stderr}")
    return failed.group(1), seconds


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m["name"] in names]
    survived = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        src = pathlib.Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        for mutant in chosen:
            killer, seconds = run(mutant, src)
            survived += killer is None
            print(f"{mutant['name']:36s} {killer or 'SURVIVED'}  {seconds:.1f} s",
                  flush=True)
    print(f"{len(chosen) - survived} of {len(chosen)} killed in "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
