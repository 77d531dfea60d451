"""The mutant list cannot rot silently: every snippet of ``mutants.py``
still occurs exactly once in its file (``run_mutants.py`` runs them)."""

import pathlib

from mutants import EQUIVALENT, MUTANTS

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "closurelab"


def test_every_mutant_snippet_occurs_once():
    names = [m["name"] for m in MUTANTS + EQUIVALENT]
    assert len(names) == len(set(names))
    for mutant in MUTANTS + EQUIVALENT:
        text = (SRC / mutant["file"]).read_text()
        assert text.count(mutant["snippet"]) == 1, mutant["name"]
        assert mutant["replacement"] != mutant["snippet"], mutant["name"]
        assert ("tests" in mutant) != ("reason" in mutant), mutant["name"]
