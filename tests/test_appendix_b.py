"""Transcription self-checks for the shipped reference tables: factored vs
expanded forms, checksum, degree bounds, derived-row rules."""

import hashlib
import json
from fractions import Fraction as F

from closurelab.closure import load_reference_tables, reference_expanded
from closurelab.exactalg import ParamPoly, parse_poly

EVAL_POINTS = [
    {"z": F(1, 3), "g": F(9, 4), "a": F(13, 3), "b": F(-2, 5),
     "b1": F(7), "b2": F(11, 2), "b3": F(5, 3), "b4": F(1, 8),
     "s1": F(3, 2), "s2": F(2, 7), "sp1": F(5, 4), "sp2": F(3, 8),
     "q": F(4, 9), "r": F(2, 3)},
    {"z": F(2), "g": F(7, 2), "a": F(6), "b": F(3, 2),
     "b1": F(9), "b2": F(4), "b3": F(2), "b4": F(3, 5),
     "s1": F(1, 2), "s2": F(5, 3), "sp1": F(2), "sp2": F(1, 6),
     "q": F(1, 4), "r": F(1, 2)},
    {"z": F(-7, 5), "g": F(1, 3), "a": F(19, 7), "b": F(4),
     "b1": F(3, 2), "b2": F(-1), "b3": F(6), "b4": F(2, 9),
     "s1": F(-1, 3), "s2": F(4, 5), "sp1": F(7, 6), "sp2": F(-2),
     "q": F(9, 16), "r": F(3, 4)},
]


def _bracket(entry):
    rec = entry.get("R_minus1") or entry.get("R_minus1_bracket")
    return ParamPoly.from_record(rec)


def test_tables_are_parsed_once():
    # appendix-b compares every row against the same parsed tables
    assert load_reference_tables() is load_reference_tables()


def test_factored_expansion_matches_frozen_records():
    tables = load_reference_tables()
    checked = 0
    for key, entry in tables.items():
        if key == "_meta" or "factored" not in entry:
            continue
        assert parse_poly(entry["factored"]) == _bracket(entry), key
        checked += 1
    assert checked >= 20


def test_three_point_evaluation_factored_vs_expanded():
    tables = load_reference_tables()
    for key, entry in tables.items():
        if key == "_meta" or "factored" not in entry:
            continue
        factored = parse_poly(entry["factored"])
        expanded = _bracket(entry)
        for point in EVAL_POINTS:
            assert factored.evaluate(point) == expanded.evaluate(point), key


def test_checksum_matches_entries():
    from importlib import resources

    payload = json.loads(resources.files("closurelab.data")
                         .joinpath("appendix_b.json").read_text())
    body = json.dumps(payload["entries"], sort_keys=True)
    digest = hashlib.sha256(body.encode()).hexdigest()
    assert digest == payload["meta"]["checksum_sha256"]


def test_degree_bounds_respected():
    tables = load_reference_tables()
    for key, entry in tables.items():
        if key == "_meta":
            continue
        fam = entry["family"]
        deg = _bracket(entry).degree("z")
        if fam in ("L", "J"):
            assert entry["K"] == 2 * deg, key
        else:
            assert deg in (entry.get("K", deg), deg)


def test_derived_rows_follow_their_rules():
    tables = load_reference_tables()
    b = ParamPoly.var("b")
    base = reference_expanded(tables[("J", "1I", "1")])
    derived = reference_expanded(tables[("J", "1II", "1")])
    assert derived == base.subs({"b": -b})
    base6 = reference_expanded(tables[("J", "2I", "1")])
    derived6 = reference_expanded(tables[("J", "2II", "1")])
    assert derived6 == -base6.subs({"b": -b})
    w_base = reference_expanded(tables[("W", "1I", "1")])
    w_swap = reference_expanded(tables[("W", "1II", "1")])
    swap = {"s1": ParamPoly.var("sp1"), "sp1": ParamPoly.var("s1"),
            "s2": ParamPoly.var("sp2"), "sp2": ParamPoly.var("s2")}
    assert w_swap == w_base.subs(swap)


def test_rebuild_is_idempotent(tmp_path):
    from closurelab.data.build import build_payload
    from importlib import resources

    frozen = json.loads(resources.files("closurelab.data")
                        .joinpath("appendix_b.json").read_text())
    rebuilt = build_payload()
    assert rebuilt["entries"] == frozen["entries"]
    assert rebuilt["meta"]["checksum_sha256"] == frozen["meta"]["checksum_sha256"]


def test_extension_targets_listed_without_values():
    tables = load_reference_tables()
    targets = tables["_meta"]["extension_targets"]["L"]
    assert "4I" in targets["10"] and "2I,2II" in targets["12"]
    assert len(targets["10"]) == 12 and len(targets["12"]) == 19
    # no stored rows for them
    assert ("L", "4I", "1") not in tables
