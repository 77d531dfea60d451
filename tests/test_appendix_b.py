"""Self-checks of the shipped reference tables: factored vs expanded forms,
checksum, schema, degree bounds, derived-row rules, and the pinned
expansions of the W/AW rows.

``src/closurelab/data/appendix_b.json`` is the transcription of record; no
other copy of the factored forms exists.  To add a row, write its
``factored`` string in the grammar of ``parse_poly`` (AW: the bracket, with
its prefactor in ``prefactor_num``/``prefactor_den``).  An L or J row also
carries ``R_minus1``, set to ``parse_poly(factored).record()``:
``verify-closure`` compares its solve against that expansion, and reading
the record is faster than parsing the string.  A W or AW row carries no
expansion, because no command compares against it; pin the sha256 of its
expansion in ``WAW_EXPANSION_SHA256`` instead.  Then recompute
``meta.checksum_sha256`` as ``test_checksum_matches_entries`` does, and write
the file as ``json.dumps(payload, indent=1, sort_keys=True) + "\\n"``.  A row
derived from another carries ``derived_from``, ``transform`` and ``scale``
in place of ``factored``."""

import hashlib
import json
from fractions import Fraction as F
from importlib import resources

from closurelab.closure import degree_bounds, load_reference_tables
from closurelab.exactalg import ParamPoly, parse_poly
from closurelab.families import MultiIndex

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


def _expanded(entry):
    return ParamPoly.from_record(entry["R_minus1"])


def test_tables_are_parsed_once():
    # appendix-b compares every row against the same parsed tables
    assert load_reference_tables() is load_reference_tables()


def test_factored_expansion_matches_frozen_records():
    tables = load_reference_tables()
    checked = 0
    for key, entry in tables.items():
        if key == "_meta" or "factored" not in entry or "R_minus1" not in entry:
            continue
        assert parse_poly(entry["factored"]) == _expanded(entry), key
        checked += 1
    assert checked == 20


def test_three_point_evaluation_factored_vs_expanded():
    tables = load_reference_tables()
    for key, entry in tables.items():
        if key == "_meta" or "factored" not in entry or "R_minus1" not in entry:
            continue
        factored = parse_poly(entry["factored"])
        expanded = _expanded(entry)
        for point in EVAL_POINTS:
            assert factored.evaluate(point) == expanded.evaluate(point), key


def _payload_text() -> str:
    return resources.files("closurelab.data").joinpath("appendix_b.json").read_text()


def test_checksum_matches_entries():
    text = _payload_text()
    payload = json.loads(text)
    body = json.dumps(payload["entries"], sort_keys=True)
    digest = hashlib.sha256(body.encode()).hexdigest()
    assert digest == payload["meta"]["checksum_sha256"]
    assert text == json.dumps(payload, indent=1, sort_keys=True) + "\n"


def test_every_entry_carries_its_fields():
    payload = json.loads(_payload_text())
    assert sorted(payload) == ["entries", "meta"]
    assert sorted(payload["meta"]) == ["checksum_sha256", "description",
                                       "extension_targets"]
    for entry in payload["entries"]:
        fam = entry["family"]
        want = {"family", "D", "Y", "source"}
        if fam in ("L", "J"):
            want.add("R_minus1")
        else:
            want.add("status")
        if fam == "AW":
            want |= {"prefactor_num", "prefactor_den"}
        if "factored" in entry:
            want.add("factored")
        else:
            want |= {"derived_from", "transform", "scale"}
        assert set(entry) == want, (fam, entry["D"], entry["Y"])


def test_degree_bounds_respected():
    # every L/J row at the order verify-closure solves it,
    # K = 2(ell_D + deg Y + 1)
    tables = load_reference_tables()
    rows = [key for key in tables if key != "_meta" and key[0] in ("L", "J")]
    for key in rows:
        _, D, Y = key
        K = 2 * (MultiIndex.parse(D).ell + parse_poly(Y).degree("eta") + 1)
        assert _expanded(tables[key]).degree("z") <= degree_bounds(K)[-1], key
    assert len(rows) == 23


SIGMA_SWAP = {"s1": "sp1", "sp1": "s1", "s2": "sp2", "sp2": "s2"}


def _transformed(poly: ParamPoly, transform: str) -> ParamPoly:
    if transform == "b->-b":
        return poly.subs({"b": -ParamPoly.var("b")})
    assert transform == "sigma-swap", transform
    return poly.subs({v: ParamPoly.var(w) for v, w in SIGMA_SWAP.items()})


def _derived_expansion(tables, entry) -> ParamPoly:
    """A derived row's R_-1 (AW: its bracket): the base's parsed factored
    form under the transform, times the scale."""
    base = tables[(entry["family"], *entry["derived_from"])]
    return _transformed(parse_poly(base["factored"]), entry["transform"]) * F(entry["scale"])


def test_derived_rows_follow_their_rules():
    # a stored derived R_-1 is its base's under the transform, times the
    # scale (W and AW store none: WAW_EXPANSION_SHA256 pins theirs); an AW
    # row's prefactors are its base's under the transform
    tables = load_reference_tables()
    derived = sorted(key for key, entry in tables.items()
                     if key != "_meta" and "derived_from" in entry)
    for key in derived:
        entry = tables[key]
        base = tables[(entry["family"], *entry["derived_from"])]
        assert "factored" in base, key
        rule = entry["transform"]
        if "R_minus1" in entry:
            assert _expanded(entry) == _derived_expansion(tables, entry), key
        if entry["family"] == "AW":
            for field in ("prefactor_num", "prefactor_den"):
                assert (parse_poly(entry[field])
                        == _transformed(parse_poly(base[field]), rule)), (key, field)
    assert derived == [("AW", "1II", "1"), ("J", "1II", "1"), ("J", "1II,2II", "1"),
                       ("J", "2II", "1"), ("W", "1II", "1")]


def test_extension_targets_listed_without_values():
    tables = load_reference_tables()
    targets = tables["_meta"]["extension_targets"]["L"]
    assert "4I" in targets["10"] and "2I,2II" in targets["12"]
    assert len(targets["10"]) == 12 and len(targets["12"]) == 19
    # no stored rows for them
    assert ("L", "4I", "1") not in tables


# sha256 of json.dumps(record, sort_keys=True) of each W/AW row's expanded
# R_-1 (AW: the bracket), as the file stored it before the expansions were
# dropped; the expansion is recomputed from the factored transcription
WAW_EXPANSION_SHA256 = {
    ("W", "{}", "1"): "411da61ff25ec9bd70ea3d2a8dc13fb6cb1a6b92d926cc9356da07479286a102",
    ("W", "1I", "1"): "df356070005e73c7e97463b573fe7d6cce40fbc6505152bbd1e4ef93ffaabf5a",
    ("W", "1II", "1"): "b7307703d5f374c68c0bcd8332e9facf555d70ac6bac40ab064ac6cfc7632eb8",
    ("AW", "{}", "1"): "4ace2880c454acdd68f2c3af600eeaaf4b42d362115f43cdb74aab6dd97f1b60",
    ("AW", "1I", "1"): "a44818982271fadd688ea44467967412dd5aee8539a9a6ee325b5bf72ed04ace",
    ("AW", "1II", "1"): "dc7e58c4f312395eb5c69b5355afa7a2819e2090a66d05b2e8578c346a869ee9",
}


def test_wilson_askey_wilson_expansions_match_their_digests():
    tables = load_reference_tables()
    rows = sorted(key for key in tables if key != "_meta" and key[0] in ("W", "AW"))
    assert rows == sorted(WAW_EXPANSION_SHA256)
    for key in rows:
        entry = tables[key]
        if "factored" in entry:
            poly = parse_poly(entry["factored"])
        else:
            poly = _derived_expansion(tables, entry)
        body = json.dumps(poly.record(), sort_keys=True)
        assert hashlib.sha256(body.encode()).hexdigest() == WAW_EXPANSION_SHA256[key], key
