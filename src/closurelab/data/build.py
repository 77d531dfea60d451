"""Build the frozen reference-table JSON from the source transcriptions.

Each transcription in tables_source.py is read by ``exactalg.parse_poly``
(the grammar of ``--Y`` and of every printed polynomial: integer or p/q
coefficients, ``*``, ``+``, ``-``, parentheses and ``^`` for nonnegative
integer powers) and frozen next to its string as an exact record; no
source string is evaluated as Python.  Run as a module to regenerate
src/closurelab/data/appendix_b.json after editing tables_source.py:
python -m closurelab.data.build
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from ..exactalg import ParamPoly, parse_poly
from . import tables_source as src


def _apply_transform(poly: ParamPoly, transform: str, scale: str) -> ParamPoly:
    if transform == "b->-b":
        out = poly.subs({"b": -ParamPoly.var("b")})
    elif transform == "sigma-swap":
        out = poly.subs({"s1": ParamPoly.var("sp1"), "sp1": ParamPoly.var("s1"),
                         "s2": ParamPoly.var("sp2"), "sp2": ParamPoly.var("s2")})
    else:
        raise ValueError(f"unknown transform {transform!r}")
    return (out * Fraction(scale)).trimmed()


def build_payload() -> dict:
    entries = []

    def base_entry(fam, key, expanded, **extra):
        D, Y = key
        deg = expanded.degree("z")
        entry = {"family": fam, "D": D, "Y": Y,
                 "K": 2 * deg if fam in ("L", "J") else deg,
                 "R_minus1": expanded.record()}
        entry.update(extra)
        entries.append(entry)
        return entry

    for key, expr in src.LAGUERRE.items():
        base_entry("L", key, parse_poly(expr), factored=expr,
                   source=f"reference-table/L/{key[0]}/Y={key[1]}")
    for key, expr in src.JACOBI.items():
        base_entry("J", key, parse_poly(expr), factored=expr,
                   source=f"reference-table/J/{key[0]}/Y={key[1]}")
    for key, rule in src.JACOBI_DERIVED.items():
        base = parse_poly(src.JACOBI[rule["base"]])
        expanded = _apply_transform(base, rule["transform"], rule["scale"])
        base_entry("J", key, expanded,
                   derived_from=list(rule["base"]), transform=rule["transform"],
                   scale=rule["scale"],
                   source=f"reference-table/J/{key[0]}/Y={key[1]}")
    for key, expr in src.WILSON.items():
        base_entry("W", key, parse_poly(expr), factored=expr,
                   status="reference-only",
                   source=f"reference-table/W/{key[0]}/Y={key[1]}")
    for key, rule in src.WILSON_DERIVED.items():
        base = parse_poly(src.WILSON[rule["base"]])
        expanded = _apply_transform(base, rule["transform"], rule["scale"])
        base_entry("W", key, expanded, status="reference-only",
                   derived_from=list(rule["base"]), transform=rule["transform"],
                   scale=rule["scale"],
                   source=f"reference-table/W/{key[0]}/Y={key[1]}")
    for key, parts in src.ASKEY_WILSON.items():
        bracket = parse_poly(parts["bracket"])
        D, Y = key
        entries.append({
            "family": "AW", "D": D, "Y": Y, "status": "reference-only",
            "prefactor_num": parts["prefactor_num"],
            "prefactor_den": parts["prefactor_den"],
            "factored": parts["bracket"],
            "R_minus1_bracket": bracket.record(),
            "source": f"reference-table/AW/{D}/Y={Y}",
        })
    for key, rule in src.ASKEY_WILSON_DERIVED.items():
        base = parse_poly(src.ASKEY_WILSON[rule["base"]]["bracket"])
        bracket = _apply_transform(base, rule["transform"], rule["scale"])
        D, Y = key
        entries.append({
            "family": "AW", "D": D, "Y": Y, "status": "reference-only",
            "prefactor_num": src.ASKEY_WILSON[rule["base"]]["prefactor_num"],
            "prefactor_den": src.ASKEY_WILSON[rule["base"]]["prefactor_den"].replace("s2", "sp2"),
            "derived_from": list(rule["base"]), "transform": rule["transform"],
            "R_minus1_bracket": bracket.record(),
            "source": f"reference-table/AW/{D}/Y={Y}",
        })
    body = json.dumps(entries, sort_keys=True)
    checksum = hashlib.sha256(body.encode()).hexdigest()
    return {
        "meta": {
            "description": "Exact inhomogeneous-term reference tables for the "
                           "generalized closure relations (minimal X unless Y "
                           "says otherwise).",
            "checksum_sha256": checksum,
            "extension_targets": src.EXTENSION_TARGETS,
        },
        "entries": entries,
    }


def main() -> None:
    payload = build_payload()
    out = Path(__file__).with_name("appendix_b.json")
    out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(payload['entries'])} entries)")


if __name__ == "__main__":
    main()
