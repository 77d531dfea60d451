"""CLI: subcommands, exit codes, deterministic reports, plugin gating."""

import argparse
import copy
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from closurelab.cli import (DEFAULT_PARAMS, RANDOM_SPECTRA, ConfigError,
                            _param_items, _param_set, _parse_D_Y, _parse_Y,
                            build_parser, main)
from closurelab.exactalg import MAX_DIGITS
from closurelab.families import (MAX_ELL, MAX_N, DegreeMismatch, ParamSet,
                                 SchemaError, family_from_plugin_dict,
                                 load_family_plugin)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_cli(*argv):
    return main(list(argv))


def test_verify_closure_pass(tmp_path):
    report = tmp_path / "r.json"
    code = run_cli("verify-closure", "--family", "L", "--D", "1I", "--Y", "1",
                   "--report", str(report))
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["summary"]["fail"] == 0
    ids = [c["id"] for c in payload["checks"]]
    assert "closure/identity" in ids and "closure/reference-table" in ids
    values = {c["id"]: c.get("detail", {}).get("value") for c in payload["checks"]}
    assert values["closure/value/R2"] == "80"


def test_verify_closure_higher_Y(tmp_path):
    report = tmp_path / "r.json"
    code = run_cli("verify-closure", "--family", "L", "--D", "1I",
                   "--Y", "eta^2", "--report", str(report))
    assert code == 0
    payload = json.loads(report.read_text())
    solve = next(c for c in payload["checks"] if c["id"] == "closure/solve")
    assert solve["detail"]["K"] == 8
    r6 = next(c for c in payload["checks"] if c["id"] == "closure/value/R6")
    assert r6["detail"]["value"] == "480"


def test_signed_factor_of_Y_negates_its_power(tmp_path):
    # --Y 2*-eta^2 is -2 eta^2, as -2*eta^2 is: the report echoes the X
    # that the closure is built from
    report = tmp_path / "r.json"
    code = run_cli("verify-closure", "--family", "L", "--D", "1I",
                   "--Y", "2*-eta^2", "--report", str(report))
    assert code == 0
    assert json.loads(report.read_text())["config"]["Y"] == "-2*eta^2"


def test_verify_closure_wilson_spectral_notice(tmp_path):
    report = tmp_path / "r.json"
    code = run_cli("verify-closure", "--family", "W", "--D", "1I",
                   "--n-max", "4", "--report", str(report))
    assert code == 0
    payload = json.loads(report.read_text())
    op = next(c for c in payload["checks"] if c["id"] == "operator-level")
    assert op["status"] == "skip"
    assert op["detail"]["notice"] == ("not implemented: operator-level "
                                      "closure for difference operators")
    assert payload["summary"]["fail"] == 0


def test_reports_are_byte_stable(tmp_path):
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    for r in (r1, r2):
        assert run_cli("recurrence", "--family", "L", "--D", "1I",
                       "--n-max", "4", "--report", str(r)) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_Y_degree_is_capped_with_ell():
    # ell + deg Y may reach MAX_ELL, the cap on ell alone, and no further
    for D, Y in (("1I", f"eta^{MAX_ELL - 1}"), ("", f"eta^{MAX_ELL}"),
                 (f"{MAX_ELL}I", "")):
        parsed_D, parsed_Y = _parse_D_Y(argparse.Namespace(D=D, Y=Y))
        assert parsed_D.ell + parsed_Y.degree == MAX_ELL
    for D, Y in (("1I", f"eta^{MAX_ELL}"), ("", f"eta^{MAX_ELL + 1}"),
                 (f"{MAX_ELL}I", "eta"), ("1II", f"(eta+1)^{MAX_ELL}")):
        with pytest.raises(ConfigError, match="is above the supported bound"):
            _parse_D_Y(argparse.Namespace(D=D, Y=Y))


@pytest.mark.parametrize("argv", [
    ["verify-closure", "--family", "L", "--params", "g"],
    ["recurrence", "--family", "W"],
    ["verify-closure", "--family", "AW", "--params", "q=1/2"],  # q: a square
    ["verify-closure", "--Y", "eta^"],
    ["heisenberg", "--D", "9Z"],
    ["appendix-b", "--plugin", "{truncated}"],
    ["recurrence", "--plugin", "{missing}"],
    ["verify-closure", "--D", "2I", "--plugin", "{six-levels}"],
    ["verify-closure", "--D", "1I,2I"],
    ["spectrum", "--family", "J", "--Y", "eta"],  # a = 5 = 2L-1
    ["heisenberg", "--family", "J", "--Y", "eta"],
    ["verify-closure", "--D", f"{MAX_ELL + 1}I"],
    ["verify-closure", "--D", "2I", "--plugin", "{ell-above-bound}"],
    ["verify-closure", "--D", "2II", "--params", "g=3/2"],
    ["verify-closure", "--family", "L", "--D", "1I", "--params", "gg=3"],
    ["appendix-b", "--params", "gg=3"],
    ["verify-closure", "--D", "1I", "--Y", "g"],
    ["recurrence", "--Y", "g"],
    ["verify-closure", "--Y", "0"],
    ["heisenberg", "--Y", "0"],
    ["spectrum", "--Y", "0"],
    ["verify-closure", "--Y", "1/0"],
    ["verify-closure", "--params", "g=1/0"],
    ["verify-closure", "--D", "2I", "--plugin", "{P-list}"],
    ["recurrence", "--plugin", "{parameters-list}"],
    ["heisenberg", "--D", "2I", "--plugin", "{parameters-zero-denominator}"],
    ["recurrence", "--mode", "symbolic"],
    ["heisenberg", "--mode", "sampled"],
    ["verify-closure", "--family", "W", "--mode", "symbolic"],
    ["verify-closure", "--family", "AW", "--mode", "symbolic"],
    ["appendix-b", "--n-max", "3"],
    ["plugin-validate", "--plugin", "{shipped}", "--n-max", "3"],
    ["plugin-validate"],
    ["recurrence", "--plugin", "{d-float}"],
    ["verify-closure", "--D", "2I", "--plugin", "{d-bool}"],
    ["spectrum", "--family", "W", "--D", "1I", "--plugin", "{missing}"],
    ["verify-closure", "--family", "W", "--plugin", "{missing}"],
    ["verify-closure", "--family", "AW", "--plugin", "{shipped}"],
    ["verify-closure", "--D", "2II", "--mode", "symbolic", "--params", "g=3"],
    ["verify-closure", "--D", "1I,2I", "--mode", "symbolic"],
    ["verify-closure", "--D", "2I", "--mode", "symbolic", "--plugin", "{shipped}"],
    ["verify-closure", "--D", "1I", "--plugin", "{shipped}"],
    ["recurrence", "--family", "L", "--D", "2I", "--plugin", "{jacobi}"],
    ["heisenberg", "--D", "2II", "--plugin", "{shipped}"],
    ["spectrum", "--random-spectra", "3"],
    ["verify-closure", "--n-max", "-2"],
    ["verify-closure", "--family", "J", "--D", "1II", "--params", "g=3", "h=1"],
    ["heisenberg", "--family", "J", "--D", "2II", "--params", "g=7/2", "h=1/2"],
    ["recurrence", "--family", "J", "--D", "{}", "--params", "g=1/2", "h=-1/2"],
    ["recurrence", "--family", "J", "--D", "1I", "--params", "g=3", "h=-2"],
    ["verify-closure", "--Y", "eta^16", "--D", "1I"],
    ["verify-closure", "--Y", "eta^16", "--D", "1I", "--mode", "symbolic"],
    ["recurrence", "--Y", "eta^16", "--D", "1I"],
    ["spectrum", "--Y", "eta^16", "--D", "1I"],
    ["heisenberg", "--Y", "eta^16", "--D", "1I"],
    ["verify-closure", "--Y", "(eta+1)^1600"],
    ["verify-closure", "--Y", "(a+b+c+d+e+f+g+h)^32"],
    ["verify-closure", "--Y", "3^100000*eta"],
    ["spectrum", "--family", "W", "--params", "a1=1/4", "a2=1/4", "a3=1/4", "a4=1/4"],
    ["spectrum", "--family", "AW", "--params", "a1=1/2", "a2=1/2", "a3=1/2", "a4=1/2",
     "q=1/4"],
    ["heisenberg", "--family", "W"],
    ["heisenberg", "--family", "AW"],
    ["spectrum", "CLOSURELAB_SEED=abc"],
    ["spectrum", "CLOSURELAB_SEED=1_0"],
    ["spectrum", "CLOSURELAB_SEED=-3"],
    ["verify-closure", "--D", "1_0I"],
    ["verify-closure", "--D", "\uff11I"],  # a fullwidth 1
    ["verify-closure", "--D", "+1I"],
    ["verify-closure", "--n-max", "1_0"],
    ["verify-closure", "--params", "g=\uff17/\uff13"],  # a fullwidth 7/3
    ["verify-closure", "--D", "2I", "--plugin", "{parameters-extra}"],
    ["verify-closure", "--D", "2I", "--plugin", "{parameters-bool}"],
    ["verify-closure", "--D", "2I", "--plugin", "{coefficient-bool}"],
], ids=["params", "W-recurrence", "AW-q", "Y", "D", "truncated-plugin",
        "missing-plugin", "plugin-levels", "multi-seed", "J-range-spectrum",
        "J-range-heisenberg", "ell-bound", "ell-bound-plugin",
        "degenerate-seed", "unknown-param", "unknown-param-appendix-b",
        "Y-param-var", "Y-param-var-recurrence", "Y-zero", "Y-zero-heisenberg",
        "Y-zero-spectrum", "Y-zero-denominator", "params-zero-denominator",
        "plugin-P-list", "plugin-parameters-list",
        "plugin-parameters-zero-denominator", "recurrence-mode",
        "heisenberg-mode", "W-symbolic", "AW-symbolic", "appendix-b-n-max", "plugin-validate-n-max",
        "plugin-validate-no-plugin", "plugin-d-float", "plugin-d-bool",
        "spectrum-plugin", "W-plugin", "AW-plugin", "symbolic-params",
        "symbolic-multi-seed", "symbolic-plugin", "plugin-other-D",
        "plugin-other-family", "plugin-other-D-heisenberg",
        "random-spectra-unknown", "negative-n-max", "seed-loses-degree",
        "seed-loses-degree-heisenberg", "J-norm-ratio-pole", "J1I-table-pole",
        "Y-degree-bound", "Y-degree-bound-symbolic", "Y-degree-bound-recurrence",
        "Y-degree-bound-spectrum", "Y-degree-bound-heisenberg",
        "Y-parse-degree-bound", "Y-param-var-power", "Y-constant-power",
        "W-range-spectrum", "AW-range-spectrum", "W-heisenberg", "AW-heisenberg",
        "seed-letters", "seed-underscore", "seed-negative", "D-underscore",
        "D-fullwidth", "D-plus", "n-max-underscore", "params-fullwidth",
        "plugin-parameters-extra", "plugin-parameters-bool", "plugin-coefficient-bool"])
def test_config_error_exit_code(argv, tmp_path, explicit_plugin, capsys, monkeypatch):
    shipped = (ROOT / "plugins" / "laguerre_2I.json").read_text()
    plugin = json.loads(shipped)
    truncated = tmp_path / "truncated.json"
    truncated.write_text(shipped[:200])

    def replaced(name, field, value):
        data = json.loads(shipped)
        data[field] = value
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        return str(path)

    seed = next((a.split("=", 1)[1] for a in argv
                 if a.startswith("CLOSURELAB_SEED=")), None)
    if seed is not None:
        monkeypatch.setenv("CLOSURELAB_SEED", seed)
        argv = [a for a in argv if not a.startswith("CLOSURELAB_SEED=")]

    files = {"{truncated}": str(truncated),
             "{missing}": str(tmp_path / "missing.json"),
             "{six-levels}": str(explicit_plugin(6)),
             "{ell-above-bound}": replaced("above", "D",
                                           [{"d": MAX_ELL + 1, "type": "I"}]),
             "{P-list}": replaced("P-list", "P", []),
             "{parameters-list}": replaced("parameters-list", "parameters", ["g"]),
             "{parameters-zero-denominator}": replaced(
                 "parameters-zero", "parameters", {"g": "1/0"}),
             "{shipped}": str(ROOT / "plugins" / "laguerre_2I.json"),
             "{jacobi}": str(ROOT / "plugins" / "jacobi_2I.json"),
             "{d-float}": replaced("d-float", "D", [{"d": 2.9, "type": "I"}]),
             "{d-bool}": replaced("d-bool", "D", [{"d": True, "type": "I"}]),
             "{parameters-extra}": replaced(
                 "parameters-extra", "parameters",
                 {**plugin["parameters"], "q": "1/2", "bogus": "3"}),
             "{parameters-bool}": replaced("parameters-bool", "parameters", {"g": True}),
             "{coefficient-bool}": replaced(
                 "coefficient-bool", "xi",
                 {**plugin["xi"], "terms": [{"coefficient": True, "exponents": [0]},
                                            *plugin["xi"]["terms"][1:]]})}
    assert run_cli(*(files.get(a, a) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    if "{six-levels}" in argv:
        # K = 6 and L = 3: the solve reads P_0..P_(K+L)
        assert "needs P_0..P_9, the plugin lists P_0..P_5" in err
    if "gg=3" in argv:
        fams = "L and J are g, h" if "appendix-b" in argv else "L are g"
        assert f"--params 'gg': the parameters of {fams}" in err
    if "J" in argv and "--params" not in argv:
        assert "a=5 is not above the ordering bound 2L-1=5" in err
    if f"{MAX_ELL + 1}I" in argv or "{ell-above-bound}" in argv:
        assert f"ell = {MAX_ELL + 1} is above the supported bound {MAX_ELL}" in err
    if "g=3/2" in argv:
        assert "L[2II]: the virtual energy equals E_1" in err
    if "h=1" in argv:
        assert err == ("configuration error: J[1II]: the seed has degree below 1 "
                       "at b = 2, so it is degenerate at these parameters\n")
    if "h=1/2" in argv:
        assert err == ("configuration error: J[2II]: the seed has degree below 2 "
                       "at b = 3, so it is degenerate at these parameters\n")
    if "h=-1/2" in argv:
        assert err == ("configuration error: a=0: the factor n+a-1 of the norm "
                       "ratio h_n/h_(n-1) vanishes at n=1\n")
    if "h=-2" in argv:
        assert err == ("configuration error: a=1: the factor a+2n-1 of the J[1I] "
                       "coefficient r_(n,0) vanishes at n=0\n")
    Y = argv[argv.index("--Y") + 1] if "--Y" in argv else None
    if Y == "eta^16":
        assert err == ("configuration error: --Y 'eta^16': ell + deg Y = 17 is "
                       f"above the supported bound {MAX_ELL}\n")
    if Y in ("g", "0", "(a+b+c+d+e+f+g+h)^32"):
        assert f"--Y '{Y}': Y must be a nonzero polynomial in eta" in err
    if Y == "(eta+1)^1600":
        assert err == ("configuration error: --Y '(eta+1)^1600': total degree "
                       "1600 is above the parser's bound 32\n")
    if Y == "3^100000*eta":
        assert err == ("configuration error: --Y '3^100000*eta': exponent "
                       "100000 is above the parser's bound 32\n")
    if Y == "1/0":
        assert "--Y '1/0': zero denominator" in err
    if "g=1/0" in argv:
        assert "--params g=1/0: zero denominator" in err
    if "{P-list}" in argv:
        assert err.endswith(": P must be an object with a 'kind'\n")
    if "{parameters-list}" in argv:
        assert err.endswith(": parameters must be an object of name: 'p/q' entries\n")
    if "{parameters-zero-denominator}" in argv:
        assert err.endswith(": bad parameters: zero denominator\n")
    if argv[0] != "verify-closure" and ("--mode" in argv or "--n-max" in argv):
        flag = "--mode" if "--mode" in argv else "--n-max"
        assert err.startswith(f"configuration error: closurelab: unrecognized "
                              f"arguments: {flag} ")
    if "symbolic" in argv and argv[2] in ("W", "AW"):
        assert err.endswith(": symbolic mode reconstructs the L and J families only\n")
    if "symbolic" in argv and "--params" in argv:
        assert err.endswith(": --params: symbolic mode is exact in the parameters "
                            "and takes no parameter values\n")
    if "symbolic" in argv and "--plugin" in argv:
        assert err.endswith(": symbolic mode reconstructs built-in families only\n")
    if "1I,2I" in argv:
        assert err.endswith(": no built-in family for D=1I,2I (supply a plugin)\n")
    if argv[0] == "spectrum" and "--plugin" in argv:
        assert err.startswith("configuration error: closurelab: unrecognized "
                              "arguments: --plugin ")
    if argv[0] == "verify-closure" and argv[2] in ("W", "AW") and "--plugin" in argv:
        assert err.endswith(": --plugin: W and AW closure is checked spectrally "
                            "and reads no plugin\n")
    if argv == ["plugin-validate"]:
        assert err.endswith(": the following arguments are required: --plugin\n")
    if "{shipped}" in argv and "symbolic" not in argv and argv[1] == "--D":
        D = argv[argv.index("--D") + 1]
        assert err.endswith(f" holds L[2I], not --family L --D {D}\n")
    if "{jacobi}" in argv:
        assert err.endswith(" holds J[2I], not --family L --D 2I\n")
    if "--n-max" in argv and argv[argv.index("--n-max") + 1].startswith("-"):
        assert err.endswith(f"argument --n-max: must be nonnegative, got "
                            f"{argv[argv.index('--n-max') + 1]}\n")
    if "--random-spectra" in argv:  # the count is the constant RANDOM_SPECTRA
        assert err.endswith(": unrecognized arguments: --random-spectra 3\n")
    if "a1=1/4" in argv:
        assert err == "configuration error: b1 is not above the ordering bound 2L\n"
    if "q=1/4" in argv:
        assert err == "configuration error: b4 is not below the ordering bound q^(2L)\n"
    if argv[0] == "heisenberg" and ("W" in argv or "AW" in argv):
        assert err.endswith(": the ladder suite needs polynomial family data (L or J)\n")
    if "{d-float}" in argv:
        assert err.endswith(": bad multi-index: seed degree 2.9 is not an integer\n")
    if "{d-bool}" in argv:
        assert err.endswith(": bad multi-index: seed degree True is not an integer\n")
    if seed is not None:
        assert err == ("configuration error: CLOSURELAB_SEED: " +
                       ("must be nonnegative, got -3\n" if seed == "-3" else
                        f"not an integer in ASCII digits: {seed!r}\n"))
    D = argv[argv.index("--D") + 1] if "--D" in argv else None
    if D in ("1_0I", "\uff11I", "+1I"):
        assert err == (f"configuration error: --D {D!r}: not an integer in ASCII "
                       f"digits: {D[:-1]!r}\n")
    if "1_0" in argv:
        assert err.endswith(": argument --n-max: not an integer in ASCII digits: '1_0'\n")
    if "g=\uff17/\uff13" in argv:
        assert err == ("configuration error: --params g=\uff17/\uff13: not an exact "
                       "rational p/q: '\uff17/\uff13'\n")
    if "{parameters-extra}" in argv:
        assert err.endswith(": bad parameters: the parameters of L are g, got bogus, g, q\n")
    if "{parameters-bool}" in argv:
        assert err.endswith(": bad parameters: not an exact rational: True\n")
    if "{coefficient-bool}" in argv:
        assert err.endswith(": bad xi record: not an exact rational: True\n")


# Short inputs over the characters of the syntax: long enough to reach
# every parser branch, short enough that no exponent or size is large.
@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="etagh0123456789/^*+-() ", max_size=8))
def test_Y_parses_or_is_a_config_error(text):
    try:
        Y = _parse_Y(text)
    except ConfigError:
        return
    assert not Y.is_zero and Y.used_vars() in ((), ("eta",))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet="ghq=0123456789/- ", max_size=6), max_size=3))
def test_params_parse_or_are_a_config_error(items):
    for fam in ("L", "J"):
        try:
            params = _param_set(fam, _param_items(items, (fam,)))
        except ConfigError:
            continue
        assert isinstance(params, ParamSet)


# Numbers in a notation other than the package's one grammar (sign, digits,
# optional /digits): an exponent would make a 10-character value a number
# of a million digits, so each is refused before it is read, and so is a
# number of more than MAX_DIGITS digits.  So are --Y powers and products
# whose coefficients would outgrow MAX_PARSE_BITS, and nesting deep enough
# to exhaust the recursion limit, in --Y or in a plugin file; plugin-validate
# reports a plugin it cannot read as a failed load (exit 1).
@pytest.mark.parametrize("argv", [
    ["verify-closure", "--family", "L", "--D", "1I", "--params", "g=1e999999"],
    ["spectrum", "--family", "AW", "--params", "a1=1e99999"],
    ["verify-closure", "--D", "2I", "--plugin", "{parameter}"],
    ["verify-closure", "--D", "2I", "--plugin", "{coefficient}"],
    ["verify-closure", "--family", "L", "--D", "1I", "--Y", "(((3^32)^32)^32)^32*eta"],
    ["verify-closure", "--family", "L", "--D", "1I",
     "--Y", "((((3^32)^32)^32)^32)^32*eta"],
    ["verify-closure", "--family", "L", "--D", "1I", "--Y", "*".join(["(3^32)^32"] * 1000)
     + "*eta"],
    ["verify-closure", "--family", "L", "--D", "1I", "--Y", "(" * 250 + "eta" + ")" * 250],
    ["verify-closure", "--family", "L", "--D", "1I",
     "--Y", "(" * 20000 + "eta" + ")" * 20000],
    ["verify-closure", "--family", "L", "--D", "1I", "--params",
     "g=1/" + "3" * (MAX_DIGITS + 1)],
    ["plugin-validate", "--plugin", "{deep}", "--json"],
    ["verify-closure", "--D", "2I", "--plugin", "{deep}"],
], ids=["params", "AW-params", "plugin-parameter", "plugin-coefficient",
        "Y-nested-power", "Y-nested-power-5", "Y-product-1000", "Y-nesting-250",
        "Y-nesting-20000", "params-digits", "plugin-nesting-validate",
        "plugin-nesting"])
def test_huge_numbers_are_refused_at_once(argv, tmp_path, capsys):
    data = json.loads((ROOT / "plugins" / "laguerre_2I.json").read_text())
    data["parameters"]["g"] = "1e999999"
    (tmp_path / "parameter.json").write_text(json.dumps(data))
    data = json.loads((ROOT / "plugins" / "laguerre_2I.json").read_text())
    data["P"]["P_coeff"]["terms"][0]["coefficient"] = "1e999999"
    (tmp_path / "coefficient.json").write_text(json.dumps(data))
    (tmp_path / "deep.json").write_text("[" * 100000)
    start = time.perf_counter()
    code = run_cli(*(str(tmp_path / f"{a[1:-1]}.json") if a.startswith("{") else a
                     for a in argv))
    assert time.perf_counter() - start < 0.5
    out, err = capsys.readouterr()
    if argv[0] == "plugin-validate":  # a failed load is a failing check
        (load,) = json.loads(out)["checks"]
        assert code == 1 and load["status"] == "fail"
        err = load["detail"]["error"] + "\n"
    else:
        assert code == 2 and err.startswith("configuration error: ")
    assert err.count("\n") == 1
    Y = argv[-1]
    if "{deep}" in argv:
        assert err.endswith(": plugin nests deeper than the JSON reader's "
                            "recursion limit\n")
    elif Y.startswith("g=1/"):
        assert err.endswith(f": a number of {MAX_DIGITS + 1} digits is above the "
                            f"reader's bound {MAX_DIGITS} digits\n")
    elif Y.startswith("(" * 250):
        assert err.endswith(": parentheses and signs nest deeper than the parser's "
                            "bound 100\n")
    elif Y.startswith("(3^32)^32*"):
        assert err.endswith(": a product of 3247- and 1624-bit coefficients is above "
                            "the parser's bound 4096 bits\n")
    elif "--Y" in argv:
        assert err.endswith(": a power of 32 on 1624-bit coefficients is above "
                            "the parser's bound 4096 bits\n")
    else:
        assert err.endswith("not an exact rational p/q: '1e999999'\n"
                            if "AW" not in argv else
                            "not an exact rational p/q: '1e99999'\n")


SHIPPED_PLUGINS = sorted(p.name for p in (ROOT / "plugins").glob("*.json"))


# Every top-level field of a shipped plugin replaced by a small value of
# another JSON type: loading must end in a report or a one-line
# configuration error, never in a traceback.
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SHIPPED_PLUGINS),
       st.sampled_from(["family", "parameters", "D", "xi", "P"]),
       st.one_of(st.lists(st.one_of(st.integers(-3, 3), st.text(max_size=3)),
                          max_size=3),
                 st.integers(-10, 10),
                 st.floats(-10, 10, allow_nan=False),
                 st.text(max_size=6),
                 st.just({})),
       st.sampled_from(["plugin-validate", "recurrence"]))
def test_replaced_plugin_field_ends_in_an_exit_code(name, field, value, command):
    data = json.loads((ROOT / "plugins" / name).read_text())
    data[field] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / name
        path.write_text(json.dumps(data))
        assert run_cli(command, "--plugin", str(path)) in (0, 1, 2)


def _field_paths(node, prefix=()):
    """The path of every object member and list entry below ``node``."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _field_paths(child, prefix + (key,))


PLUGIN_2I = json.loads((ROOT / "plugins" / "laguerre_2I.json").read_text())
PLUGIN_2I_PATHS = list(_field_paths(PLUGIN_2I))


# Every field of a shipped plugin, at any depth, replaced by a small value:
# loading ends in a failed load (exit 1) or a configuration error (exit 2),
# never in a traceback; a replacement equal to the field changes nothing
# and still loads.
@pytest.mark.parametrize("value", [None, 0, "x", [], {}, [0]])
def test_replaced_nested_plugin_field_ends_in_an_exit_code(value, tmp_path):
    assert len(PLUGIN_2I_PATHS) == 57
    path = tmp_path / "p.json"
    for field_path in PLUGIN_2I_PATHS:
        data = copy.deepcopy(PLUGIN_2I)
        node = data
        for key in field_path[:-1]:
            node = node[key]
        unchanged = node[field_path[-1]] == value
        node[field_path[-1]] = value
        path.write_text(json.dumps(data))
        code = run_cli("plugin-validate", "--plugin", str(path))
        assert code in ((0,) if unchanged else (1, 2)), field_path


def test_failing_check_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"family": "L"}))
    assert run_cli("plugin-validate", "--plugin", str(bad)) == 1


def test_plugin_validate_shipped():
    plug = ROOT / "plugins" / "laguerre_2I.json"
    assert run_cli("plugin-validate", "--plugin", str(plug)) == 0


@pytest.mark.parametrize("name, top", [("laguerre_2I.json", 8),
                                       ("laguerre_3I.json", 9)])
def test_plugin_validate_reports_the_levels_it_checked(name, top, tmp_path):
    # loading checks the eigen-equations of P_0..P_(upper+L) before the
    # norm-ratio rows 0..upper read them (L = 3 for 2I, 4 for 3I)
    report = tmp_path / "r.json"
    assert run_cli("plugin-validate", "--plugin", str(ROOT / "plugins" / name),
                   "--report", str(report)) == 0
    checks = json.loads(report.read_text())["checks"]
    eigen = next(c for c in checks if c["id"] == "plugin/eigen-equations")
    assert eigen["detail"] == {"validated_n": top}


def _plugin_load_error(path, tmp_path):
    report = tmp_path / "r.json"
    assert run_cli("plugin-validate", "--plugin", str(path),
                   "--report", str(report)) == 1
    (load,) = json.loads(report.read_text())["checks"]
    return load["detail"]["error"]


def test_plugin_load_names_a_broken_level(explicit_plugin, tmp_path):
    # rows 0..5 of the symmetry check read P_0..P_8; their eigen-equations
    # are checked first, so P_6 + P_5 is named as level 6
    error = _plugin_load_error(explicit_plugin(10, broken=6), tmp_path)
    assert error.endswith("L[2I]: eigen-equation fails at n=6")


def test_plugin_validate_rejects_a_fractional_seed_degree(tmp_path):
    # a degree 2.9 was truncated to 2 and the plugin passed as L[2I]
    data = json.loads((ROOT / "plugins" / "laguerre_2I.json").read_text())
    data["D"] = [{"d": 2.9, "type": "I"}]
    path = tmp_path / "d.json"
    path.write_text(json.dumps(data))
    error = _plugin_load_error(path, tmp_path)
    assert error.endswith(": bad multi-index: seed degree 2.9 is not an integer")


def test_plugin_symmetry_failure_names_its_first_row(tmp_path):
    # 2 P_3 is still an eigenpolynomial, but the rows through P_3 lose
    # the normalization the norm ratios assume: row (n, l) = (3, 1) first
    path = ROOT / "plugins" / "laguerre_2I.json"
    data = json.loads(path.read_text())
    df = load_family_plugin(path)
    polys = [df.P(n) * (2 if n == 3 else 1) for n in range(10)]
    data["P"] = {"kind": "explicit", "polys": [p.record() for p in polys]}
    scaled = tmp_path / "scaled.json"
    scaled.write_text(json.dumps(data))
    error = _plugin_load_error(scaled, tmp_path)
    assert error.endswith("L[2I]: norm-ratio symmetry fails at n=3, l=1")


def test_appendix_b_with_plugin(tmp_path):
    report = tmp_path / "r.json"
    plug = ROOT / "plugins" / "laguerre_2I.json"
    code = run_cli("appendix-b", "--filter", "L/2I", "--plugin", str(plug),
                   "--params", "g=7/2", "--report", str(report))
    assert code == 0
    payload = json.loads(report.read_text())
    row = next(c for c in payload["checks"] if c["id"] == "appendix-b/L/2I/Y=1")
    assert row["status"] == "pass"


def test_appendix_b_marks_plugin_gated(tmp_path):
    report = tmp_path / "r.json"
    code = run_cli("appendix-b", "--filter", "L/1I,2I", "--report", str(report))
    assert code == 0
    payload = json.loads(report.read_text())
    row = next(c for c in payload["checks"]
               if c["id"] == "appendix-b/L/1I,2I/Y=1")
    assert row["status"] == "skip"
    assert row["detail"]["notice"] == "plugin required"


def test_appendix_b_checks_single_seed_rows_in_core(tmp_path):
    report = tmp_path / "r.json"
    assert run_cli("appendix-b", "--report", str(report)) == 0
    payload = json.loads(report.read_text())
    status = {c["id"]: c["status"] for c in payload["checks"]}
    for label in ("L/2I", "L/2II", "L/3I", "L/3II", "J/2I", "J/2II"):
        assert status[f"appendix-b/{label}/Y=1"] == "pass"
    for c in payload["checks"]:
        if "," in c["id"].split("/")[2]:
            assert c["detail"]["notice"] == "plugin required"
    assert payload["summary"] == {"pass": 14, "fail": 0, "skip": 17}


def test_appendix_b_skips_rows_that_cannot_be_built(tmp_path):
    # g = 1/2 makes the type II seeds degenerate; --params apply to both
    # families, and every other single-seed row is still checked
    report = tmp_path / "r.json"
    assert run_cli("appendix-b", "--params", "g=1/2", "--report", str(report)) == 0
    checks = {c["id"]: c for c in json.loads(report.read_text())["checks"]}
    for label, n in (("J/1II", 1), ("J/2II", 2), ("L/1II", 1), ("L/2II", 2),
                     ("L/3II", 3)):
        row = checks[f"appendix-b/{label}/Y=1"]
        assert row["status"] == "skip"
        assert f"the virtual energy equals E_{n}" in row["detail"]["notice"]
    for label in ("J/{}", "J/1I", "J/2I", "L/{}", "L/1I", "L/2I", "L/3I"):
        assert checks[f"appendix-b/{label}/Y=1"]["status"] == "pass"
    assert run_cli("appendix-b", "--params", "g=x") == 2


def test_appendix_b_filter_selects_whole_labels(tmp_path):
    report = tmp_path / "r.json"
    assert run_cli("appendix-b", "--filter", "L/1I", "--report", str(report)) == 0
    rows = {c["id"] for c in json.loads(report.read_text())["checks"]
            if "extension-targets" not in c["id"]}
    assert rows == {"appendix-b/L/1I/Y=1", "appendix-b/L/1I/Y=eta",
                    "appendix-b/L/1I/Y=eta^2", "appendix-b/L/1I,1II/Y=1",
                    "appendix-b/L/1I,2I/Y=1", "appendix-b/L/1I,2I,3I/Y=1",
                    "appendix-b/L/1I,3I/Y=1"}


@pytest.mark.parametrize("fam, values, note", [
    ("W", ["a1=1/2", "a2=1/2", "a3=1/2", "a4=1/3"],
     "b1 is not above the ordering bound 2L"),
    ("AW", ["a1=9/10", "a2=9/10", "a3=9/10", "a4=9/10"],
     "b4 is not below the ordering bound q^(2L)"),
], ids=["W", "AW"])
def test_difference_family_outside_the_ordering_range(fam, values, note, tmp_path):
    # the range note is a skip and the ordering checks fail; where the
    # companion spectrum degenerates too, the note is a configuration error
    # (test_config_error_exit_code)
    report = tmp_path / "r.json"
    assert run_cli("spectrum", "--family", fam, "--params", *values,
                   "--report", str(report)) == 1
    status = {c["id"]: c["status"] for c in json.loads(report.read_text())["checks"]}
    assert status[f"range/{note}"] == "skip"
    assert status["spectrum/ordering-at-energy[n=0]"] == "fail"


def test_spectrum_seed_env(tmp_path, monkeypatch):
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    monkeypatch.setenv("CLOSURELAB_SEED", "5")
    assert run_cli("spectrum", "--family", "L", "--D", "1I", "--n-max", "3",
                   "--report", str(r1)) == 0
    assert run_cli("spectrum", "--family", "L", "--D", "1I", "--n-max", "3",
                   "--report", str(r2)) == 0
    assert r1.read_bytes() == r2.read_bytes()
    payload = json.loads(r1.read_text())
    assert any(c["id"] == "spectrum/random-spectra[count=50,seed=5]"
               for c in payload["checks"])


def test_spectrum_reports_repeat_in_process_and_match_a_fresh_process(
        tmp_path, monkeypatch):
    import closurelab.cli as cli
    monkeypatch.setattr(cli, "_RANDOM_SPECTRA_OK", {})
    monkeypatch.setenv("CLOSURELAB_SEED", "3")
    argv = ["spectrum", "--family", "W", "--D", "1I", "--n-max", "2"]
    paths = [tmp_path / f"{k}.json" for k in range(3)]
    # the first run certifies the random spectra, the second reads its verdict
    for path in paths[:2]:
        assert run_cli(*argv, "--report", str(path)) == 0
    subprocess.run([sys.executable, "-m", "closurelab.cli", *argv,
                    "--report", str(paths[2])], check=True, capture_output=True)
    assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()


def test_random_spectra_are_certified_once_per_seed(monkeypatch, capsys):
    import closurelab.cli as cli
    monkeypatch.setattr(cli, "_RANDOM_SPECTRA_OK", {})
    calls = []

    def counted(*args, _orig=cli.spectral_suite):
        calls.append(args)
        return _orig(*args)

    monkeypatch.setattr(cli, "spectral_suite", counted)
    counts = []
    for seed in ("3", "3", "4"):
        monkeypatch.setenv("CLOSURELAB_SEED", seed)
        assert run_cli("spectrum", "--family", "W", "--D", "1I") == 0
        counts.append(len(calls))
        calls.clear()
    # 5 companion suites (n <= 4) every run; a new seed draws its spectra anew
    assert counts == [5 + RANDOM_SPECTRA, 5, 5 + RANDOM_SPECTRA]
    assert "PASS  spectrum/random-spectra[count=50,seed=4]" in capsys.readouterr().out


def test_closed_stdout_ends_without_a_traceback():
    # the reader of stdout is gone before the report is written, as in
    # `closurelab spectrum ... --json | head -1` with a slow command
    read_end, write_end = os.pipe()
    os.close(read_end)
    # stdout block-buffered, as it is on a pipe by default: the report is
    # still buffered when the command returns
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "closurelab.cli", "spectrum", "--family", "W",
             "--D", "1I", "--n-max", "2", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "closurelab.cli", "spectrum", "--family", "J",
         "--D", "1I", "--n-max", "2", "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["tool"]["name"] == "closurelab"
    assert payload["summary"]["fail"] == 0


def test_values_above_the_int_string_limit_are_rendered():
    # at g = 10^2200 the recurrence rows hold integers of over 4300 digits,
    # which str(int) refuses from Python 3.11 on
    proc = subprocess.run(
        [sys.executable, "-m", "closurelab.cli", "recurrence", "--family", "L",
         "--D", "1I", "--params", "g=1" + "0" * 2200, "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["summary"]["fail"] == 0
    assert max(len(v) for c in payload["checks"]
               for v in c.get("detail", {}).values() if isinstance(v, str)) > 4300
    # and a parameter of more digits than int(str) reads is read
    assert run_cli("recurrence", "--family", "L", "--D", "1I", "--params",
                   "g=1" + "0" * 4400, "--n-max", "0") == 0


def test_heisenberg_command(tmp_path):
    report = tmp_path / "r.json"
    code = run_cli("heisenberg", "--family", "J", "--D", "1II", "--n-max", "3",
                   "--report", str(report))
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["summary"]["fail"] == 0
    assert any(c["id"].startswith("heisenberg/time-power") for c in payload["checks"])


def test_heisenberg_notes_the_ordering_bound(tmp_path):
    # J[1I] at a = -7/2, below the ordering bound 2L - 1 = 3: the spectrum is
    # not degenerate, so the ladders run and four sign checks fail; the
    # report says why, as spectrum does, with a skipped range note first
    report = tmp_path / "r.json"
    code = run_cli("heisenberg", "--family", "J", "--D", "1I",
                   "--params", "g=-1/2", "h=-3", "--report", str(report))
    assert code == 1
    payload = json.loads(report.read_text())
    assert payload["checks"][0] == {
        "id": "range/a=-7/2 is not above the ordering bound 2L-1=3",
        "status": "skip"}
    assert payload["summary"] == {"pass": 87, "fail": 4, "skip": 1}
    # inside the range there is no note
    assert run_cli("heisenberg", "--family", "J", "--D", "1I", "--n-max", "2",
                   "--report", str(report)) == 0
    assert not any(c["id"].startswith("range/")
                   for c in json.loads(report.read_text())["checks"])


def test_failing_reference_row_carries_its_witness(tmp_path, monkeypatch):
    # the stored L[1I] row replaced by the L[1II] row: verify-closure and
    # appendix-b fail it, with the expected and the solved R_-1 as detail
    from closurelab.closure import load_reference_tables
    tables = load_reference_tables()
    monkeypatch.setitem(tables, ("L", "1I", "1"), tables[("L", "1II", "1")])
    report = tmp_path / "r.json"
    assert run_cli("verify-closure", "--family", "L", "--D", "1I",
                   "--report", str(report)) == 1
    checks = {c["id"]: c for c in json.loads(report.read_text())["checks"]}
    ref = checks["closure/reference-table"]
    got = checks["closure/value/R-1"]["detail"]["value"]
    assert ref["status"] == "fail"
    assert sorted(ref["detail"]) == ["expected", "got"]
    assert ref["detail"]["got"] == got != ref["detail"]["expected"]
    assert run_cli("appendix-b", "--filter", "L/1I", "--report", str(report)) == 1
    checks = {c["id"]: c for c in json.loads(report.read_text())["checks"]}
    row = checks["appendix-b/L/1I/Y=1"]
    assert row == {"id": "appendix-b/L/1I/Y=1", "status": "fail",
                   "detail": ref["detail"]}
    assert checks["appendix-b/L/1I/Y=eta"] == {"id": "appendix-b/L/1I/Y=eta",
                                               "status": "pass"}


def test_classical_family_via_empty_D(tmp_path):
    report = tmp_path / "r.json"
    code = run_cli("verify-closure", "--family", "J", "--D", "", "--Y", "1",
                   "--report", str(report))
    assert code == 0
    payload = json.loads(report.read_text())
    solve = next(c for c in payload["checks"] if c["id"] == "closure/solve")
    assert solve["detail"]["K"] == 2


def test_symbolic_mode_builds_no_family_at_bound_parameters(tmp_path, monkeypatch):
    # L[2II] is degenerate at g = 3/2 (its virtual energy equals E_1); the
    # symbolic route samples its own g, so a degenerate default is not read
    # beyond the config echo
    monkeypatch.setitem(DEFAULT_PARAMS, "L", {"g": "3/2"})
    assert run_cli("verify-closure", "--D", "2II") == 2
    report = tmp_path / "r.json"
    assert run_cli("verify-closure", "--D", "2II", "--mode", "symbolic",
                   "--report", str(report)) == 0
    payload = json.loads(report.read_text())
    assert payload["config"]["params"] == {"g": "3/2"}
    assert payload["summary"]["fail"] == 0


def test_plugin_of_another_family_is_a_config_error(capsys):
    # the plugin holds L[2I]: checking it under --family J --D 1I would
    # report on a family the config echo does not name
    plugin = str(ROOT / "plugins" / "laguerre_2I.json")
    for command in ("verify-closure", "recurrence", "heisenberg"):
        assert run_cli(command, "--family", "J", "--D", "1I",
                       "--plugin", plugin) == 2
        err = capsys.readouterr().err
        assert err == (f"configuration error: plugin {plugin} holds L[2I], "
                       f"not --family J --D 1I\n")
    assert run_cli("recurrence", "--family", "L", "--D", "2I",
                   "--plugin", plugin, "--n-max", "2") == 0


@pytest.mark.parametrize("command", ["spectrum", "recurrence", "heisenberg"])
def test_negative_n_max_is_a_config_error(command, capsys):
    assert run_cli(command, "--n-max", "-2") == 2
    assert capsys.readouterr().err == (
        f"configuration error: closurelab {command}: argument --n-max: "
        "must be nonnegative, got -2\n")


@pytest.mark.parametrize("command", ["verify-closure", "spectrum", "recurrence",
                                     "heisenberg"])
def test_n_max_is_bounded_where_the_flags_are_read(command):
    # refused by the parser, so no command runs at a level above MAX_N
    parser = build_parser()
    assert parser.parse_args([command, "--n-max", str(MAX_N)]).n_max == MAX_N
    with pytest.raises(ConfigError) as info:
        parser.parse_args([command, "--n-max", str(MAX_N + 1)])
    assert str(info.value) == (f"closurelab {command}: argument --n-max: "
                               f"must be at most {MAX_N}, got {MAX_N + 1}")


@pytest.mark.parametrize("D", ["3II", "4II"])
def test_symbolic_mode_skips_degenerate_samples(D, tmp_path):
    # L[dII] is degenerate at g = d + 1/2 - n: the half-integer values of
    # g up to d + 1/2 are on the sampling walk and must be skipped
    report = tmp_path / "r.json"
    assert run_cli("verify-closure", "--family", "L", "--D", D,
                   "--mode", "symbolic", "--report", str(report)) == 0
    payload = json.loads(report.read_text())
    assert payload["summary"]["fail"] == 0
    assert "g" in next(c for c in payload["checks"]
                       if c["id"] == "closure/value/R-1")["detail"]["value"]


def test_symbolic_mode_failure_is_a_failing_check(tmp_path, capsys):
    # J[2I]: the coefficient of z^0 in R_-1 has a-degree 7 > K = 6, so the
    # interpolant disagrees at a fresh sample; no traceback, exit 1
    report = tmp_path / "r.json"
    assert run_cli("verify-closure", "--family", "J", "--D", "2I",
                   "--mode", "symbolic", "--report", str(report)) == 1
    assert capsys.readouterr().err == ""
    payload = json.loads(report.read_text())
    assert payload["summary"] == {"pass": 0, "fail": 1, "skip": 0}
    check, = payload["checks"]
    assert check["id"] == "closure/solve" and check["status"] == "fail"
    assert check["detail"]["error"] == (
        "R_-1 z^0 disagrees with its interpolant (a <= 6, b <= 5) "
        "at the fresh sample a=23/2, b=2")


def test_commands_repeat_in_one_process(capsys):
    # main reuses one parser: the second run of each command prints what
    # the first printed
    argvs = [["spectrum", "--family", "W", "--n-max", "2"],
             ["recurrence", "--family", "J", "--n-max", "2"]]
    outputs = []
    for argv in argvs + argvs:
        assert run_cli(*argv) == 0
        outputs.append(capsys.readouterr())
    assert outputs[:2] == outputs[2:]
    assert outputs[0] != outputs[1]
    assert run_cli("spectrum", "--bogus") == 2
    assert run_cli("--version") == 0 and run_cli("spectrum", "--help") == 0
    capsys.readouterr()
    assert run_cli(*argvs[0]) == 0
    assert capsys.readouterr().out == outputs[0].out


@pytest.mark.parametrize("argv", [
    ["spectrum", "--family", "W", "--n-max", "12"],
    ["verify-closure", "--family", "AW", "--n-max", "6"],
])
def test_alpha_list_is_built_once_per_command(argv, monkeypatch):
    import closurelab.cli as cli
    import closurelab.closure as closure
    import closurelab.spectral as spectral
    calls = []
    for module in (cli, closure, spectral):
        def counted(*args, _orig=module.alpha_conjecture, _name=module.__name__):
            calls.append(_name)
            return _orig(*args)
        monkeypatch.setattr(module, "alpha_conjecture", counted)
    assert run_cli(*argv) == 0
    assert calls == ["closurelab.cli"]


def test_symbolic_mode_report(tmp_path):
    report = tmp_path / "r.json"
    code = run_cli("verify-closure", "--family", "L", "--D", "1I",
                   "--mode", "symbolic", "--report", str(report))
    assert code == 0
    payload = json.loads(report.read_text())
    rm1 = next(c for c in payload["checks"] if c["id"] == "closure/value/R-1")
    assert "g" in rm1["detail"]["value"]
    ref = next(c for c in payload["checks"] if c["id"] == "closure/reference-table")
    assert ref["status"] == "pass"


# A term of this exponent in a plugin record is rejected on its degree
# before any dense list is built.  A list of that length cannot even be
# allocated, so a record densified first fails at once instead of filling
# memory.
HUGE = 10 ** 18


def _with_huge_term(rec):
    return {**rec, "terms": [*rec["terms"],
                             {"exponents": [HUGE], "coefficient": "1"}]}


@pytest.mark.parametrize("where, message", [
    ("xi", f"deg xi = {HUGE} but ell = 2"),
    ("dP_coeff", f"deg dP_coeff = {HUGE}, expected at most ell + 1 = 3"),
    ("P_coeff", f"deg P_coeff = {HUGE}, expected at most ell + 1 = 3"),
    ("explicit P_1", f"L[2I]: deg P(1) = {HUGE}, expected 3"),
], ids=["xi", "dP_coeff", "P_coeff", "explicit-P1"])
def test_plugin_huge_exponent_is_rejected_before_densifying(
        where, message, explicit_plugin, tmp_path, capsys):
    if where == "explicit P_1":
        data = json.loads(explicit_plugin(10).read_text())
        data["P"]["polys"][1] = _with_huge_term(data["P"]["polys"][1])
    else:
        data = json.loads((ROOT / "plugins" / "laguerre_2I.json").read_text())
        if where == "xi":
            data["xi"] = _with_huge_term(data["xi"])
        else:
            data["P"][where] = _with_huge_term(data["P"][where])
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    with pytest.raises(DegreeMismatch, match=re.escape(message)):
        family_from_plugin_dict(data)
    assert run_cli("verify-closure", "--family", "L", "--D", "2I",
                   "--plugin", str(path)) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: plugin {path}: {message}\n"
    assert _plugin_load_error(path, tmp_path) == f"plugin {path}: {message}"


@pytest.mark.parametrize("variables, exponents", [(["g"], [1]), (["eta", "g"], [1, 1])],
                         ids=["g", "eta-g"])
def test_plugin_record_in_another_variable_is_a_schema_error(
        variables, exponents, tmp_path, capsys):
    data = json.loads((ROOT / "plugins" / "laguerre_2I.json").read_text())
    data["P"]["P_coeff"] = {"variables": variables, "terms": [
        {"exponents": exponents, "coefficient": "1"}]}
    path = tmp_path / "other-variable.json"
    path.write_text(json.dumps(data))
    message = ("bad classical-combination rule: a polynomial in eta is needed, "
               "got one in " + ", ".join(variables))
    with pytest.raises(SchemaError, match=re.escape(message)):
        family_from_plugin_dict(data)
    assert run_cli("verify-closure", "--family", "L", "--D", "2I",
                   "--plugin", str(path)) == 2
    assert capsys.readouterr().err == f"configuration error: plugin {path}: {message}\n"
    assert _plugin_load_error(path, tmp_path) == f"plugin {path}: {message}"
