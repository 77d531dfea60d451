"""Command-line front end: deterministic exact verification reports.

Subcommands: verify-closure, recurrence, spectrum, heisenberg, appendix-b,
plugin-validate.  Reports are JSON with every exact value rendered as a
string; identical configurations produce byte-identical reports (no
timestamps, fixed check ordering).  Exit codes: 0 all checks pass, 1 any
check fails, 2 configuration error.  CLOSURELAB_SEED fixes the random
rational sampler used by the spectrum suite.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from . import __version__
from .exactalg import EtaPoly, ParamPoly, SampleMismatch, count, parse_poly, rat_str
from .families import (MAX_ELL, MAX_N, PARAMETERS, DeformedFamily,
                       EigenValidationFailed, MultiIndex, ParameterPole,
                       ParamSet, SchemaError, DegreeMismatch, builtin_deformed,
                       energy, load_family_plugin, require_builtin)
from .closure import (SOLVE_FAILURES, TableMissing, closure_for_family,
                      compare_reference, conjectured_R, load_reference_tables,
                      symbolic_closure, verify_closure_identity)
from .recurrence import (NonzeroRemainder, build_X, check_h_symmetry,
                         closed_form_compare, compute_table,
                         leading_coeff_identity, table_formulas_J1I,
                         table_formulas_L1I, x_degree)
from .spectral import (DegenerateSpectrum, alpha_conjecture,
                       alpha_values_at_energy, check_alpha_spectrum,
                       pairing_identities, root_expansion, spectral_suite)
from .heisenberg import (LadderContext, check_r0_relation, commutation_check,
                         heisenberg_series_check, ladder_suite)

DEFAULT_PARAMS = {
    "L": {"g": "7/3"},
    "J": {"g": "2", "h": "3"},
    "W": {"a1": "2", "a2": "5/2", "a3": "3", "a4": "7/2"},
    "AW": {"a1": "1/4", "a2": "1/5", "a3": "1/10", "a4": "1/10", "q": "4/9"},
}

RANDOM_SPECTRA = 50  # the seeded random spectra that `spectrum` checks


class ConfigError(Exception):
    pass


class Report:
    """Deterministic check collection with exact values as strings."""

    __slots__ = ("command", "config", "checks")

    def __init__(self, command: str, config: dict):
        self.command = command
        self.config = config
        self.checks: list = []

    def add(self, check_id: str, ok: bool | None, **detail):
        status = "skip" if ok is None else ("pass" if ok else "fail")
        entry = {"id": check_id, "status": status}
        if detail:
            entry["detail"] = {k: v for k, v in sorted(detail.items())}
        self.checks.append(entry)

    def add_all(self, prefix: str, rows: list):
        for row in rows:
            row = dict(row)
            ok = row.pop("ok")
            label = row.pop("check")
            suffix = ",".join(f"{k}={v}" for k, v in sorted(row.items()))
            self.add(f"{prefix}/{label}" + (f"[{suffix}]" if suffix else ""), ok)

    def finish(self) -> dict:
        counts = {"pass": 0, "fail": 0, "skip": 0}
        for c in self.checks:
            counts[c["status"]] += 1
        return {
            "tool": {"name": "closurelab", "version": __version__},
            "command": self.command,
            "config": self.config,
            "checks": self.checks,
            "summary": counts,
        }


def _param_items(items: list[str] | None, fams: tuple[str, ...]) -> dict[str, str]:
    """--params entries as {name: value}; a name that none of the families
    ``fams`` has is a configuration error naming their parameters."""
    known = sorted({k for fam in fams for k in PARAMETERS[fam]})
    given = {}
    for item in items or []:
        if "=" not in item:
            raise ConfigError(f"--params entries look like name=p/q, got {item!r}")
        k, v = (part.strip() for part in item.split("=", 1))
        if k not in known:
            raise ConfigError(f"--params {k!r}: the parameters of "
                              f"{' and '.join(fams)} are {', '.join(known)}")
        given[k] = v
    return given


def _parse_params(fam: str, items: list[str] | None) -> ParamSet:
    return _param_set(fam, _param_items(items, (fam,)))


def _read(what: str, reader, *args):
    """reader(*args), with its ValueError a configuration error naming ``what``."""
    try:
        return reader(*args)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from None


def _param_set(fam: str, given: dict[str, str]) -> ParamSet:
    """The family's defaults overridden by the given values."""
    return _read(f"--params {' '.join(f'{k}={v}' for k, v in given.items())}",
                 ParamSet, fam, {**DEFAULT_PARAMS[fam], **given})


def _validate_ranges(params: ParamSet, L: int) -> list[str]:
    """Family validity ranges; violations are warnings in the report."""
    fam = params.fam
    notes = []
    if fam == "J" and not params.a > 2 * L - 1:
        notes.append(f"a={rat_str(params.a)} is not above the ordering bound 2L-1={2*L-1}")
    if fam == "W" and not sum(params.a_list()) > 2 * L:
        notes.append("b1 is not above the ordering bound 2L")
    if fam == "AW" and not params.b4 < params.q ** (2 * L):
        notes.append("b4 is not below the ordering bound q^(2L)")
    return notes


def _parse_Y(text: str) -> ParamPoly:
    """--Y as a nonzero exact polynomial in eta; empty means Y = 1.  Other
    names are refused before parsing: under the parser's degree cap, a
    polynomial in many variables can still have millions of terms."""
    not_eta = ConfigError(f"--Y {text!r}: Y must be a nonzero polynomial in eta")
    if set(re.findall(r"[A-Za-z_][A-Za-z_0-9]*", text)) - {"eta"}:
        raise not_eta
    Y = _read(f"--Y {text!r}", parse_poly, text) if text else ParamPoly.const(1)
    if Y.is_zero:
        raise not_eta
    return Y


def _parse_D_Y(args) -> tuple[MultiIndex, EtaPoly]:
    """--D and --Y, with ell + deg Y = deg X - 1 capped by MAX_ELL like ell;
    Y becomes an EtaPoly once that cap has bounded its degree."""
    D = _read(f"--D {args.D!r}", MultiIndex.parse, args.D)
    Y = _parse_Y(args.Y)
    top = x_degree(D.ell, Y.degree("eta")) - 1
    if top > MAX_ELL:
        raise ConfigError(f"--Y {args.Y!r}: ell + deg Y = {top} is above the "
                          f"supported bound {MAX_ELL}")
    return D, EtaPoly.from_param(Y)


def _load_plugin(path: str) -> DeformedFamily:
    """A plugin file that cannot be read, parsed or validated is a
    configuration error."""
    try:
        return load_family_plugin(path)
    except (OSError, ValueError, SchemaError, DegreeMismatch,
            EigenValidationFailed) as exc:
        raise ConfigError(f"plugin {path}: {exc}") from None


def _builtin(fam: str, D: MultiIndex, params: ParamSet) -> DeformedFamily:
    """A built-in family that cannot be built at these parameters is a
    configuration error."""
    try:
        return builtin_deformed(fam, D, params)
    except (SchemaError, DegreeMismatch, EigenValidationFailed, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _family_instance(args, D: MultiIndex, params: ParamSet) -> DeformedFamily:
    """The built-in family of --family and the multi-index D of --D, or
    the --plugin family, which must be the same family and multi-index."""
    if not args.plugin:
        return _builtin(args.family, D, params)
    df = _load_plugin(args.plugin)
    if (df.fam, df.D.label()) != (args.family, D.label()):
        raise ConfigError(f"plugin {args.plugin} holds {df.label}, not "
                          f"--family {args.family} --D {D.label()}")
    return df


def _outside_ordering_range(params: ParamSet, L: int,
                            exc: DegenerateSpectrum) -> Exception:
    """A degenerate companion spectrum is a configuration error when the
    parameters violate the family's ordering bound (named in the message);
    inside the range it stays an error of the program."""
    notes = _validate_ranges(params, L)
    return ConfigError("; ".join(notes)) if notes else exc


def _emit(report: Report, args) -> int:
    payload = report.finish()
    text = json.dumps(payload, indent=1, sort_keys=True)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    if args.json:
        print(text)
    else:
        for check in payload["checks"]:
            print(f"{check['status'].upper():5s} {check['id']}")
        s = payload["summary"]
        print(f"-- {s['pass']} pass, {s['fail']} fail, {s['skip']} skip")
    return 1 if payload["summary"]["fail"] else 0


def cmd_verify_closure(args) -> int:
    fam = args.family
    symbolic = args.mode == "symbolic"
    if symbolic and args.params:
        raise ConfigError("--params: symbolic mode is exact in the parameters "
                          "and takes no parameter values")
    params = _parse_params(fam, args.params)
    D, Y = _parse_D_Y(args)
    report = Report("verify-closure", _config_echo(args, params, Y))
    if fam in ("W", "AW"):
        if symbolic:
            raise ConfigError("symbolic mode reconstructs the L and J families only")
        if args.plugin:
            raise ConfigError("--plugin: W and AW closure is checked spectrally "
                              "and reads no plugin")
        L = x_degree(D.ell, Y.degree)
        _alpha_checks(report, "spectral", L, params, args.n_max)
        report.add("operator-level", None, notice="not implemented: "
                   "operator-level closure for difference operators")
        return _emit(report, args)
    if symbolic:
        # symbolic_closure samples the parameters itself: no family is
        # built at the bound values
        if args.plugin:
            raise ConfigError("symbolic mode reconstructs built-in families only")
        try:
            require_builtin(D)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        try:
            cd = symbolic_closure(fam, D, Y)
        except (SampleMismatch, *SOLVE_FAILURES) as exc:
            report.add("closure/solve", False, error=str(exc), mode="symbolic")
            return _emit(report, args)
        report.add("closure/solve", True, K=cd.K, unique=cd.unique,
                   kernel_dim=cd.kernel_dim, mode="symbolic")
        report.add("closure/degree-bounds", cd.bounds_ok())
        return _closure_values(report, args, fam, D.label(), cd)
    df = _family_instance(args, D, params)
    try:
        cd, X = closure_for_family(df, Y)
    except SOLVE_FAILURES as exc:
        report.add("closure/solve", False, error=str(exc))
        return _emit(report, args)
    report.add("closure/solve", True, K=cd.K, unique=cd.unique,
               kernel_dim=cd.kernel_dim)
    report.add("closure/degree-bounds", cd.bounds_ok())
    verdict = verify_closure_identity(df, X, cd)
    witness = {} if verdict else {"n": verdict.n, "k": verdict.k,
                                  "residual": rat_str(verdict.residual)}
    report.add("closure/identity", bool(verdict), **witness)
    return _closure_values(report, args, df.fam, df.D.label(), cd, df.params)


def _closure_values(report: Report, args, fam: str, D_label: str, cd,
                    params: ParamSet | None = None) -> int:
    """The checks shared by sampled and symbolic closure reports: the
    conjectured R_i, the stored reference row, and the solved values, at
    the bound ``params`` or, when None, symbolic in the parameters."""
    conj = conjectured_R(alpha_conjecture(fam, cd.K // 2, params))
    report.add("closure/conjectured-R", cd.R == conj)
    bindings = None if params is None else params.reference_values()
    try:
        cmp = compare_reference(fam, D_label, args.Y or "1", cd, bindings)
        _add_reference(report, "closure/reference-table", cmp)
    except TableMissing:
        report.add("closure/reference-table", None, notice="no stored row")
    for i in range(cd.K):
        report.add(f"closure/value/R{i}", True, value=str(cd.R[i]))
    report.add("closure/value/R-1", True, value=str(cd.R_minus1))
    return _emit(report, args)


def _add_reference(report: Report, check_id: str, cmp: dict) -> None:
    """A ``compare_reference`` verdict; a failing one carries the expected
    and the solved R_-1 as its witness."""
    witness = {} if cmp["ok"] else {"expected": cmp["expected"], "got": cmp["got"]}
    report.add(check_id, cmp["ok"], **witness)


def cmd_recurrence(args) -> int:
    params = _parse_params(args.family, args.params)
    D, Y = _parse_D_Y(args)
    report = Report("recurrence", _config_echo(args, params, Y))
    if args.family in ("W", "AW"):
        raise ConfigError("recurrence tables need polynomial family data (L or J)")
    df = _family_instance(args, D, params)
    X = build_X(df.xi, Y)
    try:
        table = compute_table(df, X, range(args.n_max + 1))
    except NonzeroRemainder as exc:
        report.add("recurrence/span", False, error=str(exc))
        return _emit(report, args)
    report.add("recurrence/span", True, L=table.L)
    report.add_all("recurrence", leading_coeff_identity(df, table))
    report.add_all("recurrence", check_h_symmetry(df, table))
    if df.source == "builtin" and Y == 1:
        formulas = None
        if df.fam == "L" and df.D.label() == "1I":
            formulas = table_formulas_L1I(df.params)
        elif df.fam == "J" and df.D.label() == "1I":
            formulas = table_formulas_J1I(df.params)
        if formulas:
            report.add_all("recurrence", closed_form_compare(table, formulas))
    for n in sorted(table.rows):
        row = {f"k={k}": rat_str(v) for k, v in sorted(table.rows[n].items())}
        report.add(f"recurrence/row[n={n}]", True, **row)
    return _emit(report, args)


def _alpha_checks(report: Report, prefix: str, L: int, params: ParamSet,
                  n_max: int) -> list:
    """The range notes, then the eigenvalue-list and pairing checks on one
    conjectured alpha list, under ``prefix``; returns the list."""
    for note in _validate_ranges(params, L):
        report.add(f"range/{note}", None)
    alphas = alpha_conjecture(params.fam, L, params)
    report.add_all(prefix, check_alpha_spectrum(params, range(n_max + 1), alphas))
    report.add_all(prefix, pairing_identities(params, alphas))
    return alphas


def cmd_spectrum(args) -> int:
    params = _parse_params(args.family, args.params)
    D, Y = _parse_D_Y(args)
    L = x_degree(D.ell, Y.degree)
    report = Report("spectrum", _config_echo(args, params, Y))
    alpha_list = _alpha_checks(report, "spectrum", L, params, args.n_max)
    # companion-matrix suite at the first few energy points, with the
    # conjectured R_i expanded from the same list
    conj = conjectured_R(alpha_list)
    for n in range(min(args.n_max, 4) + 1):
        En = energy(params, n)
        alphas = alpha_values_at_energy(params, n, alpha_list, En)
        R_vals = [Ri.evaluate({"z": En}) for Ri in conj]
        try:
            suite = spectral_suite(R_vals, alphas)
        except DegenerateSpectrum as exc:
            raise _outside_ordering_range(params, L, exc) from None
        report.add(f"spectrum/companion[n={n}]",
                   suite["recursion_ok"] and suite["eigen_ok"] and suite["initial_ok"])
    seed = _read("CLOSURELAB_SEED", count, os.environ.get("CLOSURELAB_SEED", "0"))
    report.add(f"spectrum/random-spectra[count={RANDOM_SPECTRA},seed={seed}]",
               _random_spectra_ok(seed))
    return _emit(report, args)


# _random_spectra_ok's verdicts, keyed by seed
_RANDOM_SPECTRA_OK: dict[int, bool] = {}


def _random_spectra_ok(seed: int) -> bool:
    """Whether the companion suite passes on each of the RANDOM_SPECTRA
    random spectra of distinct nonzero rationals drawn from
    random.Random(seed).  The verdict is a function of the seed, so it is
    certified in full once per process and recorded; only this function
    loads random."""
    if seed not in _RANDOM_SPECTRA_OK:
        import random
        rng = random.Random(seed)
        ok_all = True
        for _ in range(RANDOM_SPECTRA):
            alphas = _random_distinct_rationals(rng, rng.choice([2, 3, 4, 5, 6, 7, 8]))
            S, d = root_expansion(alphas)
            R = [Fraction(s, d ** (len(S) - i)) for i, s in enumerate(S)]
            suite = spectral_suite(R, alphas)
            ok_all &= suite["recursion_ok"] and suite["eigen_ok"] and suite["initial_ok"]
        _RANDOM_SPECTRA_OK[seed] = ok_all
    return _RANDOM_SPECTRA_OK[seed]


def _random_distinct_rationals(rng, K):
    vals = set()
    while len(vals) < K:
        num = rng.randint(-60, 60)
        den = rng.randint(1, 6)
        v = Fraction(num, den)
        if v != 0:
            vals.add(v)
    return sorted(vals, reverse=True)


def cmd_heisenberg(args) -> int:
    params = _parse_params(args.family, args.params)
    D, Y = _parse_D_Y(args)
    report = Report("heisenberg", _config_echo(args, params, Y))
    if args.family in ("W", "AW"):
        raise ConfigError("the ladder suite needs polynomial family data (L or J)")
    df = _family_instance(args, D, params)
    for note in _validate_ranges(df.params, x_degree(D.ell, Y.degree)):
        report.add(f"range/{note}", None)
    try:
        cd, X = closure_for_family(df, Y)
    except SOLVE_FAILURES as exc:
        report.add("heisenberg/closure", False, error=str(exc))
        return _emit(report, args)
    n_top = min(args.n_max, 6)
    ctx = LadderContext(df, cd, X)
    try:
        report.add_all("heisenberg", ladder_suite(ctx, range(n_top + 1)))
        report.add_all("heisenberg", check_r0_relation(ctx, range(n_top + 1)))
        report.add_all("heisenberg", commutation_check(ctx, range(n_top + 1)))
        for n in range(min(n_top, 3) + 1):
            report.add_all("heisenberg", heisenberg_series_check(ctx, n, cd.K + 2))
    except DegenerateSpectrum as exc:
        raise _outside_ordering_range(df.params, cd.K // 2, exc) from None
    return _emit(report, args)


def cmd_appendix_b(args) -> int:
    report = Report("appendix-b", {"filter": args.filter or "",
                                   "plugin": args.plugin or ""})
    tables = load_reference_tables()
    plugin_df = _load_plugin(args.plugin) if args.plugin else None
    # --params apply to the rows of both L and J, each family taking the
    # names it has
    given = _param_items(args.params, ("L", "J"))
    params: dict[str, ParamSet] = {}
    keys = sorted(k for k in tables if k != "_meta")
    for fam, D, Ylabel in keys:
        if args.filter and not _selected(f"{fam}/{D}", args.filter):
            continue
        label = f"appendix-b/{fam}/{D}/Y={Ylabel}"
        if fam in ("W", "AW"):
            report.add(label, None, notice="not implemented: operator-level "
                       "closure for difference operators")
            continue
        D_idx = MultiIndex.parse(D)
        if (plugin_df is not None and plugin_df.fam == fam
                and plugin_df.D.label() == D):
            df = plugin_df
        elif D_idx.M <= 1:
            if fam not in params:
                params[fam] = _param_set(fam, {k: v for k, v in given.items()
                                               if k in PARAMETERS[fam]})
            try:
                df = _builtin(fam, D_idx, params[fam])
            except ConfigError as exc:
                # --params apply to the rows of both L and J; a row that
                # cannot be built at them is skipped, the others are checked
                report.add(label, None, notice=str(exc))
                continue
        else:
            report.add(label, None, notice="plugin required")
            continue
        Y = EtaPoly.from_param(parse_poly(Ylabel))
        try:
            cd, X = closure_for_family(df, Y)
        except SOLVE_FAILURES as exc:
            report.add(label, False, error=str(exc))
            continue
        _add_reference(report, label,
                       compare_reference(fam, D, Ylabel, cd,
                                         df.params.reference_values()))
    for fam, by_K in sorted(tables["_meta"]["extension_targets"].items()):
        for K, labels in sorted(by_K.items()):
            report.add(f"appendix-b/{fam}/K={K}/extension-targets", None,
                       targets=", ".join(labels), notice="no printed values")
    return _emit(report, args)


def _selected(key: str, prefix: str) -> bool:
    """--filter selects whole labels: the row itself or its continuations
    after '/' or ',' ('L/2I' selects 'L/2I' and 'L/2I,3I', not 'L/2II')."""
    return key == prefix or key.startswith((prefix + "/", prefix + ","))


def cmd_plugin_validate(args) -> int:
    report = Report("plugin-validate", {"plugin": args.plugin})
    try:
        df = _load_plugin(args.plugin)
    except ConfigError as exc:
        report.add("plugin/load", False, error=str(exc))
        return _emit(report, args)
    report.add("plugin/load", True, family=df.fam, D=df.D.label(),
               ell=df.ell, source=df.source)
    report.add("plugin/degrees", True)
    report.add("plugin/eigen-equations", True, validated_n=max(df.checked_levels))
    report.add("plugin/norm-ratio-symmetry", True)
    return _emit(report, args)


def _config_echo(args, params: ParamSet, Y: EtaPoly) -> dict:
    return {
        "family": args.family,
        "D": args.D,
        "Y": str(Y),
        "params": {k: rat_str(v) for k, v in sorted(params.values.items())},
        "n_max": args.n_max,
        "mode": getattr(args, "mode", "sampled"),
        "plugin": getattr(args, "plugin", None) or "",
    }


def _n_max(text: str) -> int:
    """--n-max: a nonnegative integer, at most MAX_N."""
    try:
        n = count(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if n > MAX_N:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_N}, got {n}")
    return n


def _add_common(p, with_family=True, with_plugin=True):
    if with_family:
        p.add_argument("--family", choices=["L", "J", "W", "AW"], default="L")
        p.add_argument("--D", default="1I",
                       help="multi-index label, e.g. '1I' or '1I,2I' ('' = classical)")
        p.add_argument("--Y", default="",
                       help="polynomial in eta, e.g. '1', 'eta', '1/2*eta^2-3*eta'")
        p.add_argument("--params", nargs="*", metavar="k=v",
                       help="exact parameter overrides, e.g. g=7/3")
        p.add_argument("--n-max", dest="n_max", type=_n_max, default=8)
        if with_plugin:
            p.add_argument("--plugin", default=None,
                           help="path to a family plugin JSON")
    p.add_argument("--report", default=None, help="write the JSON report here")
    p.add_argument("--json", action="store_true", help="print the JSON report")


class _Parser(argparse.ArgumentParser):
    """An unknown flag or a bad flag value is a configuration error (exit 2,
    one line), like every other bad input."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="closurelab",
        description="Exact verification of recurrence, closure-relation and "
                    "ladder-operator identities for deformed orthogonal "
                    "polynomial systems.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("verify-closure", help="solve and verify the closure relation")
    _add_common(p)
    p.add_argument("--mode", choices=["symbolic", "sampled"], default="sampled",
                   help="symbolic: exact in the parameters, from exact samples "
                        "(built-in L and J families)")
    p.set_defaults(fn=cmd_verify_closure)
    p = sub.add_parser("recurrence", help="expand X*P(n) and check the tables")
    _add_common(p)
    p.set_defaults(fn=cmd_recurrence)
    p = sub.add_parser("spectrum", help="eigenvalue lists, pairing and matrix suite")
    _add_common(p, with_plugin=False)  # spectral data come from the formulas alone
    p.set_defaults(fn=cmd_spectrum)
    p = sub.add_parser("heisenberg", help="ladder-operator and time-power checks")
    _add_common(p)
    p.set_defaults(fn=cmd_heisenberg)
    p = sub.add_parser("appendix-b", help="diff derivable reference rows")
    p.add_argument("--filter", default="",
                   help="row filter like 'L' or 'L/2I' (whole labels only)")
    p.add_argument("--params", nargs="*", metavar="k=v")
    p.add_argument("--plugin", default=None, help="path to a family plugin JSON")
    _add_common(p, with_family=False)
    p.set_defaults(fn=cmd_appendix_b)
    p = sub.add_parser("plugin-validate", help="validate a family plugin file")
    p.add_argument("--plugin", required=True, help="path to a family plugin JSON")
    _add_common(p, with_family=False)
    p.set_defaults(fn=cmd_plugin_validate)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
        return code
    except SystemExit as exc:  # --help and --version print and stop
        return 2 if exc.code not in (0, None) else 0
    except (ConfigError, SchemaError, ParameterPole) as exc:
        # SchemaError here: plugin data short of the levels a command needs;
        # ParameterPole: a closed form of `recurrence` undefined at --params
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader of stdout has gone (`closurelab ... | head -1`): point
        # stdout at devnull, so that the flush at shutdown does not raise
        # again, and exit 1 as Python does on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
