"""Span tracer for closurelab, installed from outside the package.

``Tracer.install`` wraps the public functions listed in ``TARGETS`` at every
namespace that binds them: the defining module, and every closurelab module
or package namespace that bound the same function object by
``from ... import``.  Methods are wrapped on their class.  Each call then
records a span ``(name, start, end, parent, job, note)`` in memory; ``parent``
is the index of the enclosing span (-1 at top level) and ``note`` an exact
size taken from the call's arguments or result.  ``layer_metrics`` reduces
the spans to the per-layer metrics named in bench/LAYERS.md.

``ParamPoly.__init__`` is deliberately not wrapped: it runs hundreds of
thousands of times per pass, so wrapping it would time a different program.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict


def _hit(args, result):
    return result is not None


def _shape(args, result):
    matrix = args[0]
    return (len(matrix), len(matrix[0]) if matrix else 0)


def _bounds(args, result):
    return tuple(sorted(args[1].items()))


def _top_terms(args, result):
    return result[-1].term_count()


def _rows(args, result):
    return len(result.rows)


# (module, attribute, note): the attribute is a function or Class.method.
TARGETS = [
    ("exactalg", "RationalFunc.__init__", None),
    ("exactalg", "poly_div_exact", _hit),
    ("exactalg", "poly_gcd_univar", None),
    ("exactalg", "solve_linear_exact", _shape),
    ("exactalg", "interpolate_param", None),
    ("exactalg", "interpolate_grid", _bounds),
    ("opalg", "DiffOp.compose", None),
    ("opalg", "DiffOp.apply_poly", None),
    ("opalg", "right_mul_poly_of_H", None),
    ("families", "builtin_deformed", None),
    ("families", "load_family_plugin", None),
    ("families", "eigen_validate", None),
    ("recurrence", "compute_table", _rows),
    ("closure", "ad_powers", _top_terms),
    ("closure", "solve_closure", None),
    ("closure", "verify_closure_identity", None),
    ("closure", "reconstruct_closure", None),
    ("closure", "closure_for_family", None),
    ("closure", "load_reference_tables", None),
    ("spectral", "check_alpha_spectrum", None),
    ("spectral", "pairing_identities", None),
    ("spectral", "alpha_values_at_energy", None),
    ("spectral", "spectral_suite", None),
    ("spectral", "eigen_closed_form", None),
    ("heisenberg", "LadderContext.__init__", None),
    ("heisenberg", "ladder_suite", None),
    ("heisenberg", "check_r0_relation", None),
    ("heisenberg", "commutation_check", None),
    ("heisenberg", "heisenberg_series_check", None),
]

JOB = "job"


class Tracer:
    """In-memory span recorder; ``install``/``uninstall`` swap the wrappers
    in and out of the closurelab namespaces."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._job: str | None = None
        self._restore: list = []

    def _wrap(self, fn, name, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            done = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer._job,
                              note(args, result) if done and note else None)
            return result

        return wrapper

    def install(self) -> None:
        import closurelab.cli  # noqa: F401  (loads every module that binds a target)

        namespaces = [m for key, m in sys.modules.items()
                      if key == "closurelab" or key.startswith("closurelab.")]
        for module, attr, note in TARGETS:
            mod = importlib.import_module(f"closurelab.{module}")
            name = f"{module}.{attr}"
            owner, _, fn_name = attr.rpartition(".")
            if owner:
                cls = getattr(mod, owner)
                self._swap(cls, fn_name, self._wrap(cls.__dict__[fn_name], name, note))
                continue
            orig = getattr(mod, fn_name)
            wrapper = self._wrap(orig, name, note)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        self._swap(ns, key, wrapper)

    def _swap(self, obj, key, new) -> None:
        self._restore.append((obj, key, getattr(obj, key)))
        setattr(obj, key, new)

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._restore):
            setattr(obj, key, orig)
        self._restore.clear()

    def run_job(self, job: str, fn, *args):
        """Call ``fn(*args)`` as the top-level span of job ``job``."""
        self._job = job
        try:
            return self._wrap(fn, JOB, lambda a, r: job)(*args)
        finally:
            self._job = None

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- reduction to metrics -----------------------------------------------------


def _dur(span) -> float:
    return span[2] - span[1]


def _top(spans, names) -> list[int]:
    """For each span, the index of its outermost enclosing span (itself
    included) named in ``names``; -1 where there is none."""
    top: list[int] = []
    for i, span in enumerate(spans):
        t = top[span[3]] if span[3] >= 0 else -1
        if t < 0 and span[0] in names:
            t = i
        top.append(t)
    return top


def _outer(spans, *names) -> list[int]:
    """Spans named in ``names`` that no span of those names encloses."""
    return [i for i, t in enumerate(_top(spans, set(names))) if t == i]


def _busy(spans, *names) -> float:
    """Wall time inside the named functions, nested calls counted once."""
    return sum((_dur(spans[i]) for i in _outer(spans, *names)), 0.0)


def self_times(spans) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds and self seconds (duration
    minus the time its child spans cover)."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += _dur(span)
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, span in enumerate(spans):
        row = out[span[0]]
        row["calls"] += 1
        row["total_s"] += _dur(span)
        row["self_s"] += _dur(span) - child[i]
    return dict(out)


def layer_metrics(spans, report_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see bench/LAYERS.md)."""
    calls: dict[str, int] = defaultdict(int)
    for span in spans:
        calls[span[0]] += 1
    table = self_times(spans)
    m: dict[str, float] = {}

    m["opalg.compose_calls"] = calls["opalg.DiffOp.compose"]
    m["opalg.compose_s"] = _busy(spans, "opalg.DiffOp.compose")
    m["opalg.apply_calls"] = calls["opalg.DiffOp.apply_poly"]
    m["opalg.apply_s"] = _busy(spans, "opalg.DiffOp.apply_poly")
    m["opalg.right_mul_s"] = _busy(spans, "opalg.right_mul_poly_of_H")

    ad = [s for s in spans if s[0] == "closure.ad_powers"]
    top_by_job: dict[str, int] = {}
    for s in ad:
        top_by_job[s[4]] = max(top_by_job.get(s[4], 0), s[5])
    m["closure.ad_powers_calls"] = len(ad)
    m["closure.ad_powers_per_job"] = len(ad) / len(top_by_job) if ad else 0.0
    m["closure.ad_powers_s"] = _busy(spans, "closure.ad_powers")
    m["closure.ad_top_terms"] = sum(top_by_job.values())

    solve = "closure.solve_closure"
    linear = "exactalg.solve_linear_exact"
    m["closure.solve_s"] = _busy(spans, solve)
    in_solve = _top(spans, {solve})
    m["closure.assemble_s"] = m["closure.solve_s"] - sum(
        _dur(spans[i]) for i in _outer(spans, linear) if in_solve[i] >= 0)
    first_system: dict[int, tuple] = {}
    for s in spans:
        if s[0] == linear and s[3] >= 0 and spans[s[3]][0] == solve:
            first_system.setdefault(s[3], s[5])
    m["closure.system_rows"] = sum(r for r, _ in first_system.values())
    m["closure.system_cols"] = sum(c for _, c in first_system.values())
    m["closure.verify_s"] = _busy(spans, "closure.verify_closure_identity")

    rec = "closure.reconstruct_closure"
    in_rec = _top(spans, {rec})
    m["closure.reconstruct_s"] = _busy(spans, rec)
    m["closure.sample_solves"] = sum(
        1 for i, s in enumerate(spans)
        if s[0] == "closure.closure_for_family" and in_rec[i] >= 0)
    bounds_seen: dict[int, set] = defaultdict(set)
    for i in _outer(spans, "exactalg.interpolate_grid", "exactalg.interpolate_param"):
        if spans[i][0] == "exactalg.interpolate_grid" and in_rec[i] >= 0:
            bounds_seen[in_rec[i]].add(spans[i][5])
    m["closure.bound_doublings"] = sum(len(b) - 1 for b in bounds_seen.values())

    div = [s for s in spans if s[0] == "exactalg.poly_div_exact"]
    m["exactalg.ratfunc_new"] = calls["exactalg.RationalFunc.__init__"]
    m["exactalg.ratfunc_s"] = _busy(spans, "exactalg.RationalFunc.__init__")
    m["exactalg.div_exact_calls"] = len(div)
    m["exactalg.div_exact_hit_ratio"] = (
        sum(1 for s in div if s[5]) / len(div) if div else 0.0)
    m["exactalg.gcd_calls"] = calls["exactalg.poly_gcd_univar"]
    m["exactalg.gcd_s"] = _busy(spans, "exactalg.poly_gcd_univar")
    m["exactalg.solve_calls"] = calls[linear]
    m["exactalg.solve_s"] = _busy(spans, linear)
    m["exactalg.interpolate_s"] = _busy(spans, "exactalg.interpolate_grid",
                                        "exactalg.interpolate_param")

    m["families.builds"] = len(_outer(spans, "families.builtin_deformed",
                                      "families.load_family_plugin"))
    m["families.build_s"] = _busy(spans, "families.builtin_deformed",
                                  "families.load_family_plugin")
    m["families.eigen_validate_s"] = _busy(spans, "families.eigen_validate")

    m["recurrence.table_s"] = _busy(spans, "recurrence.compute_table")
    m["recurrence.rows"] = sum(spans[i][5] for i in
                               _outer(spans, "recurrence.compute_table"))

    m["spectral.alpha_s"] = _busy(spans, "spectral.check_alpha_spectrum",
                                  "spectral.pairing_identities",
                                  "spectral.alpha_values_at_energy")
    m["spectral.suite_s"] = _busy(spans, "spectral.spectral_suite",
                                  "spectral.eigen_closed_form")

    m["heisenberg.context_s"] = _busy(spans, "heisenberg.LadderContext.__init__")
    m["heisenberg.checks_s"] = _busy(spans, "heisenberg.ladder_suite",
                                     "heisenberg.check_r0_relation",
                                     "heisenberg.commutation_check",
                                     "heisenberg.heisenberg_series_check")

    m["data.tables_loads"] = calls["closure.load_reference_tables"]
    m["data.tables_load_s"] = _busy(spans, "closure.load_reference_tables")

    m["cli.self_s"] = table.get(JOB, {}).get("self_s", 0.0)
    m["cli.report_bytes"] = report_bytes
    return m

