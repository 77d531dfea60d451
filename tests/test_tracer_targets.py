"""The benchmark tracer wraps package functions by name: every name it
lists must still resolve, or a traced run stops at install, and the
reconstruction metrics it reads off the spans must keep their meaning.
Apart from those names, every module-level function and class of the
package, and every method and property of its classes, has a reader in
the package itself, and no module evaluates source text."""

import ast
import contextlib
import importlib
import importlib.util
import io
import pathlib

from closurelab import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"
SRC = ROOT / "src" / "closurelab"

# Read from outside src/: bench/record.py and demos/05_build_plugins.py
# write plugins with it.
OUTSIDE_READERS = {"plugin_dict_from_family"}
# Members read by a caller outside the package's own code: argparse calls
# _Parser.error on a bad command line.
CALLBACK_MEMBERS = {"_Parser.error"}
# Reference classes pinned whole by the tracer (RationalFunc.__init__ and
# DiffOp.compose/apply_poly): their members serve the reference routes the
# tests compare against.
PINNED_CLASSES = {"RationalFunc", "DiffOp"}


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _tracer_targets():
    return _tracer_module().TARGETS


def test_every_tracer_target_resolves():
    for module, attr, _ in _tracer_targets():
        mod = importlib.import_module(f"closurelab.{module}")
        owner, _, name = attr.rpartition(".")
        scope = vars(getattr(mod, owner)) if owner else vars(mod)
        assert callable(scope.get(name)), f"{module}.{attr}"


def test_every_package_definition_has_a_reader():
    # a reader is a loaded name or an attribute access anywhere in src/;
    # a class member (method or property) is keyed Class.member, dunders
    # are exempt, and so is every member of a pinned reference class
    defined, read = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = f"{path.relative_to(SRC)}:{node.lineno}"
            if isinstance(node, ast.ClassDef) and node.name not in PINNED_CLASSES:
                for member in node.body:
                    if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (member.name.startswith("__")
                                     and member.name.endswith("__"))):
                        defined[f"{node.name}.{member.name}"] = (
                            f"{path.relative_to(SRC)}:{member.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert "LadderContext.spectral_at" in defined and "SpectralData.K" in defined
    pinned = ({attr.split(".")[0] for _, attr, _ in _tracer_targets()}
              | OUTSIDE_READERS | CALLBACK_MEMBERS)
    unread = sorted(f"{name} ({where})" for name, where in defined.items()
                    if name.rpartition(".")[2] not in read and name not in pinned)
    assert unread == []


def test_every_function_parameter_is_read():
    # a parameter is read when its name is loaded in the body of its
    # function or lambda (nested definitions included); self, cls and _ are
    # exempt
    unread = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *filter(None, (args.vararg, args.kwarg))]
            body = node.body if isinstance(node.body, list) else [node.body]
            loaded = {n.id for stmt in body for n in ast.walk(stmt)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "lambda")
            unread += [f"{name}: {p.arg} ({path.relative_to(SRC)}:{node.lineno})"
                       for p in params if p.arg not in {"self", "cls", "_"} | loaded]
    assert unread == []


def test_package_evaluates_no_source():
    # every polynomial the package reads as text goes through parse_poly;
    # a bare-name call to eval, exec or compile would evaluate source
    # (re.compile and other attribute calls are not bare names)
    calls = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        calls += [f"{node.func.id} ({path.relative_to(SRC)}:{node.lineno})"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in {"eval", "exec", "compile"}]
    assert calls == []


def test_symbolic_trace_keeps_the_reconstruction_metrics():
    # the tracer counts closure.sample_solves as the closure_for_family spans
    # inside reconstruct_closure, closure.bound_doublings from the bounds of
    # the outermost interpolate_grid calls there, and exactalg.interpolate_s
    # as their time: symbolic J[1I] solves its 5 x 4 grid and its 2 fresh
    # points once each, and interpolates every coefficient in one call
    tracer_mod = _tracer_module()
    tracer = tracer_mod.Tracer()
    argv = ["verify-closure", "--family", "J", "--D", "1I", "--mode", "symbolic",
            "--json"]
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = tracer.run_job("symbolic-J1I", cli.main, argv)
    finally:
        tracer.uninstall()
    assert code == 0
    names = [span[0] for span in tracer.spans]
    assert names.count("closure.reconstruct_closure") == 1
    assert names.count("closure.closure_for_family") == 22
    assert names.count("exactalg.interpolate_grid") == 1
    assert names.count("exactalg.interpolate_param") == 0
    metrics = tracer_mod.layer_metrics(tracer.spans, 0)
    assert metrics["closure.sample_solves"] == 22
    assert metrics["closure.bound_doublings"] == 0
    assert metrics["exactalg.interpolate_s"] > 0
