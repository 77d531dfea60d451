"""The benchmark tracer wraps package functions by name: every name it
lists must still resolve, or a traced run stops at install.  Apart from
those names, every module-level function and class of the package has a
reader in the package itself."""

import ast
import importlib
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"
SRC = ROOT / "src" / "closurelab"

# Read from outside src/: bench/record.py and demos/05_build_plugins.py
# write plugins with it.
OUTSIDE_READERS = {"plugin_dict_from_family"}


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_tracer_target_resolves():
    for module, attr, _ in _tracer_targets():
        mod = importlib.import_module(f"closurelab.{module}")
        owner, _, name = attr.rpartition(".")
        scope = vars(getattr(mod, owner)) if owner else vars(mod)
        assert callable(scope.get(name)), f"{module}.{attr}"


def test_every_package_definition_has_a_reader():
    # a reader is a loaded name or an attribute access anywhere in src/
    defined, read = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = f"{path.relative_to(SRC)}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert defined
    pinned = {attr.split(".")[0] for _, attr, _ in _tracer_targets()} | OUTSIDE_READERS
    unread = sorted(f"{name} ({where})" for name, where in defined.items()
                    if name not in read and name not in pinned)
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
