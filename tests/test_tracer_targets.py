"""The benchmark tracer wraps package functions by name: every name it
lists must still resolve, or a traced run stops at install."""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attr, _ in tracer.TARGETS:
        mod = importlib.import_module(f"closurelab.{module}")
        owner, _, name = attr.rpartition(".")
        scope = vars(getattr(mod, owner)) if owner else vars(mod)
        assert callable(scope.get(name)), f"{module}.{attr}"
