"""The benchmark tracer wraps package functions by name; each must exist."""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    traced = load_spans().TRACED
    assert traced
    for modname, names in traced.items():
        mod = importlib.import_module(f"hmmforget.{modname}")
        for name in names:
            if name == "log_likelihood":
                # traced as a method on the model classes that define it
                assert any(isinstance(cls, type) and cls.__module__ == mod.__name__
                           and name in vars(cls) for cls in vars(mod).values()), name
            else:
                assert callable(getattr(mod, name, None)), f"{modname}.{name}"
