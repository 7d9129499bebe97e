"""The benchmark's tracer wraps fticalc callables by name; each must exist."""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = load_tracer()
    for layer, names in tracer.LAYERS.items():
        module = importlib.import_module("fticalc." + layer)
        for name in names:
            cls_name, _, op = name.partition(".")
            obj = getattr(module, cls_name, None)
            assert obj is not None, "fticalc.%s has no %s" % (layer, cls_name)
            if op:
                assert tracer.OPERATORS[op] in vars(obj), "%s.%s" % (layer, name)
            else:
                assert callable(obj), "%s.%s" % (layer, name)
            if isinstance(obj, type):
                # Tracer.install reads the constructor from the class's own __dict__
                assert "__init__" in vars(obj), "%s.%s.__init__ is inherited" % (layer, cls_name)
