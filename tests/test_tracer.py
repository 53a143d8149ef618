"""The per-layer tracer in perfbench/ wraps polydec methods by class and
name, so renaming or moving a method it pins breaks the benchmark's
``--trace 1`` runs; this test catches that in the test suite."""

import importlib.util
import pathlib
import sys

import polydec.cli  # noqa: F401
import polydec.selftest  # noqa: F401  (the tracer wraps every loaded layer)


def _load_tracer():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot():
    """Every attribute of every polydec module and class, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "polydec" or name.startswith("polydec."):
            for attr, obj in vars(module).items():
                out[(name, attr)] = obj
                if isinstance(obj, type) and obj.__module__ == name:
                    for meth, raw in vars(obj).items():
                        out[(name, attr, meth)] = raw
    return out


def test_tracer_install_wraps_pinned_methods_and_uninstall_restores_them():
    tracer = _load_tracer()
    pinned = [
        (module, cls, meth)
        for module, classes in tracer.SPAN_METHODS.items()
        for cls, meths in classes.items()
        for meth in meths
    ] + [("polydec.field", cls, meth) for cls, meth in {**tracer.COUNTED, **tracer.TIMED}]
    before = _snapshot()
    assert all(key in before for key in pinned)
    t = tracer.Tracer()
    try:
        t.install()
        during = _snapshot()
    finally:
        t.uninstall()
    assert all(during[key] is not before[key] for key in pinned)
    assert during[("polydec.upoly", "right_divide")] is not before[("polydec.upoly", "right_divide")]
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
