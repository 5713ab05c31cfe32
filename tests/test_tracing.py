"""The benchmark's tracer (perfbench/tracing.py) rebinds package names by
string; a name the package no longer defines breaks the traced run, so
each one must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _tracing_module()
    for _, mod_name, attr, _ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), (
            f"{mod_name}.{attr}"
        )
    for _, mod_name, cls_name, attr in tracing.METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name, None)
        assert cls is not None and attr in cls.__dict__, f"{mod_name}.{cls_name}.{attr}"
