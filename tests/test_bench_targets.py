"""The benchmark's tracer wraps crfactor functions by name (bench/tracing.py,
TARGETS). A renamed or deleted function would only break its traced runs,
so this checks that every name still resolves, without installing the tracer."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, attr, *_ in tracing.TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(module, cls_name, object))
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert not missing
