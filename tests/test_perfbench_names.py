"""Every package function that the benchmark's tracer wraps by name exists.

perfbench/spans.py replaces each (module, attribute) pair of its WRAPPED
table for the length of a traced run, so a package change that renames or
removes one breaks the traced benchmark; this test fails first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_wrapped_name_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up in sys.modules while it executes.
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    missing = [(module, attr) for module, attr, _, _ in spans.WRAPPED
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
