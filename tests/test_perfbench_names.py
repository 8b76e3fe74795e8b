"""Every package function that the benchmark's tracer wraps by name exists,
and the solver's wrapped names are the ones a solve calls.

perfbench/spans.py replaces each (module, attribute) pair of its WRAPPED
table for the length of a traced run, so a package change that renames or
removes one breaks the traced benchmark, and one that stops calling it
leaves its per-layer metrics reading 0; these tests fail first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

import mvgehd.solver
from mvgehd.solver import EmbedConfig, solve

from test_solver import random_multiview

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up in sys.modules while it executes.
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    return spans


def test_every_wrapped_name_resolves(monkeypatch):
    spans = load_spans(monkeypatch)
    assert spans.WRAPPED
    missing = [(module, attr) for module, attr, _, _ in spans.WRAPPED
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_auto_mode_solve_calls_every_wrapped_solver_name(monkeypatch):
    names = [attr for module, attr, _, _ in load_spans(monkeypatch).WRAPPED
             if module == "mvgehd.solver"]
    assert names
    called = set()
    for attr in names:
        def counting(*args, _attr=attr, _fn=getattr(mvgehd.solver, attr), **kwargs):
            called.add(_attr)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(mvgehd.solver, attr, counting)
    graph = random_multiview(np.random.default_rng(0), 40, 2)
    _, _, trace = solve(graph, EmbedConfig(k=3))
    assert trace.iterations >= 2
    assert sorted(called) == sorted(names)
