"""The benchmark's tracer finds every library name it binds.

perfbench/tracing.py wraps library functions by name, as module globals.
A function that is renamed, dropped or called through a local alias
silently leaves its per-layer metrics out of a traced run's result.  The
tracer is loaded from its file read-only: no bytecode is written beside it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from artifact import analysis
from artifact.fixtures import EX_EXP, EX_POLY2

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_in_its_module(tracing):
    missing = [
        f"{modname}.{fn}"
        for modname, fns in tracing.TRACED.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"artifact.{modname}"), fn, None))
    ]
    missing += [
        f"analysis.{fn}"
        for fn in tracing.ANALYSIS_STAGES
        if not callable(getattr(analysis, fn, None))
    ]
    assert missing == []


def test_classify_calls_its_stages_through_the_module_globals(tracing, monkeypatch):
    """The tracer rebinds the analysis stages in artifact.analysis, so
    classify must look them up there on every call."""
    called = []
    for fn in tracing.ANALYSIS_STAGES:
        original = getattr(analysis, fn)

        def recording(*args, fn=fn, original=original):
            called.append(fn)
            return original(*args)

        monkeypatch.setattr(analysis, fn, recording)
    assert analysis.classify(EX_POLY2, want_witness=True).degree == 2
    assert analysis.classify(EX_EXP, want_witness=True).witness is not None
    assert called == ["_epsilon_core", "_dpa_impl", "_epsilon_core", "_find_eda_scc"]
