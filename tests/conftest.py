"""Fixtures shared by the test modules."""

import importlib.util
import sys
from pathlib import Path

import pytest


@pytest.fixture
def bench_workloads(monkeypatch):
    """The benchmark's ``perfbench/workloads.py``, loaded from this checkout."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclass annotations
    spec.loader.exec_module(workloads)
    return workloads
