"""The benchmark's tracer patches iqcc functions by name; every name it lists
must resolve, or ``bench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize(
    "name, home, attr, namespaces, _hook", spans.PATCHES, ids=[p[0] for p in spans.PATCHES]
)
def test_patch_target_resolves(name, home, attr, namespaces, _hook):
    target = getattr(importlib.import_module(home), attr)
    assert callable(target), name
    for ns in namespaces:
        # the name the caller looks up is the function the span wraps
        assert getattr(importlib.import_module(ns), attr) is target, (name, ns)


@pytest.mark.parametrize("name, home, attr", spans.COUNTED, ids=[c[0] for c in spans.COUNTED])
def test_counted_target_resolves(name, home, attr):
    assert callable(getattr(importlib.import_module(home), attr)), name


def test_selftest_passes():
    # a name that resolves can still break a traced run, e.g. a call whose
    # arguments a hook reads; the harness's self-test runs every workload traced
    result = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "selftest ok" in result.stdout
