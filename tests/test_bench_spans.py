"""The benchmark's tracer patches iqcc functions by name; every name it lists
must resolve, or ``bench/run.py --trace 1`` breaks, and must be the one its
caller looks up, or the traced run misses its calls."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from iqcc.cli import main

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


def _traced_calls(argv):
    tracer = spans.Tracer()
    with tracer.install():
        result = CliRunner().invoke(main, argv)
    assert result.exit_code == 0, result.output
    return tracer


def test_traced_run_sees_every_kernel(tmp_path):
    # a kernel bound under another name (say, imported into its caller's
    # namespace) still resolves above but runs untraced; a traced run shows it
    fixture = Path(__file__).parent / "fixtures" / "h4.fcidump"
    tracer = _traced_calls(["run", str(fixture), "--generators", "4",
                            "-o", str(tmp_path / "run.json")])
    calls = tracer.calls()
    for name in ("pauli_sum.dress_sequence", "packed.dress_packed", "engine.eval",
                 "engine.rank"):
        assert calls[name] >= 1, name
    # L-BFGS's objective looks the evaluation up by name at each call: one
    # traced call per evaluation the report counts
    iterations = json.loads((tmp_path / "run.json").read_text())["result"]["iterations"]
    assert calls["engine.eval"] == sum(it["optimizer_evaluations"] for it in iterations)
    # an FCIDUMP run maps straight to a packed sum; qubit-JSON input is
    # parsed to masks and made canonical on load by _canonical
    ham = tmp_path / "h4.json"
    assert CliRunner().invoke(main, ["transform", str(fixture), "-o", str(ham)]).exit_code == 0
    calls = _traced_calls(["run", str(ham), "--generators", "4",
                           "-o", str(tmp_path / "run_json.json")]).calls()
    assert calls["packed.canonical"] >= 1
