#!/usr/bin/env python3
"""Fast self-test of the benchmark harness on the tiny inputs.

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
in both modes and on every workload, and that a corrupted report or a
non-zero exit code is counted as a failure.  Takes a few seconds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

SEED = 1
BRIEF = 0.01  # seconds: one command per mode


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def _corrupt_run(report):
    report["result"]["final_energy"] += 1e-3


def _corrupt_gap(report):
    report["result"]["e_triplet"] += 1e-3


def _corrupt_transform(report):
    next(t for t in report["terms"] if t["word"] == "I")["coeff"] += 1e-6


CORRUPT = {"lih_ground": _corrupt_run, "h4_gap": _corrupt_gap,
           "synth_transform": _corrupt_transform}


def check_metric_names(spec: dict) -> None:
    expect([m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END],
           "end_to_end names differ between BENCHMARK.json and run.py")
    expect([m["name"] for m in spec["per_layer"]] == [n for n, _ in run.PER_LAYER],
           "per_layer names differ between BENCHMARK.json and run.py")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            record = run.execute(workload, SEED, BRIEF, trace, tiny=True)
            result = record["result"]
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{workload}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace={trace}: tiny run not correct: {record['failures']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{workload} trace={trace}: metrics {got} != {want}")
            expect(all(isinstance(m["value"], float) for m in result["metrics"].values()),
                   f"{workload} trace={trace}: a metric value is not a float")


def check_failures_counted(workloads) -> None:
    real_invoke = run.invoke
    try:
        for workload in workloads:
            def corrupting_invoke(argv, _corrupt=CORRUPT[workload]):
                code = real_invoke(argv)
                path = Path(argv[argv.index("-o") + 1])
                report = json.loads(path.read_text(encoding="utf-8"))
                _corrupt(report)
                path.write_text(json.dumps(report), encoding="utf-8")
                return code

            for fake in (corrupting_invoke, lambda argv: 1):
                run.invoke = fake
                record = run.execute(workload, SEED, BRIEF, False, tiny=True)
                result = record["result"]
                expect(not result["correct"] and result["failed"] == result["attempted"] >= 1
                       and record["fail_rate"] == 1.0,
                       f"{workload}: a bad run was not counted: {result}")
    finally:
        run.invoke = real_invoke


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_metric_names(spec)
    check_failures_counted([w["name"] for w in spec["workloads"]])
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
