#!/usr/bin/env python3
"""Benchmark of the iqcc command line, end to end and layer by layer.

    python3 bench/run.py --workload lih_ground --seed 1 --seconds 30 --trace 0

Run from the repository root (or any checkout of it).  Each workload drives
one public ``iqcc`` command in-process, repeatedly, for ``--seconds``; every
output is checked outside the timed region.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` alternates untraced and traced commands
and reports the per-layer metrics (see ``spans.py``).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.  A
full record (quartiles, fingerprint, machine) is written next to it under
``.bench_out/``.  See ``README.md`` in this directory for the workloads and
the layer map.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is imported, so that timings do not depend
# on how many cores a run happens to get.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
OUT = ROOT / ".bench_out"
COLD_IMPORTS = 5  # fresh interpreters timed per run for setup_s
SAMPLE_SECONDS = 4.0  # least command time in one untraced sample

SYNTH_ORBITALS = 12
SYNTH_ELECTRONS = 8

END_TO_END = (
    ("solve_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("cli.solve_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("check.energy_error_ha", "Ha"),
    ("fcidump.load_s", "s"),
    ("mapping.jordan_wigner_s", "s"),
    ("mapping.jw_terms_out", "count"),
    ("mapping.penalize_s", "s"),
    ("pauli_sum.to_json_s", "s"),
    ("driver.run_s", "s"),
    ("driver.self_s", "s"),
    ("driver.iterations", "count"),
    ("driver.final_terms", "count"),
    ("driver.pt_s", "s"),
    ("optimizer.minimize_s", "s"),
    ("optimizer.self_s", "s"),
    ("optimizer.evaluations", "count"),
    ("optimizer.converged_ratio", "ratio"),
    ("engine.eval_s", "s"),
    ("engine.eval_calls", "count"),
    ("engine.eval_self_s", "s"),
    ("engine.eval_terms_in", "count"),
    ("engine.rank_s", "s"),
    ("engine.generators_ranked", "count"),
    ("pauli_sum.dress_sequence_s", "s"),
    ("pauli_sum.prune_s", "s"),
    ("pauli_sum.prune_kept_ratio", "ratio"),
    ("packed.canonical_s", "s"),
    ("packed.canonical_calls", "count"),
    ("packed.canonical_rows_in", "count"),
    ("packed.canonical_keep_ratio", "ratio"),
    ("packed.pack_s", "s"),
    ("packed.pack_rows", "count"),
    ("packed.unpack_s", "s"),
    ("packed.dress_packed_s", "s"),
    ("packed.dress_growth", "ratio"),
    ("packed.x_group_slice_calls", "count"),
    ("packed.block_statistics_s", "s"),
)


# -- workloads ----------------------------------------------------------------


@dataclass
class Problem:
    """One workload instance: the CLI arguments and what its output must satisfy."""

    argv: list  # iqcc arguments, without -o
    check: Callable[[dict], tuple]  # report -> (energy error, failure reasons)
    fingerprint: Callable[[dict], dict]
    report: Path | None = None


def _reference(name: str) -> dict:
    return json.loads((FIXTURES / "reference_values.json").read_text(encoding="utf-8"))[name]


def _trajectory_fingerprint(report: dict, iterations: list) -> dict:
    return {"numeric_digest": report["manifest"]["determinism"]["numeric_digest"],
            "iterations": len(iterations),
            "evaluations": sum(it["optimizer_evaluations"] for it in iterations)}


def _ground_problem(fixture: str) -> Problem:
    fci = _reference(fixture)["fci_energy"]

    def check(report):
        res = report["result"]
        energies = [res["initial_energy"]] + [it["energy"] for it in res["iterations"]]
        reasons = []
        if not res["iterations"]:
            reasons.append("no iterations")
        if any(b > a for a, b in zip(energies, energies[1:])):
            reasons.append(f"energy increased along {energies}")
        if any(e < fci - 1e-9 for e in energies):
            reasons.append(f"energy below FCI {fci} in {energies}")
        error = abs(res["final_energy"] - fci)
        if error > 1e-4:
            reasons.append(f"final energy off FCI by {error:.3e} Ha")
        return error, reasons

    def fingerprint(report):
        return _trajectory_fingerprint(report, report["result"]["iterations"])

    argv = ["run", str(FIXTURES / f"{fixture}.fcidump"), "--generators", "8",
            "--energy-convergence", "1e-6", "--max-iterations", "4"]
    return Problem(argv, check, fingerprint)


def _gap_problem(fixture: str) -> Problem:
    ref = _reference(fixture)
    anchors = {"singlet": ref["fci_singlet"], "triplet": ref["fci_triplet"],
               "gap": ref["fci_triplet"] - ref["fci_singlet"]}

    def check(report):
        res = report["result"]
        found = {"singlet": res["e_singlet"], "triplet": res["e_triplet"],
                 "gap": res["gap_ev"] / res["hartree_to_ev"]}
        reasons = [f"{k} off FCI by {abs(found[k] - anchors[k]):.3e} Ha"
                   for k in anchors if not abs(found[k] - anchors[k]) <= 2e-5]
        return abs(found["gap"] - anchors["gap"]), reasons

    def fingerprint(report):
        res = report["result"]
        return _trajectory_fingerprint(
            report, res["singlet"]["iterations"] + res["triplet"]["iterations"])

    argv = ["gap", str(FIXTURES / f"{fixture}.fcidump"), "--generators", "4"]
    return Problem(argv, check, fingerprint)


def _transform_problem(n_orbitals: int, n_electrons: int, seed: int) -> Problem:
    from synth import closed_shell_energy, write_fcidump

    path = OUT / f"synth-n{n_orbitals}-seed{seed}.fcidump"
    core, h1, g2 = write_fcidump(path, n_orbitals, n_electrons, seed)
    expected = closed_shell_energy(core, h1, g2, n_electrons)

    def check(report):
        reasons = []
        if report.get("n_electrons") != n_electrons or report.get("n_qubits") != 2 * n_orbitals:
            reasons.append("wrong electron or qubit count in the output")
        value = reference_expectation(report["terms"], n_electrons)
        error = abs(value - expected)
        if not error <= 1e-10:
            reasons.append(f"<0|H|0> = {value!r} but the determinant energy is {expected!r}")
        return error, reasons

    def fingerprint(report):
        return {"numeric_digest": report["manifest"]["determinism"]["numeric_digest"],
                "terms": len(report["terms"]), "iterations": 0, "evaluations": 0}

    return Problem(["transform", str(path)], check, fingerprint)


def reference_expectation(terms: list, n_electrons: int) -> float:
    """<0|H|0> from serialized terms, with qubits 0..n_electrons-1 occupied."""
    total = 0.0
    for term in terms:
        tokens = term["word"].split()
        if tokens == ["I"]:
            total += term["coeff"]
        elif all(t[0] == "Z" for t in tokens):
            flips = sum(1 for t in tokens if int(t[1:]) < n_electrons)
            total += -term["coeff"] if flips % 2 else term["coeff"]
    return total


def make_problem(workload: str, seed: int, tiny: bool = False) -> Problem:
    """The workload's instance; ``tiny`` swaps in the smallest inputs (warm-up, self-test)."""
    if workload == "lih_ground":
        problem = _ground_problem("h2" if tiny else "lih")
    elif workload == "h4_gap":
        problem = _gap_problem("h2" if tiny else "h4")
    elif workload == "synth_transform":
        problem = (_transform_problem(4, 2, seed) if tiny
                   else _transform_problem(SYNTH_ORBITALS, SYNTH_ELECTRONS, seed))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    tag = "tiny" if tiny else f"seed{seed}"
    problem.report = OUT / f"report-{workload}-{tag}.json"
    return problem


# -- running and checking -----------------------------------------------------


@dataclass
class Outcome:
    seconds: float
    traced: bool
    exit_code: int
    reasons: list
    energy_error: float | None = None
    fingerprint: dict | None = None

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.reasons


def invoke(argv: list) -> int:
    """Run one iqcc command in-process; its exit code (0 on success)."""
    import click
    from iqcc.cli import main

    try:
        main.main(args=argv, prog_name="iqcc", standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except Exception:  # a crash is a failed run, not a crashed benchmark
        traceback.print_exc(file=sys.stderr)
        return 1
    return 0


def evaluate(problem: Problem, exit_code: int) -> tuple[list, float | None, dict | None]:
    """(failure reasons, energy error, fingerprint) of the report just written."""
    if exit_code != 0:
        return [f"exit code {exit_code}"], None, None
    try:
        report = json.loads(problem.report.read_text(encoding="utf-8"))
        error, reasons = problem.check(report)
        return reasons, error, problem.fingerprint(report)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"], None, None


def solve_once(problem: Problem, tracer=None) -> Outcome:
    problem.report.unlink(missing_ok=True)
    argv = problem.argv + ["-o", str(problem.report)]
    if tracer is None:
        start = time.perf_counter()
        code = invoke(argv)
        elapsed = time.perf_counter() - start
    else:
        tracer.run_id += 1
        with tracer.install():
            start = time.perf_counter()
            with tracer.span("cli.command"):
                code = invoke(argv)
            elapsed = time.perf_counter() - start
    reasons, error, fingerprint = evaluate(problem, code)
    return Outcome(elapsed, tracer is not None, code, reasons, error, fingerprint)


def measure(problem: Problem, seconds: float, tracer=None) -> tuple[list, list]:
    """Repeat the command until the next sample would end past ``seconds``.

    Returns (every outcome, the untraced samples in seconds per command).
    Without a tracer, consecutive commands are grouped into samples of at
    least SAMPLE_SECONDS (or up to the deadline), each counted as its mean
    time per command, so that one sample spans several of a shared
    machine's fast and slow phases.
    With a tracer, untraced and traced commands alternate in pairs, ordered
    untraced-traced then traced-untraced, so both kinds see the same machine
    state and neither always runs first; each command is its own sample.
    """
    deadline = time.perf_counter() + seconds
    outcomes, samples = [], []
    while True:
        if tracer is None:
            batch = []
            while not batch or (sum(batch) < SAMPLE_SECONDS and time.perf_counter() < deadline):
                outcomes.append(solve_once(problem))
                batch.append(outcomes[-1].seconds)
            samples.append(sum(batch) / len(batch))
            step = sum(batch)
        else:
            first_traced = len(outcomes) % 4 == 2
            pair = [solve_once(problem, tracer if traced else None)
                    for traced in (first_traced, not first_traced)]
            outcomes += pair
            samples += [o.seconds for o in pair if not o.traced]
            step = sum(o.seconds for o in pair)
        if time.perf_counter() + step > deadline:
            return outcomes, samples


def cold_import_seconds(n: int) -> list:
    """Wall time of ``import iqcc.cli`` in ``n`` fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(n):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import iqcc.cli"], env=env, check=True,
                       cwd=ROOT, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


# -- metrics ------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, outcomes: list) -> dict:
    """Per-layer metrics per traced command (totals over the traced commands / their count)."""
    traced = [o for o in outcomes if o.traced]
    plain = [o for o in outcomes if not o.traced]
    n = len(traced)
    total, own = tracer.totals()
    calls = tracer.calls()
    c = tracer.counts
    errors = [o.energy_error for o in outcomes if o.energy_error is not None]
    values = {
        "cli.solve_s": total.get("cli.command", 0.0) / n,
        "cli.self_s": own.get("cli.command", 0.0) / n,
        "trace.overhead_s": (statistics.median(o.seconds for o in traced)
                             - statistics.median(o.seconds for o in plain)),
        "check.energy_error_ha": statistics.median(errors) if errors else 0.0,
        "fcidump.load_s": total.get("fcidump.load", 0.0) / n,
        "mapping.jordan_wigner_s": total.get("mapping.jordan_wigner", 0.0) / n,
        "mapping.jw_terms_out": c["mapping.jw_terms_out"] / n,
        "mapping.penalize_s": total.get("mapping.penalize", 0.0) / n,
        "pauli_sum.to_json_s": total.get("pauli_sum.to_json", 0.0) / n,
        "driver.run_s": total.get("driver.run", 0.0) / n,
        "driver.self_s": own.get("driver.run", 0.0) / n,
        "driver.iterations": c["driver.iterations"] / n,
        "driver.final_terms": c["driver.final_terms"] / n,
        "driver.pt_s": total.get("driver.pt", 0.0) / n,
        "optimizer.minimize_s": total.get("optimizer.minimize", 0.0) / n,
        "optimizer.self_s": own.get("optimizer.minimize", 0.0) / n,
        "optimizer.evaluations": c["optimizer.evaluations"] / n,
        "optimizer.converged_ratio": _ratio(c["optimizer.converged"], calls["optimizer.minimize"]),
        "engine.eval_s": total.get("engine.eval", 0.0) / n,
        "engine.eval_calls": calls["engine.eval"] / n,
        "engine.eval_self_s": own.get("engine.eval", 0.0) / n,
        "engine.eval_terms_in": c["engine.eval_terms_in"] / n,
        "engine.rank_s": total.get("engine.rank", 0.0) / n,
        "engine.generators_ranked": c["engine.generators_ranked"] / n,
        "pauli_sum.dress_sequence_s": total.get("pauli_sum.dress_sequence", 0.0) / n,
        "pauli_sum.prune_s": total.get("pauli_sum.prune", 0.0) / n,
        "pauli_sum.prune_kept_ratio": _ratio(c["pauli_sum.prune_rows_out"],
                                             c["pauli_sum.prune_rows_in"]),
        "packed.canonical_s": total.get("packed.canonical", 0.0) / n,
        "packed.canonical_calls": calls["packed.canonical"] / n,
        "packed.canonical_rows_in": c["packed.canonical_rows_in"] / n,
        "packed.canonical_keep_ratio": _ratio(c["packed.canonical_rows_out"],
                                              c["packed.canonical_rows_in"]),
        "packed.pack_s": total.get("packed.pack", 0.0) / n,
        "packed.pack_rows": c["packed.pack_rows"] / n,
        "packed.unpack_s": total.get("packed.unpack", 0.0) / n,
        "packed.dress_packed_s": total.get("packed.dress_packed", 0.0) / n,
        "packed.dress_growth": _ratio(c["packed.dress_rows_out"], c["packed.dress_rows_in"]),
        "packed.x_group_slice_calls": c["packed.x_group_slice_calls"] / n,
        "packed.block_statistics_s": total.get("packed.block_statistics", 0.0) / n,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def machine_block(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "seed": seed,
        "seed_note": "lih_ground and h4_gap read committed fixtures and ignore the seed; "
                     "synth_transform draws its integrals from it",
    }


def baseline_flag(workload: str, seed: int, fingerprint: dict | None) -> str:
    """Compare a trajectory fingerprint with ``baseline.json``; never fails the run."""
    if fingerprint is None:
        return "no fingerprint (run failed)"
    entries = json.loads((BENCH / "baseline.json").read_text(encoding="utf-8")).get(workload, {})
    expected = entries.get(f"seed{seed}") if workload == "synth_transform" else entries or None
    if expected is None:
        return "no baseline for this seed"
    changed = sorted(k for k in expected if expected[k] != fingerprint.get(k))
    return "same" if not changed else "CHANGED: " + ", ".join(changed)


def execute(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the full record (its ``result`` is the JSON line)."""
    OUT.mkdir(exist_ok=True)
    setup_times = [] if trace or tiny else cold_import_seconds(COLD_IMPORTS)

    start = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import iqcc.cli  # noqa: F401
    if not tiny:  # warm lazy imports and first-call paths on the smallest input
        solve_once(make_problem(workload, seed, tiny=True))
    warmup = time.perf_counter() - start

    problem = make_problem(workload, seed, tiny)
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    outcomes, samples = measure(problem, seconds, tracer)
    plain = [o for o in outcomes if not o.traced]
    failed = sum(not o.ok for o in outcomes)

    if trace:
        metrics = layer_metrics(tracer, outcomes)
        tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
    else:
        import_median = statistics.median(setup_times) if setup_times else 0.0
        metrics = {
            "solve_s": statistics.median(samples),
            "setup_s": import_median + warmup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    fingerprint = next((o.fingerprint for o in outcomes if o.fingerprint), None)
    errors = [o.energy_error for o in outcomes if o.energy_error is not None]
    return {
        "workload": workload,
        "trace": trace,
        "solve_s_quartiles": quartiles(samples),
        "samples": len(samples),
        "solves": len(plain),
        "traced_solves": len(outcomes) - len(plain),
        "cold_import_s": setup_times,
        "warmup_s": warmup,
        "energy_error_ha": statistics.median(errors) if errors else None,
        "fail_rate": failed / len(outcomes),
        "failures": [o.reasons for o in outcomes if not o.ok][:10],
        "fingerprint": fingerprint,
        "baseline": baseline_flag(workload, seed, fingerprint) if not tiny else "tiny",
        "machine": machine_block(seed),
        "result": {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
                   "metrics": metrics},
    }


def print_record(record: dict) -> None:
    q1, med, q3 = record["solve_s_quartiles"]
    print(f"workload {record['workload']}  trace {int(record['trace'])}  "
          f"solves {record['solves']} (+{record['traced_solves']} traced)")
    print(f"  solve_s          median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
          f"samples {record['samples']}")
    for name, metric in record["result"]["metrics"].items():
        print(f"  {name:<30} {metric['value']:<14.6g} {metric['unit']}")
    error = record["energy_error_ha"]
    print(f"  energy_error_ha  {'n/a' if error is None else f'{error:.3e}'}")
    res = record["result"]
    print(f"  fail_rate        {record['fail_rate']:.3g} ({res['failed']}/{res['attempted']})")
    for reasons in record["failures"][:3]:
        print(f"  failure: {'; '.join(reasons)}")
    print(f"  fingerprint      {json.dumps(record['fingerprint'])}  baseline: {record['baseline']}")
    print(f"  machine          {json.dumps(record['machine'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["lih_ground", "h4_gap", "synth_transform"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "iqcc" / "cli.py", FIXTURES / "reference_values.json")
               if not p.is_file()]
    if missing:
        print(f"error: not an iqcc checkout, missing {[str(p) for p in missing]}",
              file=sys.stderr)
        return 2

    record = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print_record(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
