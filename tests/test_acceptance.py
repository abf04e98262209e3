"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Tolerances are pinned here and nowhere else.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import iqcc
from iqcc import ReferenceState, _packed
from iqcc._packed import expectation_packed
from iqcc.driver import (
    HARTREE_TO_EV,
    IqccConfig,
    resource_estimate,
    run_iqcc,
    singlet_triplet_gap,
)
from iqcc.engine import MAX_GENERATORS, estimate_amplitude, qcc_energy_and_gradient
from iqcc.errors import CapacityError
from iqcc.mapping import reference_state
from iqcc.pauli import parse_word
from iqcc.pauli_sum import dress_sequence

from helpers import coset_plan, random_generator, random_hermitian_sum, to_matrix

FIXTURES = Path(__file__).parent / "fixtures"


def _verdict(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" :: {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


class TestAcceptance:
    def test_01_oracle_convergence_h2(self, h2_problem, reference_values):
        _, h, ref = h2_problem
        started = time.perf_counter()
        res = run_iqcc(
            h, ref, IqccConfig(generators_per_iteration=1, energy_convergence=1e-6)
        )
        elapsed = time.perf_counter() - started
        err = abs(res.final_energy - reference_values["h2"]["fci_energy"])
        _verdict(
            "oracle convergence H2 (L=1, <=5 iterations, <1 s, 1e-6 Ha)",
            err < 1e-6 and len(res.records) <= 5 and elapsed < 1.0,
            f"err={err:.2e} iters={len(res.records)} time={elapsed:.3f}s",
        )

    def test_02_oracle_convergence_h4(self, h4_problem, reference_values):
        _, h, ref = h4_problem
        started = time.perf_counter()
        res = run_iqcc(
            h,
            ref,
            IqccConfig(
                generators_per_iteration=4, energy_convergence=1e-8, max_iterations=60
            ),
        )
        elapsed = time.perf_counter() - started
        err = abs(res.final_energy - reference_values["h4"]["fci_energy"])
        _verdict(
            "oracle convergence H4 chain (L=4, <5 min, 1e-5 Ha)",
            err < 1e-5 and elapsed < 300.0,
            f"err={err:.2e} iters={len(res.records)} time={elapsed:.1f}s",
        )

    def test_03_oracle_convergence_lih(self, lih_problem, reference_values):
        _, h, ref = lih_problem
        started = time.perf_counter()
        res = run_iqcc(
            h,
            ref,
            IqccConfig(
                generators_per_iteration=8, energy_convergence=1e-6, max_iterations=40
            ),
        )
        elapsed = time.perf_counter() - started
        err = abs(res.final_energy - reference_values["lih"]["fci_energy"])
        _verdict(
            "oracle convergence LiH (12 qubits, L=8, <5 min, 1e-5 Ha)",
            err < 1e-5 and elapsed < 300.0,
            f"err={err:.2e} iters={len(res.records)} time={elapsed:.1f}s",
        )

    def test_04_spin_penalty_targeting(
        self, h2_problem, h2_stretched_problem, reference_values
    ):
        details = []
        ok = True
        for name, problem in (("h2", h2_problem), ("h2_stretched", h2_stretched_problem)):
            mi, h, _ = problem
            ref_t = reference_state(2, 4, ms2=2)
            cfg = IqccConfig(generators_per_iteration=2, mu=0.25)
            res = run_iqcc(h, ref_t, cfg)
            e_oracle = reference_values[name]["fci_triplet"]
            err = abs(res.final_energy - e_oracle)
            ok &= err < 2e-5
            details.append(f"{name}: triplet err={err:.2e}")

            gap = singlet_triplet_gap(
                mi, IqccConfig(generators_per_iteration=2, mu=0.25)
            )
            oracle_gap = (
                reference_values[name]["fci_triplet"]
                - reference_values[name]["fci_singlet"]
            )
            gap_err = abs(gap.gap_ev / HARTREE_TO_EV - oracle_gap)
            ok &= gap_err < 2e-5
            details.append(f"{name}: gap err={gap_err:.2e} Ha")
        _verdict(
            "spin-penalty targeting (mu=0.25, triplet & gap within 2e-5 Ha)",
            ok,
            "; ".join(details),
        )

    def test_05_dressing_unitarity(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        count = 0
        for _ in range(100):
            n = int(rng.choice([2, 3, 4, 5, 6, 6, 7, 8, 10]))
            h = random_hermitian_sum(n, int(rng.integers(4, 40)), rng)
            gen = random_generator(n, rng)
            t = float(rng.normal())
            e0 = np.linalg.eigvalsh(to_matrix(h))
            e1 = np.linalg.eigvalsh(to_matrix(dress_sequence(h, [(gen, t)])))
            worst = max(worst, float(np.max(np.abs(e0 - e1))))
            count += 1
        _verdict(
            "dressing unitarity (100 random triples, N <= 10, 1e-10)",
            count >= 100 and worst < 1e-10,
            f"triples={count} worst spectral deviation={worst:.2e}",
        )

    def test_06_amplitude_formula(self):
        rng = np.random.default_rng(7)
        grid = np.linspace(-np.pi, np.pi, 2000)
        worst_scan = -np.inf
        worst_de = 0.0
        count = 0
        for _ in range(1000):
            w = float(rng.normal() * 10.0 ** float(rng.integers(-4, 2)))
            d = float(rng.normal() * 10.0 ** float(rng.integers(-4, 2)))
            if w == 0.0:
                continue
            t, de = estimate_amplitude(w, d)

            def energy(tt):
                return w * np.sin(tt) + d * (1.0 - np.cos(tt)) / 2.0

            scale = max(abs(w), abs(d), 1.0)
            worst_scan = max(worst_scan, float(energy(t) - energy(grid).min()) / scale)
            worst_de = max(worst_de, abs(de - energy(t)) / scale)
            count += 1
        _verdict(
            "amplitude formula (>=1000 scans: global minimizer, dE to 1e-12)",
            count >= 1000 and worst_scan < 1e-12 and worst_de < 1e-12,
            f"pairs={count} scan excess={worst_scan:.2e} dE err={worst_de:.2e}",
        )

    def test_07_gradient_check(self):
        rng = np.random.default_rng(99)
        step = 1e-5
        worst = 0.0
        count = 0
        for _ in range(100):
            n = int(rng.integers(3, 9))
            h = random_hermitian_sum(n, int(rng.integers(8, 40)), rng)
            ref = ReferenceState(int(rng.integers(1 << n)), n)
            L = int(rng.integers(1, 5))
            pairs = [
                (random_generator(n, rng), float(rng.normal() * 0.8)) for _ in range(L)
            ]
            gens, ts = zip(*pairs)
            live = _packed.live_plan(coset_plan(h, gens)[0], ref)
            _, grad = qcc_energy_and_gradient(live, ts)
            fd = []
            for j in range(L):
                up = list(ts)
                dn = list(ts)
                up[j] += step
                dn[j] -= step
                fd.append(
                    (
                        expectation_packed(dress_sequence(h, zip(gens, up)), ref)
                        - expectation_packed(dress_sequence(h, zip(gens, dn)), ref)
                    )
                    / (2 * step)
                )
            ga, fa = np.asarray(grad), np.asarray(fd)
            denom = max(float(np.linalg.norm(ga)), 1e-9)
            worst = max(worst, float(np.linalg.norm(ga - fa)) / denom)
            count += 1
        _verdict(
            "gradient vs central differences (>=100 instances, rel 1e-6)",
            count >= 100 and worst < 1e-6,
            f"instances={count} worst rel err={worst:.2e}",
        )

    def test_08_term_growth_bookkeeping(self, h4_problem, reference_values):
        rng = np.random.default_rng(3)
        # hard bound: every single dressing at most doubles the term count
        bound_ok = True
        for _ in range(50):
            n = int(rng.integers(2, 8))
            h = random_hermitian_sum(n, int(rng.integers(2, 40)), rng)
            out = dress_sequence(h, [(random_generator(n, rng), float(rng.normal()))])
            bound_ok &= len(out) <= 2 * len(h)

        _, h4, ref4 = h4_problem
        cfg = IqccConfig(
            generators_per_iteration=4, energy_convergence=1e-8, max_iterations=60
        )
        pruned_run = run_iqcc(h4, ref4, cfg)
        counts = [r.term_count for r in pruned_run.records]
        # sub-exponential: late growth ratios collapse towards 1 (plateau),
        # far below the 2^L = 16 per-iteration hard bound
        ratios = [b / a for a, b in zip(counts, counts[1:])]
        late = ratios[len(ratios) // 2 :]
        plateau_ok = len(counts) >= 4 and max(late) < 1.5 and late[-1] < 1.05

        from dataclasses import replace

        unpruned_run = run_iqcc(h4, ref4, replace(cfg, prune_threshold=0.0))
        energy_drift = abs(pruned_run.final_energy - unpruned_run.final_energy)
        # near-exhaustion unpruned run also reaches the oracle minimum
        exhaustion_err = abs(
            unpruned_run.final_energy - reference_values["h4"]["fci_energy"]
        )
        _verdict(
            "term growth: <=2x per dressing, H4 plateau, prune drift <1e-8 Ha",
            bound_ok and plateau_ok and energy_drift < 1e-8 and exhaustion_err < 1e-8,
            f"counts={counts[:6]}..{counts[-1]} late growth={max(late):.3f} "
            f"drift={energy_drift:.2e} unpruned err={exhaustion_err:.2e}",
        )

    def test_09_protocol_constants(self):
        cfg = IqccConfig()
        ok = (
            cfg.generators_per_iteration == 8
            and cfg.energy_convergence == 1e-5
            and MAX_GENERATORS == 16
        )
        capped = False
        try:
            IqccConfig(generators_per_iteration=17)
        except CapacityError:
            capped = True
        _verdict(
            "protocol constants: L=8 default, stop 1e-5 Ha, L capped at 16",
            ok and capped,
            f"defaults L={cfg.generators_per_iteration}, dE={cfg.energy_convergence}",
        )

    def test_10_resource_estimate(self):
        gen = parse_word("Y0 X1 X2 X3", 4)
        cnot, rz = resource_estimate([gen] * (8 * 75))  # 75 iterations of 8
        _verdict(
            "resource estimate: 600 weight-4 entanglers -> 3600 CNOT / 600 RZ",
            (cnot, rz) == (3600, 600),
            f"cnot={cnot} rz={rz}",
        )

    def test_11_determinism_across_thread_counts(self, tmp_path):
        # The child runs from tmp_path, where a relative PYTHONPATH entry does
        # not resolve; put the root of the package imported here first so the
        # child runs the same source tree, installed copy or not.
        package_root = str(Path(iqcc.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "4"):
            out = tmp_path / f"gap_t{threads}.json"
            csv_prefix = tmp_path / f"t{threads}"
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [package_root, env.get("PYTHONPATH")])
            )
            env["OMP_NUM_THREADS"] = threads
            env["OPENBLAS_NUM_THREADS"] = threads
            subprocess.run(
                [
                    sys.executable, "-m", "iqcc", "gap",
                    str(FIXTURES / "h2.fcidump"), "--generators", "2",
                    "-o", str(out), "--csv-prefix", str(csv_prefix),
                ],
                check=True,
                env=env,
                cwd=str(tmp_path),
            )
            report = json.loads(out.read_text())
            csvs = (
                (tmp_path / f"t{threads}_singlet.csv").read_text(),
                (tmp_path / f"t{threads}_triplet.csv").read_text(),
            )
            outputs.append((report, csvs))
        digests = [
            rep["manifest"]["determinism"]["numeric_digest"] for rep, _ in outputs
        ]
        csv_equal = outputs[0][1] == outputs[1][1]

        def strip(rep):
            rep = json.loads(json.dumps(rep))
            rep["manifest"].pop("timestamps")

            def scrub(node):
                if isinstance(node, dict):
                    node.pop("wall_time_s", None)
                    for v in node.values():
                        scrub(v)
                elif isinstance(node, list):
                    for v in node:
                        scrub(v)

            scrub(rep)
            return json.dumps(rep, sort_keys=True)

        json_equal = strip(outputs[0][0]) == strip(outputs[1][0])
        _verdict(
            "determinism: repeated gap runs byte-identical across thread counts",
            digests[0] == digests[1] and csv_equal and json_equal,
            f"digest={digests[0][:16]}",
        )

    def test_12_lih_gap(self, lih_problem, reference_values):
        # the paper's observable, T1 -> S0, on the 12-qubit fixture against the
        # (N, m_s)-block FCI values, at test_04's tolerance
        mi, _, _ = lih_problem
        cfg = IqccConfig(
            generators_per_iteration=8,
            energy_convergence=1e-6,
            max_iterations=40,
            mu=0.25,
        )
        gap = singlet_triplet_gap(mi, cfg)
        fci = reference_values["lih"]
        errors = (
            abs(gap.e_singlet - fci["fci_singlet"]),
            abs(gap.e_triplet - fci["fci_triplet"]),
            abs(gap.gap_ev / HARTREE_TO_EV - (fci["fci_triplet"] - fci["fci_singlet"])),
        )
        _verdict(
            "LiH singlet/triplet gap (L=8, mu=0.25, S0, T1 and gap within 2e-5 Ha)",
            max(errors) < 2e-5,
            "S0 err={:.2e} T1 err={:.2e} gap err={:.2e} Ha".format(*errors),
        )
