import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import iqcc
from iqcc import cli, driver
from iqcc.cli import _CONFIG_KEYS, _iqcc_config, _resolve_config, main
from iqcc._packed import pack
from iqcc.driver import IqccConfig
from iqcc.fcidump import load_fcidump
from iqcc.mapping import jordan_wigner
from iqcc.pauli import PauliWord
from iqcc.pauli_sum import to_json_dict

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture()
def runner():
    return CliRunner()


def _strip_volatile(report: dict) -> dict:
    """Drop wall-clock fields so reports can be compared byte for byte."""
    report = json.loads(json.dumps(report))
    report["manifest"].pop("timestamps", None)

    def scrub(node):
        if isinstance(node, dict):
            node.pop("wall_time_s", None)
            for v in node.values():
                scrub(v)
        elif isinstance(node, list):
            for v in node:
                scrub(v)

    scrub(report)
    return report


class TestTransform:
    def test_h2(self, runner, tmp_path):
        out = tmp_path / "h2.json"
        result = runner.invoke(
            main, ["transform", str(FIXTURES / "h2.fcidump"), "-o", str(out)]
        )
        assert result.exit_code == 0, result.output
        data = json.loads(out.read_text())
        assert data["n_qubits"] == 4
        assert len(data["terms"]) == 15  # recorded at fixture creation
        assert data["n_electrons"] == 2
        assert data["manifest"]["input"]["sha256"]

    def test_missing_file(self, runner):
        result = runner.invoke(main, ["transform", "/nonexistent.fcidump"])
        assert result.exit_code == 2

    def test_lih_cas_window(self, runner, tmp_path):
        out = tmp_path / "lih_cas.json"
        result = runner.invoke(
            main,
            ["transform", str(FIXTURES / "lih.fcidump"),
             "--active-occ", "1", "--active-virt", "1", "-o", str(out)],
        )
        assert result.exit_code == 0, result.output
        data = json.loads(out.read_text())
        assert data["n_qubits"] == 4
        assert data["n_electrons"] == 2

    def test_window_flags_must_pair(self, runner):
        result = runner.invoke(
            main, ["transform", str(FIXTURES / "h2.fcidump"), "--active-occ", "1"]
        )
        assert result.exit_code == 2


class TestRun:
    def test_h2_defaults(self, runner, tmp_path):
        out = tmp_path / "run.json"
        csv = tmp_path / "traj.csv"
        result = runner.invoke(
            main,
            ["run", str(FIXTURES / "h2.fcidump"), "--generators", "1",
             "-o", str(out), "--csv", str(csv)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        assert report["result"]["converged"] is True
        assert report["manifest"]["config"]["generators_per_iteration"] == 1
        assert csv.read_text().startswith(
            "iteration,energy,energy_with_pt,term_count,dropped_weight"
        )

    def test_max_iterations_zero(self, runner, tmp_path):
        out = tmp_path / "run.json"
        result = runner.invoke(
            main,
            ["run", str(FIXTURES / "h2.fcidump"), "--max-iterations", "0",
             "-o", str(out)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        assert report["result"]["n_iterations"] == 0
        assert report["result"]["final_energy"] == report["result"]["initial_energy"]

    def test_capacity_abort_exit_code(self, runner):
        result = runner.invoke(
            main,
            ["run", str(FIXTURES / "h4.fcidump"), "--memory-budget", "50"],
        )
        assert result.exit_code == 1  # domain error: distinct from 0 and 2

    def test_qubit_json_input_needs_electrons(self, runner, tmp_path):
        ham = tmp_path / "h.json"
        ham.write_text(json.dumps(to_json_dict(pack([(PauliWord.identity(2), 1.0)], 2))))
        result = runner.invoke(main, ["run", str(ham)])
        assert result.exit_code == 2

    def test_qubit_json_over_64_qubits_rejected(self, runner, tmp_path):
        ham = tmp_path / "wide.json"
        wide = {"n_qubits": 65, "terms": [{"word": "Z0", "coeff": 0.5},
                                          {"word": "X0 X64", "coeff": 0.2}]}
        ham.write_text(json.dumps(wide))
        result = runner.invoke(main, ["run", str(ham), "--n-electrons", "2"])
        assert result.exit_code == 1  # domain error, raised at load
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert "error: 65 qubits exceeds the 64-qubit bound" in result.output

    def test_config_file_with_flag_override(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"generators_per_iteration": 2, "mu": 0.1}))
        out = tmp_path / "run.json"
        result = runner.invoke(
            main,
            ["run", str(FIXTURES / "h2.fcidump"), "--config", str(cfg),
             "--generators", "1", "-o", str(out)],
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads(out.read_text())["manifest"]
        assert manifest["config"]["generators_per_iteration"] == 1  # flag wins
        assert manifest["config"]["mu"] == 0.1

    @pytest.mark.parametrize(
        "data", [{"enable_pt": "false"}, {"max_evaluations": 1.7}], ids=["bool", "int"]
    )
    def test_config_value_of_wrong_json_type(self, runner, tmp_path, data):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        result = runner.invoke(
            main, ["run", str(FIXTURES / "h2.fcidump"), "--config", str(cfg)]
        )
        assert result.exit_code == 2
        assert f"config key {next(iter(data))!r}" in result.output

    def test_config_int_for_float_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prune_threshold": 0}))
        value = _resolve_config(str(cfg), {})["prune_threshold"]
        assert value == 0.0 and isinstance(value, float)

    @pytest.mark.parametrize(
        "flag, value",
        [("--prune-threshold", "nan"), ("--prune-threshold", "inf"),
         ("--energy-convergence", "nan"), ("--mu", "nan"), ("--spin", "-inf")],
    )
    def test_non_finite_flag_rejected(self, runner, flag, value):
        result = runner.invoke(main, ["run", str(FIXTURES / "h2.fcidump"), flag, value])
        assert result.exit_code == 1
        assert "finite" in result.output

    @pytest.mark.parametrize("key", ["prune_threshold", "gradient_tolerance", "mu"])
    def test_non_finite_config_value_rejected(self, runner, tmp_path, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"{key}": NaN}}')
        result = runner.invoke(
            main, ["run", str(FIXTURES / "h2.fcidump"), "--config", str(cfg)]
        )
        assert result.exit_code == 1
        assert "finite" in result.output

    def test_unknown_importance_measure_rejected_before_load(
        self, runner, tmp_path, monkeypatch
    ):
        def no_load(*args):
            raise AssertionError("the input was read")

        monkeypatch.setattr(cli, "_load_problem", no_load)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"importance_measure": "foo"}))
        result = runner.invoke(
            main, ["run", str(FIXTURES / "h2.fcidump"), "--config", str(cfg)]
        )
        assert result.exit_code == 1
        assert "unknown importance measure 'foo'" in result.output

    def test_unknown_config_key(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        result = runner.invoke(
            main, ["run", str(FIXTURES / "h2.fcidump"), "--config", str(cfg)]
        )
        assert result.exit_code == 2


    def test_unconverged_optimizer_recorded(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_evaluations": 1}))
        out = tmp_path / "run.json"
        csv = tmp_path / "traj.csv"
        result = runner.invoke(
            main,
            ["run", str(FIXTURES / "h4.fcidump"), "--generators", "4",
             "--max-iterations", "3", "--config", str(cfg),
             "-o", str(out), "--csv", str(csv)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        iterations = report["result"]["iterations"]
        assert [it["optimizer_converged"] for it in iterations] == [False] * 3
        # why each stopped: gradient still above the 1e-8 tolerance, and
        # scipy's message (the evaluation cap here)
        assert all(it["optimizer_gradient_norm"] > 1e-8 for it in iterations)
        assert all(it["optimizer_message"] for it in iterations)
        header = csv.read_text().splitlines()[0]
        assert "converged" not in header and "optimized" not in header
        # rows the optimizer saw after the coset filter: some, and never more
        # than the sum entering the iteration
        entering = [len(jordan_wigner(load_fcidump(FIXTURES / "h4.fcidump")))]
        entering += [it["term_count"] for it in iterations[:-1]]
        assert all(0 < it["optimized_terms"] <= n for it, n in zip(iterations, entering))
        # of those, the rows an evaluation replays after the live cut
        assert all(0 < it["evaluated_terms"] <= it["optimized_terms"] for it in iterations)
        # the flags stay out of the digest
        digest = report["manifest"]["determinism"]["numeric_digest"]
        assert digest.startswith("3d267d57d76fda22")

    @pytest.mark.parametrize(
        "argv, prefix",
        [
            (["run", "lih.fcidump", "--generators", "8", "--energy-convergence", "1e-6",
              "--max-iterations", "4"], "98898a0c3d1f6956"),
            (["gap", "h4.fcidump", "--generators", "4"], "11a3e44d2b65db0c"),
        ],
        ids=["lih_ground", "h4_gap"],
    )
    def test_benchmark_command_digest(self, runner, tmp_path, argv, prefix):
        # the lih_ground and h4_gap benchmark commands keep their trajectories
        out = tmp_path / "report.json"
        argv = [argv[0], str(FIXTURES / argv[1])] + argv[2:] + ["-o", str(out)]
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, result.output
        digest = json.loads(out.read_text())["manifest"]["determinism"]["numeric_digest"]
        assert digest.startswith(prefix)

    @pytest.mark.parametrize(
        "fixture, n_terms, prefix",
        [("lih.fcidump", 631, "4db72b1b01d706fe"), ("h4.fcidump", 185, "e68e6be5505215d2")],
    )
    def test_transform_digest(self, runner, tmp_path, fixture, n_terms, prefix):
        # the Jordan-Wigner output, word by word and coefficient by coefficient
        out = tmp_path / "h.json"
        result = runner.invoke(main, ["transform", str(FIXTURES / fixture), "-o", str(out)])
        assert result.exit_code == 0, result.output
        data = json.loads(out.read_text())
        assert len(data["terms"]) == n_terms
        assert data["manifest"]["determinism"]["numeric_digest"].startswith(prefix)


class TestConfigDefaults:
    def test_defaults_build_the_default_config(self):
        assert _iqcc_config(_resolve_config(None, {})) == IqccConfig()

    def test_config_keys(self):
        assert _CONFIG_KEYS == {
            "generators_per_iteration": int,
            "max_iterations": int,
            "energy_convergence": float,
            "prune_threshold": float,
            "mu": float,
            "spin": float,
            "enable_pt": bool,
            "memory_budget_terms": int,
            "importance_measure": str,
            "rank_on_bare": bool,
            "gradient_tolerance": float,
            "max_evaluations": int,
            "memory_depth": int,
        }


class TestImports:
    def test_cli_import_leaves_scipy_optimize_unloaded(self):
        # the optimizer imports scipy.optimize when it runs, not at import
        package_root = str(Path(iqcc.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        code = "import sys, iqcc.cli; print('scipy.optimize' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                             capture_output=True, text=True)
        assert out.stdout.strip() == "False"


class TestGap:
    def test_h2_gap_report(self, runner, tmp_path, reference_values):
        out = tmp_path / "gap.json"
        result = runner.invoke(
            main,
            ["gap", str(FIXTURES / "h2.fcidump"), "--generators", "2",
             "-o", str(out), "--csv-prefix", str(tmp_path / "t")],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        oracle_gap = (
            reference_values["h2"]["fci_triplet"] - reference_values["h2"]["fci_singlet"]
        )
        assert abs(report["result"]["gap_ev"] / 27.211386245988 - oracle_gap) < 2e-5
        assert (tmp_path / "t_singlet.csv").exists()
        assert (tmp_path / "t_triplet.csv").exists()
        assert report["manifest"]["config"]["mu"] == 0.25  # protocol default

    @pytest.mark.parametrize("flags, mu", [([], 0.5), (["--mu", "0.3"], 0.3)],
                             ids=["file", "flag"])
    def test_mu_from_config_file(self, runner, tmp_path, monkeypatch, flags, mu):
        # the 0.25 default sits below the file, the file below the flag
        penalties = []
        real = driver.run_iqcc

        def spy(h, ref, cfg):
            penalties.append(cfg.penalty)
            return real(h, ref, cfg)

        monkeypatch.setattr(driver, "run_iqcc", spy)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mu": 0.5, "max_iterations": 1}))
        out = tmp_path / "gap.json"
        result = runner.invoke(
            main,
            ["gap", str(FIXTURES / "h2.fcidump"), "--generators", "1",
             "--config", str(cfg), "-o", str(out), *flags],
        )
        assert result.exit_code == 0, result.output
        config = json.loads(out.read_text())["manifest"]["config"]
        assert config["mu"] == mu and config["max_iterations"] == 1
        assert [(p.mu, p.s) for p in penalties] == [(mu, 0.0), (mu, 1.0)]

    def test_negative_mu_rejected(self, runner):
        result = runner.invoke(
            main, ["gap", str(FIXTURES / "h2.fcidump"), "--mu", "-0.5"]
        )
        assert result.exit_code == 2


class TestOracle:
    def test_identity_hamiltonian(self, runner, tmp_path):
        ham = tmp_path / "id.json"
        ham.write_text(json.dumps(to_json_dict(pack([(PauliWord.identity(2), -0.25)], 2))))
        result = runner.invoke(main, ["oracle", str(ham)])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["energy"] == pytest.approx(-0.25, abs=1e-12)

    def test_h2_fci(self, runner, tmp_path, reference_values):
        ham = tmp_path / "h2.json"
        runner.invoke(
            main, ["transform", str(FIXTURES / "h2.fcidump"), "-o", str(ham)]
        )
        result = runner.invoke(main, ["oracle", str(ham)])
        assert result.exit_code == 0
        energy = json.loads(result.output)["energy"]
        assert abs(energy - reference_values["h2"]["fci_energy"]) < 1e-9

    def test_sector_flag(self, runner, tmp_path, reference_values):
        ham = tmp_path / "h2.json"
        runner.invoke(
            main, ["transform", str(FIXTURES / "h2.fcidump"), "-o", str(ham)]
        )
        result = runner.invoke(main, ["oracle", str(ham), "--sector", "1,1"])
        assert result.exit_code == 0
        energy = json.loads(result.output)["energy"]
        assert abs(energy - reference_values["h2"]["fci_triplet"]) < 1e-9

    def test_capacity_error(self, runner, tmp_path):
        ham = tmp_path / "big.json"
        ham.write_text(json.dumps(to_json_dict(pack([(PauliWord.identity(20), 1.0)], 20))))
        result = runner.invoke(main, ["oracle", str(ham)])
        assert result.exit_code == 1

    def test_bad_sector_usage(self, runner, tmp_path):
        ham = tmp_path / "id.json"
        ham.write_text(json.dumps(to_json_dict(pack([(PauliWord.identity(2), 1.0)], 2))))
        result = runner.invoke(main, ["oracle", str(ham), "--sector", "banana"])
        assert result.exit_code == 2


class TestEstimate:
    def test_from_run_report(self, runner, tmp_path):
        out = tmp_path / "run.json"
        runner.invoke(
            main,
            ["run", str(FIXTURES / "h2.fcidump"), "--generators", "1", "-o", str(out)],
        )
        result = runner.invoke(main, ["estimate", str(out)])
        assert result.exit_code == 0
        data = json.loads(result.output)
        # two iterations, one weight-4 entangler each: 2 * 2*(4-1) = 12 CNOTs
        assert data["rz_count"] == data["entangler_count"]
        assert data["cnot_count"] == sum(
            2 * 3 for _ in range(data["entangler_count"])
        )

    def test_empty_report(self, runner, tmp_path):
        report = tmp_path / "empty.json"
        report.write_text(json.dumps({"result": {"iterations": []}}))
        result = runner.invoke(main, ["estimate", str(report)])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data == {"cnot_count": 0, "rz_count": 0, "entangler_count": 0}


    def test_from_gap_report(self, runner, tmp_path):
        out = tmp_path / "gap.json"
        runner.invoke(
            main,
            ["gap", str(FIXTURES / "h2.fcidump"), "--generators", "2", "-o", str(out)],
        )
        result = runner.invoke(main, ["estimate", str(out)])
        assert result.exit_code == 0
        gap = json.loads(out.read_text())["result"]
        blocks = [gap[state]["resource_estimate"] for state in ("singlet", "triplet")]
        rz = sum(b["rz_count"] for b in blocks)
        assert json.loads(result.output) == {
            "cnot_count": sum(b["cnot_count"] for b in blocks),
            "rz_count": rz,
            "entangler_count": rz,
        }

    def test_malformed_word(self, runner, tmp_path):
        report = tmp_path / "bad.json"
        iteration = {"selected_generators": [{"word": "Q0 X1"}]}
        report.write_text(json.dumps({"result": {"iterations": [iteration]}}))
        result = runner.invoke(main, ["estimate", str(report)])
        assert result.exit_code == 1
        assert "unparseable Pauli word" in result.output


class TestDeterminism:
    def test_repeated_run_reports_identical(self, runner, tmp_path):
        outs = []
        for i in range(2):
            out = tmp_path / f"run{i}.json"
            result = runner.invoke(
                main,
                ["run", str(FIXTURES / "h2.fcidump"), "--generators", "2",
                 "-o", str(out)],
            )
            assert result.exit_code == 0
            outs.append(json.loads(out.read_text()))
        a, b = (_strip_volatile(r) for r in outs)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        digests = [r["manifest"]["determinism"]["numeric_digest"] for r in outs]
        assert digests[0] == digests[1]

    def test_digest_independent_of_float_type(self, h2_problem):
        # the digests hash each float's bits, not its repr, which differs
        # between numpy and Python floats of equal value
        from dataclasses import replace

        import numpy as np

        from iqcc.cli import _digest_gap, _digest_run
        from iqcc.driver import gap_from_runs, run_iqcc

        _, h, ref = h2_problem
        res = run_iqcc(h, ref, IqccConfig(generators_per_iteration=2))
        assert res.records

        def retyped(r, kind):
            records = tuple(
                replace(rec, energy=kind(rec.energy), energy_with_pt=kind(rec.energy_with_pt),
                        dropped_weight=kind(rec.dropped_weight))
                for rec in r.records
            )
            return replace(r, records=records, initial_energy=kind(r.initial_energy),
                           final_energy=kind(r.final_energy),
                           final_energy_with_pt=kind(r.final_energy_with_pt))

        as_float, as_numpy = retyped(res, float), retyped(res, np.float64)
        assert repr(as_float.initial_energy) != repr(as_numpy.initial_energy)
        assert _digest_run(as_float) == _digest_run(as_numpy)
        assert _digest_gap(gap_from_runs(as_float, as_float)) == _digest_gap(
            gap_from_runs(as_numpy, as_numpy)
        )
