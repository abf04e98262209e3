import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import iqcc
from iqcc import cli, driver
from iqcc.cli import _CONFIG_KEYS, _iqcc_config, _resolve_config, main
from iqcc._packed import pack
from iqcc.driver import IqccConfig
from iqcc.fcidump import CASWindow, load_fcidump, select_cas
from iqcc.mapping import jordan_wigner, spin_operators
from iqcc.oracle import spin_resolved_spectrum
from iqcc.pauli import PauliWord
from iqcc.pauli_sum import from_json_dict, to_json_dict

from helpers import fcidump_text, random_symmetric_integrals

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

    @pytest.mark.parametrize(
        "source, window",
        [("h2", None), ("h4", None), ("lih", None), ("lih", (1, 2)), ("random", None)],
        ids=["h2", "h4", "lih", "lih_cas", "random"],
    )
    def test_bytes_as_indent_2_dump(self, runner, tmp_path, source, window):
        # the terms are written from the arrays, not dumped from dicts: the
        # file and the stdout form are still the indent-2 dump of the dict
        # that to_json_dict gives, with the envelope after the terms
        path = FIXTURES / f"{source}.fcidump"
        if source == "random":
            mi = random_symmetric_integrals(3, np.random.default_rng(24), core=0.7)
            path = tmp_path / "random.fcidump"
            path.write_text(fcidump_text(mi))
        mi = load_fcidump(path)
        flags = []
        if window:
            mi = select_cas(mi, CASWindow.from_counts(mi, *window))
            flags = ["--active-occ", str(window[0]), "--active-virt", str(window[1])]
        terms = to_json_dict(jordan_wigner(mi))
        out = tmp_path / "h.json"
        to_file = runner.invoke(main, ["transform", str(path), *flags, "-o", str(out)])
        to_stdout = runner.invoke(main, ["transform", str(path), *flags])
        for result, text in ((to_file, out.read_text()), (to_stdout, to_stdout.stdout)):
            assert result.exit_code == 0, result.output
            envelope = {"n_electrons": mi.n_electrons, "ms2": mi.ms2,
                        "core_energy": mi.core_energy,
                        "manifest": json.loads(text)["manifest"]}
            assert text == json.dumps({**terms, **envelope}, indent=2) + "\n"


def _h2_json_outside_envelope(runner, tmp_path, case: str) -> Path:
    """The H2 qubit JSON with one defect that the loader must reject."""
    ham = tmp_path / "h2.json"
    runner.invoke(main, ["transform", str(FIXTURES / "h2.fcidump"), "-o", str(ham)])
    data = json.loads(ham.read_text())
    if case == "odd_y":
        data["terms"].append({"word": "X0 Y1", "coeff": 0.1})
    elif case in JSON_BAD_METADATA:
        data.update(JSON_BAD_METADATA[case])
    elif case.endswith("qubits"):
        data["n_qubits"] = JSON_BAD_VALUES[case]
    else:
        data["terms"][0]["coeff"] = JSON_BAD_VALUES[case]
    ham.write_text(json.dumps(data))
    return ham


# the value each qubit-JSON defect puts in place of n_qubits or the first
# coefficient, and the domain error it is rejected with at load
JSON_BAD_VALUES = {
    "negative_qubits": -4,
    "float_qubits": 4.9,
    "string_qubits": "4",
    "bool_qubits": True,
    "inf": float("inf"),
    "string_coeff": "0.5",
    "bool_coeff": True,
}
# the electron metadata each defect writes over the transform's
JSON_BAD_METADATA = {
    "string_electrons": {"n_electrons": "2"},
    "string_ms2": {"ms2": "0"},
    "bool_electrons": {"n_electrons": True, "ms2": 1},
}
JSON_DEFECTS = {
    "negative_qubits": "negative qubit count -4",
    "float_qubits": "n_qubits needs a JSON integer: 4.9",
    "string_qubits": "n_qubits needs a JSON integer: '4'",
    "bool_qubits": "n_qubits needs a JSON integer: True",
    "inf": "non-finite coefficient inf",
    "string_coeff": "coefficient of I needs a JSON number: '0.5'",
    "bool_coeff": "coefficient of I needs a JSON number: True",
    "odd_y": "odd y-count word X0 Y1",
    "string_electrons": "n_electrons needs a JSON integer: '2'",
    "string_ms2": "ms2 needs a JSON integer: '0'",
    "bool_electrons": "n_electrons needs a JSON integer: True",
}

# qubit JSON of a bad structure, and the start of the domain error it gives
JSON_STRUCTURE = {
    "no_terms": ({"n_qubits": 2}, "qubit JSON needs a JSON object with the key 'terms'"),
    "number_word": ({"n_qubits": 2, "terms": [{"word": 5, "coeff": 1.0}]},
                    "unparseable Pauli word 5: not a string"),
    "no_coeff": ({"n_qubits": 2, "terms": [{"word": "Z0"}]},
                 "term Z0 needs a JSON object with the key 'coeff'"),
    "list": ([1, 2], "qubit JSON needs a JSON object with the key 'n_qubits'"),
}


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

    @pytest.mark.parametrize("case", sorted(JSON_DEFECTS))
    def test_qubit_json_outside_envelope_rejected_at_load(
        self, runner, tmp_path, monkeypatch, case
    ):
        runs = []
        monkeypatch.setattr(cli, "run_iqcc", lambda *args: runs.append(args))
        ham = _h2_json_outside_envelope(runner, tmp_path, case)
        result = runner.invoke(main, ["run", str(ham), "--n-electrons", "2"])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert f"error: {JSON_DEFECTS[case]}" in result.output
        assert runs == []  # rejected before the loop starts

    # a document that is not a JSON object is read as an FCIDUMP
    @pytest.mark.parametrize("case", sorted(set(JSON_STRUCTURE) - {"list"}))
    def test_qubit_json_structure_rejected(self, runner, tmp_path, case):
        data, message = JSON_STRUCTURE[case]
        ham = tmp_path / "bad.json"
        ham.write_text(json.dumps(data))
        result = runner.invoke(main, ["run", str(ham), "--n-electrons", "2"])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert f"error: {message}" in result.output

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
        "data", [{"max_iterations": True}, {"max_evaluations": 1.7}], ids=["bool", "int"]
    )
    def test_config_value_of_wrong_json_type(self, runner, tmp_path, data):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        result = runner.invoke(
            main, ["run", str(FIXTURES / "h2.fcidump"), "--config", str(cfg)]
        )
        assert result.exit_code == 2
        assert f"config key {next(iter(data))!r}" in result.output

    @pytest.mark.parametrize(
        "data", [["mu"], 3, "mu", None], ids=["list", "number", "string", "null"]
    )
    def test_config_file_not_an_object(self, runner, tmp_path, data):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        result = runner.invoke(
            main, ["run", str(FIXTURES / "h2.fcidump"), "--config", str(cfg)]
        )
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert "needs a JSON object" in result.output

    @pytest.mark.parametrize(
        "text, message",
        [(b"{", "is not valid JSON"), (b'{"mu": 0.1', "is not valid JSON"),
         (b'{"mu": 0.1}\xff', "is not valid JSON"),
         (b'{"mu": 0.1, "mu": 0.2}', "repeats the key 'mu'")],
        ids=["open_brace", "unclosed", "not_utf8", "repeated_key"],
    )
    def test_config_file_malformed(self, runner, tmp_path, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(text)
        result = runner.invoke(
            main, ["run", str(FIXTURES / "h2.fcidump"), "--config", str(cfg)]
        )
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert f"config file {cfg} {message}" in result.output

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

    @pytest.mark.parametrize("spin", ["-1", "-0.5"])
    def test_negative_spin_rejected(self, runner, spin):
        # s(s+1) is the same for s and -s-1: -1 would run a singlet penalty
        result = runner.invoke(
            main, ["run", str(FIXTURES / "h2.fcidump"), "--spin", spin, "--mu", "0.25"]
        )
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert "error: spin must be finite and >= 0" in result.output

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
        # rank_on_bare, enable_pt and memory_depth were keys once: an old
        # config file that still has one is a usage error like any unknown key
        for key in ("bogus", "rank_on_bare", "enable_pt", "memory_depth"):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: True}))
            result = runner.invoke(
                main, ["run", str(FIXTURES / "h2.fcidump"), "--config", str(cfg)]
            )
            assert result.exit_code == 2
            assert f"unknown config keys: ['{key}']" in result.output

    # the ranking-source pair and the PT pair, both removed
    @pytest.mark.parametrize("flag", ["--rank-on-bare", "--rank-on-penalized", "--pt", "--no-pt"])
    def test_removed_ranking_flag_rejected(self, runner, flag):
        result = runner.invoke(main, ["run", str(FIXTURES / "h2.fcidump"), flag])
        assert result.exit_code == 2
        # click words the line differently across versions; both name the option
        assert "No such option" in result.output and flag in result.output


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
            (["gap", "h4.fcidump", "--generators", "4"], "a6fb5f61c13d3edf"),
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
        [("lih.fcidump", 631, "403c737e74b90a29"), ("h4.fcidump", 185, "9e89ce5e6f3f0484")],
    )
    def test_transform_digest(self, runner, tmp_path, fixture, n_terms, prefix):
        # the Jordan-Wigner output, mask by mask and coefficient by coefficient
        out = tmp_path / "h.json"
        result = runner.invoke(main, ["transform", str(FIXTURES / fixture), "-o", str(out)])
        assert result.exit_code == 0, result.output
        data = json.loads(out.read_text())
        assert len(data["terms"]) == n_terms
        assert data["manifest"]["determinism"]["numeric_digest"].startswith(prefix)

    def test_transform_serializes_once(self, runner, tmp_path, monkeypatch):
        # the digest hashes the arrays that the written terms load back to
        dumps, real_dumps = [], json.dumps
        monkeypatch.setattr(json, "dumps", lambda *a, **k: dumps.append(1) or real_dumps(*a, **k))
        out = tmp_path / "h.json"
        result = runner.invoke(main, ["transform", str(FIXTURES / "h4.fcidump"), "-o", str(out)])
        assert result.exit_code == 0, result.output
        assert len(dumps) == 1
        data = json.loads(out.read_text())
        h = from_json_dict(data)
        arrays = h.x.astype("<u8"), h.z.astype("<u8"), h.c.astype("<f8")
        digest = hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
        assert data["manifest"]["determinism"]["numeric_digest"] == digest


class TestNonFiniteCoreEnergy:
    @pytest.mark.parametrize("value", ["nan", "-inf"])
    @pytest.mark.parametrize("command", ["transform", "run", "gap"])
    def test_rejected_at_load(self, runner, tmp_path, command, value):
        # the core energy is the all-zero record; a transform would write it
        # and a coefficient as NaN, which its own loader rejects
        lines = (FIXTURES / "h2.fcidump").read_text().splitlines()
        path = tmp_path / "core.fcidump"
        path.write_text("\n".join(
            f"{value} 0 0 0 0" if line.split()[1:] == ["0"] * 4 else line for line in lines
        ) + "\n")
        out = tmp_path / "out.json"
        result = runner.invoke(main, [command, str(path), "-o", str(out)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert f"error: non-finite core energy {float(value)!r}" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()


class TestOutputDirectory:
    @pytest.mark.parametrize(
        "command, option, name",
        [("run", "-o", "out.json"), ("run", "--csv", "t.csv"),
         ("gap", "--csv-prefix", "t"), ("transform", "-o", "out.json")],
        ids=["run_output", "run_csv", "gap_csv_prefix", "transform_output"],
    )
    def test_missing_directory_rejected_before_load(
        self, runner, tmp_path, monkeypatch, command, option, name
    ):
        # a long run would otherwise finish and then fail to write its result
        calls = []
        monkeypatch.setattr(cli, "load_fcidump", lambda *args: calls.append(args))
        monkeypatch.setattr(cli, "run_iqcc", lambda *args: calls.append(args))
        missing = tmp_path / "missing"
        path = str(missing / name)
        result = runner.invoke(main, [command, str(FIXTURES / "h2.fcidump"), option, path])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert f"no directory {str(missing)!r} for {path!r}" in result.output
        assert "Traceback" not in result.output
        assert calls == []

    @pytest.mark.parametrize("state", ["singlet", "triplet"])
    def test_gap_csv_path_that_is_a_directory_rejected_before_run(
        self, runner, tmp_path, monkeypatch, state
    ):
        # the gap writes its report after the CSVs: both runs would finish
        # and the report would be lost
        calls = []
        monkeypatch.setattr(cli, "load_fcidump", lambda *args: calls.append(args))
        monkeypatch.setattr(driver, "run_iqcc", lambda *args: calls.append(args))
        (tmp_path / f"d_{state}.csv").mkdir()
        prefix, out = str(tmp_path / "d"), tmp_path / "g.json"
        result = runner.invoke(
            main, ["gap", str(FIXTURES / "h2.fcidump"), "--csv-prefix", prefix, "-o", str(out)]
        )
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert f"output path {prefix + '_' + state + '.csv'!r} is a directory" in result.output
        assert "Traceback" not in result.output
        assert calls == [] and not out.exists()


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
            "memory_budget_terms": int,
            "importance_measure": str,
            "gradient_tolerance": float,
            "max_evaluations": int,
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

    def test_lih_cas_window(self, runner, tmp_path):
        # the frozen-core window: 6 qubits, 2 active electrons per state
        out = tmp_path / "gap.json"
        result = runner.invoke(
            main,
            ["gap", str(FIXTURES / "lih.fcidump"), "--active-occ", "1", "--active-virt", "2",
             "--generators", "4", "-o", str(out)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())["result"]
        mi = load_fcidump(FIXTURES / "lih.fcidump")
        h = jordan_wigner(select_cas(mi, CASWindow.from_counts(mi, 1, 2)))
        s2, sz = spin_operators(6)
        e_s = spin_resolved_spectrum(h, s2, sz, (0.0, 0.0))
        e_t = spin_resolved_spectrum(h, s2, sz, (1.0, 1.0))
        assert abs(report["e_singlet"] - e_s) < 2e-5
        assert abs(report["e_triplet"] - e_t) < 2e-5
        assert abs(report["gap_ev"] / report["hartree_to_ev"] - (e_t - e_s)) < 2e-5

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

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_spin_rejected(self, runner, tmp_path, monkeypatch, source):
        # the gap runs s=0 and s=1 itself; a spin from the user would be ignored
        runs = []
        monkeypatch.setattr(driver, "run_iqcc", lambda *args: runs.append(args))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"spin": 3.0} if source == "file" else {}))
        flags = ["--spin", "3"] if source == "flag" else []
        result = runner.invoke(
            main, ["gap", str(FIXTURES / "h2.fcidump"), "--config", str(cfg), *flags]
        )
        assert result.exit_code == 2
        assert "'spin' is set by the command" in result.output
        assert runs == []

    @pytest.mark.parametrize("command", ["gap", "run"])
    def test_spin_in_manifest_of_run_only(self, runner, tmp_path, command):
        # a gap runs s=0 and s=1, so one resolved spin would misreport it
        out = tmp_path / "report.json"
        result = runner.invoke(
            main,
            [command, str(FIXTURES / "h2.fcidump"), "--generators", "1",
             "--max-iterations", "1", "-o", str(out)],
        )
        assert result.exit_code == 0, result.output
        config = json.loads(out.read_text())["manifest"]["config"]
        assert ("spin" in config) == (command == "run")

    def test_negative_mu_rejected(self, runner):
        result = runner.invoke(
            main, ["gap", str(FIXTURES / "h2.fcidump"), "--mu", "-0.5"]
        )
        assert result.exit_code == 1  # a domain error, as from `run`
        assert "penalty strength must be finite and >= 0" in result.output

    @pytest.mark.parametrize("command", ["gap", "run"])
    def test_negative_mu_from_config_rejected(self, runner, tmp_path, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mu": -0.5}))
        result = runner.invoke(
            main, [command, str(FIXTURES / "h2.fcidump"), "--config", str(cfg)]
        )
        assert result.exit_code == 1
        assert "penalty strength must be finite and >= 0" in result.output


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

    @pytest.mark.parametrize("sector", ["-1,0", "-2,1", "0,1", "1,-2"])
    def test_sector_outside_spin_range(self, runner, tmp_path, sector):
        # -1,0 and -2,1 would alias the singlet and the triplet
        ham = tmp_path / "h2.json"
        runner.invoke(
            main, ["transform", str(FIXTURES / "h2.fcidump"), "-o", str(ham)]
        )
        result = runner.invoke(main, ["oracle", str(ham), "--sector", sector])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert "error: spin sector needs s >= 0 and |m_s| <= s" in result.output

    def test_capacity_error(self, runner, tmp_path):
        ham = tmp_path / "big.json"
        ham.write_text(json.dumps(to_json_dict(pack([(PauliWord.identity(20), 1.0)], 20))))
        result = runner.invoke(main, ["oracle", str(ham)])
        assert result.exit_code == 1

    @pytest.mark.parametrize("case", sorted(JSON_DEFECTS))
    def test_qubit_json_outside_envelope_rejected(self, runner, tmp_path, case):
        ham = _h2_json_outside_envelope(runner, tmp_path, case)
        result = runner.invoke(main, ["oracle", str(ham)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert f"error: {JSON_DEFECTS[case]}" in result.output

    @pytest.mark.parametrize("case", sorted(JSON_STRUCTURE))
    def test_qubit_json_structure_rejected(self, runner, tmp_path, case):
        data, message = JSON_STRUCTURE[case]
        ham = tmp_path / "bad.json"
        ham.write_text(json.dumps(data))
        result = runner.invoke(main, ["oracle", str(ham)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert f"error: {message}" in result.output

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


    @pytest.mark.parametrize("command", ["run", "gap"])
    def test_from_gap_report(self, runner, tmp_path, command):
        # the report's own resource_estimate blocks; a gap report sums its runs
        out = tmp_path / "report.json"
        runner.invoke(
            main,
            [command, str(FIXTURES / "h2.fcidump"), "--generators", "2", "-o", str(out)],
        )
        result = runner.invoke(main, ["estimate", str(out)])
        assert result.exit_code == 0
        report = json.loads(out.read_text())["result"]
        runs = [report[state] for state in ("singlet", "triplet")] if command == "gap" else [report]
        blocks = [r["resource_estimate"] for r in runs]
        assert all(b["rz_count"] > 0 for b in blocks)
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

    @pytest.mark.parametrize(
        "data, message",
        [
            ([1], "a report needs a JSON object with the key 'result'"),
            ({"result": {"iterations": [3]}},
             "an iteration needs a JSON object with the key 'selected_generators'"),
            ({"result": {"singlet": 3, "triplet": []}},
             "a run result needs a JSON object with the key 'iterations'"),
            ({"result": {"singlet": {"iterations": []}}},
             "a gap result needs a JSON object with the key 'triplet'"),
            ({"result": {"iterations": 3}}, "'iterations' needs a JSON list: 3"),
            ({"result": {"iterations": [{"selected_generators": 5}]}},
             "'selected_generators' needs a JSON list: 5"),
        ],
        ids=["list", "iteration_number", "singlet_number", "no_triplet",
             "iterations_number", "generators_number"],
    )
    def test_malformed_report(self, runner, tmp_path, data, message):
        report = tmp_path / "bad.json"
        report.write_text(json.dumps(data))
        result = runner.invoke(main, ["estimate", str(report)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert f"error: {message}" in result.output

    def test_generator_without_word(self, runner, tmp_path):
        report = tmp_path / "bad.json"
        iteration = {"selected_generators": [{"omega": 0.1}]}
        report.write_text(json.dumps({"result": {"iterations": [iteration]}}))
        result = runner.invoke(main, ["estimate", str(report)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert "error: a selected generator needs a JSON object with the key 'word'" in result.output


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
