import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import iqcc
from iqcc import cli, driver
from iqcc.cli import _CONFIG_KEYS, _resolve_config, main
from iqcc._packed import pack
from iqcc.driver import IqccConfig
from iqcc.fcidump import load_fcidump, select_cas
from iqcc.mapping import jordan_wigner, spin_operators
from iqcc.oracle import spin_resolved_spectrum
from iqcc.pauli import PauliWord
from iqcc.pauli_sum import from_json_dict, to_json_dict

from helpers import fcidump_text, random_symmetric_integrals

FIXTURES = Path(__file__).parent / "fixtures"
SYNTH = Path(__file__).parent.parent / "bench" / "synth.py"


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
            mi = select_cas(mi, *window)
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
    "negative_ms2": {"ms2": -2},
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
    "negative_ms2": "ms2 -2 must be >= 0",
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
        ham.write_text(json.dumps(to_json_dict(pack([(PauliWord(0, 0, 2), 1.0)], 2))))
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
         ("--energy-convergence", "nan"), ("--mu", "nan"), ("--mu", "inf")],
    )
    def test_non_finite_flag_rejected(self, runner, flag, value):
        result = runner.invoke(main, ["run", str(FIXTURES / "h2.fcidump"), flag, value])
        assert result.exit_code == 1
        assert "finite" in result.output

    @pytest.mark.parametrize("key", ["prune_threshold", "mu"])
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
        # s(s+1) is the same for s and -s-1: a reference of MS2 -2 would run
        # a singlet penalty; the target is the reference's, whose MS2 is >= 0
        ms2 = int(2 * float(spin))
        result = runner.invoke(
            main, ["run", str(FIXTURES / "h2.fcidump"), "--ms2", str(ms2), "--mu", "0.25"]
        )
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [f"error: ms2={ms2} must be >= 0"]

    def test_unknown_config_key(self, runner, tmp_path):
        # rank_on_bare, enable_pt, memory_depth, importance_measure,
        # gradient_tolerance and spin were keys once: an old config file that
        # still has one is a usage error like any unknown key
        for key in ("bogus", "rank_on_bare", "enable_pt", "memory_depth",
                    "importance_measure", "gradient_tolerance", "spin"):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: True}))
            result = runner.invoke(
                main, ["run", str(FIXTURES / "h2.fcidump"), "--config", str(cfg)]
            )
            assert result.exit_code == 2
            assert f"unknown config keys: ['{key}']" in result.output

    # the ranking-source pair, the PT pair and the ranking measure, all removed
    @pytest.mark.parametrize("flag", ["--rank-on-bare", "--rank-on-penalized", "--pt", "--no-pt",
                                      "--importance-measure"])
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

    def test_synth_transform_command_digest(self, runner, tmp_path):
        # the synth_transform benchmark command: 24 qubits, 336,721 Pauli
        # rows over many expansion blocks, reduced to 7,537 terms
        spec = importlib.util.spec_from_file_location("bench_synth", SYNTH)
        synth = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(synth)
        path = tmp_path / "synth.fcidump"
        synth.write_fcidump(path, 12, 8, 1)
        out = tmp_path / "h.json"
        result = runner.invoke(main, ["transform", str(path), "-o", str(out)])
        assert result.exit_code == 0, result.output
        data = json.loads(out.read_text())
        assert len(data["terms"]) == 7537
        assert data["manifest"]["determinism"]["numeric_digest"].startswith("840d3fdd449c6efb")

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


class TestInconsistentSpin:
    @pytest.mark.parametrize("header", ["&FCI NORB=2,NELEC=3,MS2=2,", "&FCI NORB=2,NELEC=1,MS2=3,"],
                             ids=["parity", "above_nelec"])
    @pytest.mark.parametrize("command", ["transform", "run"])
    def test_rejected_at_load(self, runner, tmp_path, command, header):
        # no determinant has these electron and spin counts; a transform
        # would write a qubit JSON that run rejects after the mapping
        path = _fixture_with_header(tmp_path, "h2", header)
        out = tmp_path / "out.json"
        result = runner.invoke(main, [command, str(path), "-o", str(out)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        nelec, ms2 = (int(part.split("=")[1]) for part in header.split(",")[1:3])
        assert result.output.splitlines() == [f"error: MS2 {ms2} inconsistent with NELEC {nelec}"]
        assert "Traceback" not in result.output
        assert not out.exists()


class TestNegativeMs2:
    @pytest.mark.parametrize(
        "command, name, window",
        [("transform", "h2", None), ("run", "h2", None), ("gap", "h2", None),
         ("transform", "lih", (1, 2)), ("gap", "lih", (1, 2))],
        ids=["transform", "run", "gap", "transform_window", "gap_window"],
    )
    def test_rejected_at_load(self, runner, tmp_path, command, name, window):
        # the reference holds the majority spin in its alpha orbitals; a
        # window of MS2 -2 would put the Fermi level at the minority spin
        norb, nelec = {"h2": (2, 2), "lih": (6, 4)}[name]
        path = _fixture_with_header(tmp_path, name, f"&FCI NORB={norb},NELEC={nelec},MS2=-2,")
        out = tmp_path / "out.json"
        result = runner.invoke(main, _window_argv(command, path, window, out))
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == ["error: MS2 -2 must be >= 0"]
        assert not out.exists()


class TestPenaltyTarget:
    """The penalty targets the reference's own spin (H4, L=4): the MS2 of
    ``--ms2``, with the header's 4 electrons unless ``--n-electrons`` is given."""

    @pytest.mark.parametrize(
        "mu, flags, want",
        [
            ("0.25", ["--ms2", "0"], "fci_singlet"),
            ("0.25", ["--ms2", "2"], "fci_triplet"),
            ("0.25", ["--ms2", "4"], "MS2 4"),
            ("0.25", ["--ms2", "1", "--n-electrons", "3"], "MS2 1"),
            ("0", ["--ms2", "4"], "quintet"),
        ],
        ids=["singlet", "triplet", "quintet", "doublet", "quintet_unpenalized"],
    )
    def test_final_energy(self, runner, tmp_path, monkeypatch, reference_values, mu, flags, want):
        ranked = []
        real = driver.rank_generators

        def spy(*args):
            ranked.append(args)
            return real(*args)

        monkeypatch.setattr(driver, "rank_generators", spy)
        out = tmp_path / "run.json"
        result = runner.invoke(main, ["run", str(FIXTURES / "h4.fcidump"), "--generators", "4",
                                      "--mu", mu, *flags, "-o", str(out)])
        if want.startswith("MS2"):
            # rejected before the first iteration
            assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
            assert result.output.splitlines() == [
                f"error: the spin penalty targets MS2 0 or 2, not the reference's {want}"
            ]
            assert ranked == [] and not out.exists()
            return
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        if want == "quintet":
            # four alpha electrons in four orbitals: the one quintet determinant
            h = jordan_wigner(load_fcidump(FIXTURES / "h4.fcidump"))
            target = spin_resolved_spectrum(h, *spin_operators(8), (2.0, 2.0))
            assert target == pytest.approx(-0.9660440, abs=1e-7)
        else:
            target = reference_values["h4"][want]
        assert abs(report["result"]["final_energy"] - target) < 2e-5
        assert report["manifest"]["config"]["ms2"] == int(flags[1])


class TestOverflowingIntegrals:
    @pytest.mark.parametrize("command", ["transform", "run"])
    def test_rejected(self, runner, tmp_path, command):
        # finite integrals whose identity coefficient overflows: a transform
        # would write "coeff": Infinity and a run report inf energies
        path = tmp_path / "overflow.fcidump"
        path.write_text(
            "&FCI NORB=2,NELEC=2,MS2=0,\n&END\n"
            "1.7e308 1 1 0 0\n1.7e308 2 2 0 0\n0.0 0 0 0 0\n"
        )
        out = tmp_path / "out.json"
        result = runner.invoke(main, [command, str(path), "-o", str(out)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert "error: non-finite coefficient inf on I" in result.output
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

    @pytest.mark.parametrize(
        "command, option, name",
        [("run", "-o", "out.json"), ("run", "--csv", "t.csv"), ("gap", "-o", "g.json"),
         ("gap", "--csv-prefix", "t"), ("transform", "-o", "out.json")],
        ids=["run_output", "run_csv", "gap_output", "gap_csv_prefix", "transform_output"],
    )
    def test_unwritable_directory_rejected_before_load(
        self, runner, tmp_path, monkeypatch, command, option, name
    ):
        # mode bits do not stop root from writing, so the check itself is
        # made to fail: the directory of the one path looks unwritable
        calls = []
        monkeypatch.setattr(cli, "load_fcidump", lambda *args: calls.append(args))
        monkeypatch.setattr(cli, "run_iqcc", lambda *args: calls.append(args))
        monkeypatch.setattr(driver, "run_iqcc", lambda *args: calls.append(args))
        locked = tmp_path / "locked"
        locked.mkdir()
        real_access = os.access
        monkeypatch.setattr(
            os, "access", lambda p, mode: real_access(p, mode) and os.fspath(p) != str(locked)
        )
        path = str(locked / name)
        result = runner.invoke(main, [command, str(FIXTURES / "h2.fcidump"), option, path])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert f"directory {str(locked)!r} of {path!r} is not writable" in result.output
        assert "Traceback" not in result.output
        assert calls == [] and list(locked.iterdir()) == []

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


def _window_argv(command: str, path, window, out) -> list[str]:
    """``command`` on ``path`` with the CAS window flags (occ, virt) where given."""
    flags = ["--active-occ", str(window[0]), "--active-virt", str(window[1])] if window else []
    extra = ["--generators", "4"] if command == "gap" else []
    return [command, str(path), *flags, *extra, "-o", str(out)]


def _fixture_with_header(tmp_path, name: str, header: str) -> Path:
    """The fixture ``name`` with its first line replaced by ``header``."""
    lines = (FIXTURES / f"{name}.fcidump").read_text().splitlines(keepends=True)
    path = tmp_path / f"{name}_edited.fcidump"
    path.write_text(header + "\n" + "".join(lines[1:]))
    return path


class TestCasWindowCommands:
    """``transform`` and ``gap`` through --active-occ/--active-virt."""

    def test_transform_digest(self, runner, tmp_path):
        # the frozen-core window of LiH: 6 qubits, 2 active electrons
        out = tmp_path / "h.json"
        result = runner.invoke(main, _window_argv("transform", FIXTURES / "lih.fcidump", (1, 2), out))
        assert result.exit_code == 0, result.output
        data = json.loads(out.read_text())
        assert len(data["terms"]) == 62
        assert data["manifest"]["determinism"]["numeric_digest"].startswith("784f7b66d12516e4")

    def test_gap_digest(self, runner, tmp_path):
        out = tmp_path / "gap.json"
        result = runner.invoke(main, _window_argv("gap", FIXTURES / "lih.fcidump", (1, 2), out))
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        assert len(report["result"]["singlet"]["iterations"]) == 2
        assert len(report["result"]["triplet"]["iterations"]) == 1
        assert report["manifest"]["determinism"]["numeric_digest"].startswith("a88f7e1c3778dbe0")

    @pytest.mark.parametrize("window", [None, (1, 2)], ids=["full", "cas"])
    def test_gap_manifest_records_window(self, runner, tmp_path, window):
        # the window is part of what a replay of the report needs
        out = tmp_path / "gap.json"
        argv = _window_argv("gap", FIXTURES / "lih.fcidump", window, out)
        result = runner.invoke(main, [*argv, "--max-iterations", "1"])
        assert result.exit_code == 0, result.output
        config = json.loads(out.read_text())["manifest"]["config"]
        want = window or (None, None)
        assert (config["active_occ"], config["active_virt"]) == want

    @pytest.mark.parametrize("command", ["transform", "gap"])
    @pytest.mark.parametrize(
        "header, window, message",
        [
            (None, (3, 1), "only 2 occupied orbitals available"),
            (None, (1, 9), "only 4 virtual orbitals available"),
            (None, (-1, 1), "window sizes must be non-negative"),
            (None, (0, 0), "empty active space"),
            # a triplet H2 header: no doubly occupied orbital to freeze
            ("&FCI NORB=2,NELEC=2,MS2=2,", (1, 0), "frozen orbitals must be doubly occupied"),
            # NELEC and MS2 of different parity: rejected at load, before
            # the window is cut
            ("&FCI NORB=2,NELEC=3,MS2=2,", (1, 0), "MS2 2 inconsistent with NELEC 3"),
        ],
        ids=["occ_3", "virt_9", "negative", "empty", "open_shell_frozen", "odd_parity"],
    )
    def test_bad_window_rejected(self, runner, tmp_path, command, header, window, message):
        path = FIXTURES / "lih.fcidump"
        if header:
            path = _fixture_with_header(tmp_path, "h2", header)
        out = tmp_path / "out.json"
        result = runner.invoke(main, _window_argv(command, path, window, out))
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["transform", "gap"])
    def test_lone_flag_rejected_before_load(self, runner, tmp_path, command):
        # a usage error, before the file (which would not parse) is read
        path = tmp_path / "bad.fcidump"
        path.write_text("not an FCIDUMP\n")
        result = runner.invoke(main, [command, str(path), "--active-occ", "1"])
        assert result.exit_code == 2
        assert "--active-occ and --active-virt must be given together" in result.output
        assert "Traceback" not in result.output


class TestConfigDefaults:
    def test_defaults_build_the_default_config(self):
        assert IqccConfig(**_resolve_config(None, {})) == IqccConfig()

    def test_config_keys(self):
        assert _CONFIG_KEYS == {
            "generators_per_iteration": int,
            "max_iterations": int,
            "energy_convergence": float,
            "prune_threshold": float,
            "mu": float,
            "memory_budget_terms": int,
            "max_evaluations": int,
        }
        # one field per key, and no other
        assert set(_CONFIG_KEYS) == {f.name for f in fields(IqccConfig)}


class TestImports:
    def test_cli_import_leaves_scipy_optimize_unloaded(self, tmp_path):
        # neither importing the cli nor a gap or a run loads scipy.optimize,
        # scipy.linalg or scipy.sparse: the optimizer loads scipy's compiled
        # L-BFGS-B kernel on its own
        package_root = str(Path(iqcc.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        commands = [
            ["gap", str(FIXTURES / "h2.fcidump"), "--generators", "2", "-o", str(tmp_path / "g.json")],
            ["run", str(FIXTURES / "h4.fcidump"), "-o", str(tmp_path / "r.json")],
        ]
        loaded = "print(*(m in sys.modules for m in ('scipy.optimize', 'scipy.linalg', 'scipy.sparse')))"
        for code in (
            f"import sys, iqcc.cli\n{loaded}",
            f"import sys, iqcc.cli\nfor argv in {commands!r}:\n"
            f"    iqcc.cli.main(argv, standalone_mode=False)\n{loaded}",
        ):
            out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                                 capture_output=True, text=True)
            assert out.stdout.splitlines()[-1] == "False False False"
        assert (tmp_path / "g.json").exists() and (tmp_path / "r.json").exists()


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
        h = jordan_wigner(select_cas(mi, 1, 2))
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
            penalties.append((cfg.mu, ref.occupation))
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
        # one config for both runs: the references set the targets
        assert penalties == [(mu, 0b0011), (mu, 0b0101)]

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_spin_rejected(self, runner, tmp_path, monkeypatch, source):
        # the reference's MS2 is the one spin input: --spin and a spin key are
        # usage errors, raised before any run
        runs = []
        monkeypatch.setattr(driver, "run_iqcc", lambda *args: runs.append(args))
        monkeypatch.setattr(cli, "run_iqcc", lambda *args: runs.append(args))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"spin": 1.0} if source == "file" else {}))
        flags = ["--spin", "1"] if source == "flag" else []
        for command in ("gap", "run"):
            result = runner.invoke(
                main, [command, str(FIXTURES / "h2.fcidump"), "--config", str(cfg), *flags]
            )
            assert result.exit_code == 2
            want = "No such option" if source == "flag" else "unknown config keys: ['spin']"
            assert want in result.output and "spin" in result.output
            assert "Traceback" not in result.output
        assert runs == []

    @pytest.mark.parametrize("command", ["gap", "run"])
    def test_spin_in_manifest_of_run_only(self, runner, tmp_path, command):
        # a run records the electron count and MS2 of its reference, which
        # the penalty targets; a gap runs MS2 0 and 2, and records neither
        out = tmp_path / "report.json"
        result = runner.invoke(
            main,
            [command, str(FIXTURES / "h2.fcidump"), "--generators", "1",
             "--max-iterations", "1", "-o", str(out)],
        )
        assert result.exit_code == 0, result.output
        config = json.loads(out.read_text())["manifest"]["config"]
        assert "spin" not in config
        spin = {key: config[key] for key in ("n_electrons", "ms2") if key in config}
        assert spin == ({"n_electrons": 2, "ms2": 0} if command == "run" else {})

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
        ham.write_text(json.dumps(to_json_dict(pack([(PauliWord(0, 0, 2), -0.25)], 2))))
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
        ham.write_text(json.dumps(to_json_dict(pack([(PauliWord(0, 0, 20), 1.0)], 20))))
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
        ham.write_text(json.dumps(to_json_dict(pack([(PauliWord(0, 0, 2), 1.0)], 2))))
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
