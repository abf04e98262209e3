"""Command-line frontend: transform, run, gap, oracle, estimate.

Exit codes: 0 success, 1 domain error, 2 usage error.  Every command that
produces a report embeds a manifest (input hash, resolved config, tool
version) so a run can be replayed bit-identically; timestamps and wall times
live in dedicated fields so the numeric payload can be compared byte for
byte.  The engine itself is free of random state; the only environment
influence is BLAS threading inside the oracle, which does not touch the
iQCC numerics.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import click

from . import __version__
from ._packed import MAX_QUBITS
from .driver import (
    GapResult,
    IqccConfig,
    RunResult,
    resource_estimate,
    run_iqcc,
    singlet_triplet_gap,
    trajectory_csv,
)
from .errors import IqccError, IterationAbort
from .fcidump import MolecularIntegrals, load_fcidump, select_cas
from .mapping import jordan_wigner, reference_state, spin_operators
from .pauli import parse_word
# to_json_dict stays bound here, where bench/spans.py times it
from .pauli_sum import _json_key, from_json_dict, terms_json, to_json_dict

# the config keys are IqccConfig's fields
_DEFAULTS = asdict(IqccConfig())
_CONFIG_KEYS = {key: type(value) for key, value in _DEFAULTS.items()}
# JSON types a config-file value may have; never a bool, though it subclasses int
_JSON_TYPES = {int: int, float: (int, float)}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}

    def one_value_per_key(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise click.UsageError(f"config file {path} repeats the key {key!r}")
            seen.add(key)
        return dict(pairs)

    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=one_value_per_key)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise click.UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise click.UsageError(f"config file {path} needs a JSON object: {data!r:.80}")
    unknown = set(data) - set(_CONFIG_KEYS)
    if unknown:
        raise click.UsageError(f"unknown config keys: {sorted(unknown)}")
    for key, value in data.items():
        kind = _CONFIG_KEYS[key]
        if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
            raise click.UsageError(f"config key {key!r} needs a JSON {kind.__name__}: {value!r}")
    return {k: _CONFIG_KEYS[k](v) for k, v in data.items()}


def _resolve_config(config_path: str | None, overrides: dict, **command_defaults):
    """Defaults, then the command's own defaults, then the file, then flags."""
    given = _load_config_file(config_path)
    given.update({k: v for k, v in overrides.items() if v is not None})
    return {**_DEFAULTS, **command_defaults, **given}


def _manifest(input_path: Path, config: dict, started: str, digest: str | None) -> dict:
    return {
        "tool": "iqcc",
        "version": __version__,
        "input": {"path": str(input_path), "sha256": _sha256(input_path)},
        "config": dict(sorted(config.items())),
        "determinism": {
            "random_free": True,
            "numeric_digest": digest,
        },
        "timestamps": {"started": started, "finished": _now()},
    }


def _write_json(data: dict, output: str | None) -> None:
    _write_text(json.dumps(data, indent=2), output)


def _write_text(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text + "\n", encoding="utf-8")
    else:
        click.echo(text)


def _hex_payload(records, *values: float) -> str:
    """The trajectory's numbers and ``values``, each float as ``float.hex``:
    the bits, whatever the scalar type that holds them."""
    lines = [
        f"{r.index},{float.hex(r.energy)},{float.hex(r.energy_with_pt)},"
        f"{r.term_count},{float.hex(r.dropped_weight)}\n"
        for r in records
    ]
    return "".join(lines) + ",".join(map(float.hex, values)) + "\n"


def _digest_run(result: RunResult) -> str:
    payload = _hex_payload(
        result.records, result.initial_energy, result.final_energy, result.final_energy_with_pt
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _digest_gap(result: GapResult) -> str:
    payload = _hex_payload(result.singlet.records) + _hex_payload(
        result.triplet.records,
        result.e_singlet,
        result.e_triplet,
        result.gap_ev,
        result.gap_with_pt_ev,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _load_integrals(fcidump: Path, active_occ, active_virt) -> MolecularIntegrals:
    """The FCIDUMP's integrals, cut to the CAS window of the two flags when
    they are given; a lone flag is a usage error before the file is read."""
    if (active_occ is None) != (active_virt is None):
        raise click.UsageError("--active-occ and --active-virt must be given together")
    mi = load_fcidump(fcidump)
    return mi if active_occ is None else select_cas(mi, active_occ, active_virt)


def _gap_csv_paths(prefix: str) -> list[str]:
    """The singlet and the triplet trajectory CSV of ``gap --csv-prefix``."""
    return [f"{prefix}_singlet.csv", f"{prefix}_triplet.csv"]


def _guard(fn):
    """Map domain errors to exit code 1 (usage errors exit 2 via click), after
    rejecting an output path in a missing or unwritable directory, or one
    that is a directory, before any work is done."""

    def wrapper(*args, **kwargs):
        for path in filter(None, map(kwargs.get, ("output", "csv_path", "csv_prefix"))):
            directory = os.path.dirname(path) or "."
            if not os.path.isdir(directory):
                raise click.UsageError(f"no directory {os.path.dirname(path)!r} for {path!r}")
            if not os.access(directory, os.W_OK):
                raise click.UsageError(f"directory {directory!r} of {path!r} is not writable")
        # click checks -o and --csv against a directory; the prefix names two files
        prefix = kwargs.get("csv_prefix")
        for path in _gap_csv_paths(prefix) if prefix else ():
            if os.path.isdir(path):
                raise click.UsageError(f"output path {path!r} is a directory")
        try:
            return fn(*args, **kwargs)
        except IterationAbort as exc:
            click.echo(f"error: {exc} ({len(exc.records)} iterations completed)", err=True)
            sys.exit(1)
        except (IqccError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


@click.group()
@click.version_option(version=__version__)
def main():
    """Iterative qubit coupled cluster electronic-structure engine."""


@main.command()
@click.argument("fcidump", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--active-occ", type=int, default=None, help="occupied orbitals kept active")
@click.option("--active-virt", type=int, default=None, help="virtual orbitals kept active")
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
@_guard
def transform(fcidump, active_occ, active_virt, output):
    """FCIDUMP -> qubit Hamiltonian JSON (with electron-count metadata)."""
    started = _now()
    mi = _load_integrals(fcidump, active_occ, active_virt)
    h = jordan_wigner(mi)
    # the terms are a function of the arrays: hash those, in key order, little-endian
    arrays = (h.x.astype("<u8"), h.z.astype("<u8"), h.c.astype("<f8"))
    data = {"n_qubits": h.n_qubits, "terms": [], "n_electrons": mi.n_electrons,
            "ms2": mi.ms2, "core_energy": mi.core_energy}
    data["manifest"] = _manifest(
        fcidump,
        {"active_occ": active_occ, "active_virt": active_virt},
        started,
        hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest(),
    )
    # the terms text takes the place of the empty list: the first top-level
    # '"terms": []', as a string value escapes its quotes
    text = json.dumps(data, indent=2)
    _write_text(text.replace('\n  "terms": []', '\n  "terms": ' + terms_json(h), 1), output)


def _load_problem(input_path: Path, n_electrons, ms2):
    """Hamiltonian, electron count and MS2 of the reference from either
    FCIDUMP or qubit-JSON input; a flag overrides the input's value."""
    text = input_path.read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        data = json.loads(text)
        h = from_json_dict(data)
        n_e = n_electrons if n_electrons is not None else data.get("n_electrons")
        m = ms2 if ms2 is not None else data.get("ms2", 0)
        if n_e is None:
            raise click.UsageError("qubit-JSON input needs --n-electrons")
    else:
        mi = load_fcidump(input_path)
        h = jordan_wigner(mi)
        n_e = n_electrons if n_electrons is not None else mi.n_electrons
        m = ms2 if ms2 is not None else mi.ms2
    return h, n_e, m


_RUN_OPTIONS = [
    click.option("--generators", "generators_per_iteration", type=int, default=None,
                 help="generators per iteration (L <= 16)"),
    click.option("--max-iterations", type=int, default=None),
    click.option("--energy-convergence", type=float, default=None),
    click.option("--prune-threshold", type=float, default=None),
    click.option("--mu", type=float, default=None, help="spin penalty strength"),
    click.option("--memory-budget", "memory_budget_terms", type=int, default=None),
    click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
                 default=None, help="JSON config file mirroring these flags"),
]


def _with_run_options(fn):
    for opt in reversed(_RUN_OPTIONS):
        fn = opt(fn)
    return fn


@main.command()
@click.argument("input_path", metavar="INPUT", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--n-electrons", type=int, default=None)
@click.option("--ms2", type=int, default=None)
@_with_run_options
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None)
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
@_guard
def run(input_path, n_electrons, ms2, csv_path, output, config_path, **overrides):
    """One iQCC run on an FCIDUMP or qubit-Hamiltonian JSON."""
    started = _now()
    resolved = _resolve_config(config_path, overrides)
    cfg = IqccConfig(**resolved)
    h, n_e, m = _load_problem(input_path, n_electrons, ms2)
    # the penalty targets the reference's spin, so the manifest records it
    result = run_iqcc(h, reference_state(n_e, h.n_qubits, m), cfg)
    config = {**resolved, "n_electrons": n_e, "ms2": m}
    report = {
        "manifest": _manifest(input_path, config, started, _digest_run(result)),
        "result": result.to_json_dict(),
    }
    if csv_path:
        Path(csv_path).write_text(trajectory_csv(result.records), encoding="utf-8")
    _write_json(report, output)


@main.command()
@click.argument("fcidump", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--active-occ", type=int, default=None)
@click.option("--active-virt", type=int, default=None)
@_with_run_options
@click.option("--csv-prefix", type=str, default=None,
              help="write <prefix>_singlet.csv and <prefix>_triplet.csv")
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
@_guard
def gap(fcidump, active_occ, active_virt, csv_prefix, output, config_path, **overrides):
    """Singlet/triplet gap: two penalized runs over the same integrals."""
    started = _now()
    resolved = _resolve_config(config_path, overrides, mu=0.25)
    cfg = IqccConfig(**resolved)
    mi = _load_integrals(fcidump, active_occ, active_virt)
    result = singlet_triplet_gap(mi, cfg)
    # the window is recorded as transform records it, null without flags
    config = {**resolved, "active_occ": active_occ, "active_virt": active_virt}
    report = {
        "manifest": _manifest(fcidump, config, started, _digest_gap(result)),
        "result": result.to_json_dict(),
    }
    if csv_prefix:
        for path, run_result in zip(_gap_csv_paths(csv_prefix), (result.singlet, result.triplet)):
            Path(path).write_text(trajectory_csv(run_result.records), encoding="utf-8")
    _write_json(report, output)


@main.command()
@click.argument("hamiltonian", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--sector", type=str, default=None,
              help="spin sector as 's,ms' with s >= 0 and |ms| <= s (e.g. '1,1'); "
                   "default: ground state")
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
@_guard
def oracle(hamiltonian, sector, output):
    """Exact-diagonalization oracle on a qubit-Hamiltonian JSON.

    Without --sector: the ground state.  With it: the lowest state of that
    spin sector, diagonalized one (N, m_s) block of determinants at a time.
    Both run up to 16 qubits.
    """
    from .oracle import ground_state, spin_resolved_spectrum

    data = json.loads(hamiltonian.read_text(encoding="utf-8"))
    h = from_json_dict(data)
    if sector is None:
        energy, _ = ground_state(h)
        _write_json({"energy": energy, "n_qubits": h.n_qubits}, output)
        return
    try:
        s_str, ms_str = sector.split(",")
        s, ms = float(s_str), float(ms_str)
    except ValueError:
        raise click.UsageError("--sector must look like '1,1'")
    s_squared, s_z = spin_operators(h.n_qubits)
    energy = spin_resolved_spectrum(h, s_squared, s_z, (s, ms))
    _write_json({"energy": energy, "s": s, "m_s": ms, "n_qubits": h.n_qubits}, output)


@main.command()
@click.argument("report", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
@_guard
def estimate(report, output):
    """Circuit resource summary (CNOT/RZ) from a run or gap report."""
    data = json.loads(report.read_text(encoding="utf-8"))
    result = _json_key(data, "result", "a report")
    runs = (
        [_json_key(result, state, "a gap result") for state in ("singlet", "triplet")]
        if isinstance(result, dict) and "singlet" in result
        else [result]
    )
    cnot, rz = resource_estimate(
        parse_word(_json_key(gen, "word", "a selected generator"), MAX_QUBITS)
        for run_data in runs
        for it in _json_key(run_data, "iterations", "a run result", list)
        for gen in _json_key(it, "selected_generators", "an iteration", list)
    )
    _write_json({"cnot_count": cnot, "rz_count": rz, "entangler_count": rz}, output)


if __name__ == "__main__":
    main()
