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
import sys
from dataclasses import fields
from pathlib import Path

import click

from . import __version__
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
from .fcidump import CASWindow, load_fcidump, select_cas
from .mapping import SpinPenalty, jordan_wigner, reference_state, spin_operators
from .optimizer import OptimizationConfig
from .pauli import parse_word
from .pauli_sum import MAX_QUBITS, from_json_dict, to_json_dict

# IqccConfig fields that are nested sections; their fields are flat config
# keys, the penalty's as mu/spin
_SECTIONS = ("penalty", "optimizer")
_OPTIMIZER_KEYS = tuple(f.name for f in fields(OptimizationConfig))


def _flat_config(cfg: IqccConfig) -> dict:
    flat = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name not in _SECTIONS}
    flat.update(mu=cfg.penalty.mu, spin=cfg.penalty.s)
    flat.update({key: getattr(cfg.optimizer, key) for key in _OPTIMIZER_KEYS})
    return flat


_DEFAULTS = _flat_config(IqccConfig())
_CONFIG_KEYS = {key: type(value) for key, value in _DEFAULTS.items()}
# JSON types a config-file value may have; a JSON bool only for a bool key
_JSON_TYPES = {bool: bool, int: int, float: (int, float), str: str}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    unknown = set(data) - set(_CONFIG_KEYS)
    if unknown:
        raise click.UsageError(f"unknown config keys: {sorted(unknown)}")
    for key, value in data.items():
        kind = _CONFIG_KEYS[key]
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, _JSON_TYPES[kind]):
            raise click.UsageError(f"config key {key!r} needs a JSON {kind.__name__}: {value!r}")
    return {k: _CONFIG_KEYS[k](v) for k, v in data.items()}


def _resolve_config(config_path: str | None, overrides: dict, **command_defaults) -> dict:
    """Defaults, then the command's own defaults, then the file, then flags."""
    resolved = dict(_DEFAULTS, **command_defaults)
    resolved.update(_load_config_file(config_path))
    resolved.update({k: v for k, v in overrides.items() if v is not None})
    return resolved


def _iqcc_config(resolved: dict) -> IqccConfig:
    return IqccConfig(
        **{f.name: resolved[f.name] for f in fields(IqccConfig) if f.name not in _SECTIONS},
        penalty=SpinPenalty(mu=resolved["mu"], s=resolved["spin"]),
        optimizer=OptimizationConfig(**{key: resolved[key] for key in _OPTIMIZER_KEYS}),
    )


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
    text = json.dumps(data, indent=2)
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


def _window_from_flags(mi, active_occ, active_virt) -> CASWindow | None:
    if active_occ is None and active_virt is None:
        return None
    if active_occ is None or active_virt is None:
        raise click.UsageError("--active-occ and --active-virt must be given together")
    return CASWindow.from_counts(mi, active_occ, active_virt)


def _guard(fn):
    """Map domain errors to exit code 1 (usage errors exit 2 via click)."""

    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except IterationAbort as exc:
            click.echo(f"error: {exc} ({len(exc.records)} iterations completed)", err=True)
            sys.exit(1)
        except IqccError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        except ValueError as exc:
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
    mi = load_fcidump(fcidump)
    window = _window_from_flags(mi, active_occ, active_virt)
    if window is not None:
        mi = select_cas(mi, window)
    h = jordan_wigner(mi)
    data = to_json_dict(h)
    data["n_electrons"] = mi.n_electrons
    data["ms2"] = mi.ms2
    data["core_energy"] = mi.core_energy
    data["manifest"] = _manifest(
        fcidump,
        {"active_occ": active_occ, "active_virt": active_virt},
        started,
        hashlib.sha256(json.dumps(data["terms"]).encode()).hexdigest(),
    )
    _write_json(data, output)


def _load_problem(input_path: Path, n_electrons, ms2):
    """Hamiltonian + reference from either FCIDUMP or qubit-JSON input."""
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
    ref = reference_state(n_e, h.n_qubits, ms2=m)
    return h, ref


_RUN_OPTIONS = [
    click.option("--generators", "generators_per_iteration", type=int, default=None,
                 help="generators per iteration (L <= 16)"),
    click.option("--max-iterations", type=int, default=None),
    click.option("--energy-convergence", type=float, default=None),
    click.option("--prune-threshold", type=float, default=None),
    click.option("--mu", type=float, default=None, help="spin penalty strength"),
    click.option("--spin", type=float, default=None, help="target spin quantum number"),
    click.option("--pt/--no-pt", "enable_pt", default=None,
                 help="perturbative correction from non-selected generators"),
    click.option("--memory-budget", "memory_budget_terms", type=int, default=None),
    click.option("--importance-measure", type=click.Choice(["amplitude", "gradient"]),
                 default=None),
    click.option("--rank-on-bare/--rank-on-penalized", "rank_on_bare", default=None,
                 help="derive generators from the bare instead of the penalized operator"),
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
    cfg = _iqcc_config(resolved)
    h, ref = _load_problem(input_path, n_electrons, ms2)
    result = run_iqcc(h, ref, cfg)
    report = {
        "manifest": _manifest(input_path, resolved, started, _digest_run(result)),
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
    if resolved["mu"] < 0:
        raise click.UsageError("--mu must be >= 0")
    cfg = _iqcc_config(resolved)
    mi = load_fcidump(fcidump)
    window = _window_from_flags(mi, active_occ, active_virt)
    result = singlet_triplet_gap(mi, window, cfg)
    report = {
        "manifest": _manifest(fcidump, resolved, started, _digest_gap(result)),
        "result": result.to_json_dict(),
    }
    if csv_prefix:
        Path(f"{csv_prefix}_singlet.csv").write_text(
            trajectory_csv(result.singlet.records), encoding="utf-8"
        )
        Path(f"{csv_prefix}_triplet.csv").write_text(
            trajectory_csv(result.triplet.records), encoding="utf-8"
        )
    _write_json(report, output)


@main.command()
@click.argument("hamiltonian", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--sector", type=str, default=None,
              help="spin sector as 's,ms' (e.g. '1,1'); default: ground state")
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
@_guard
def oracle(hamiltonian, sector, output):
    """Exact-diagonalization oracle on a qubit-Hamiltonian JSON."""
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
    result = data.get("result", data)
    runs = (
        [result["singlet"], result["triplet"]]
        if "singlet" in result
        else [result]
    )
    # one ansatz per iteration; resource_estimate reads only the generators
    history = [
        [(parse_word(gen["word"], MAX_QUBITS), 0.0) for gen in it.get("selected_generators", [])]
        for run_data in runs
        for it in run_data.get("iterations", [])
    ]
    cnot, rz = resource_estimate(history)
    _write_json({"cnot_count": cnot, "rz_count": rz, "entangler_count": rz}, output)


if __name__ == "__main__":
    main()
