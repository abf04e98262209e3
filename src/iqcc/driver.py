"""The outer iQCC loop and the singlet/triplet gap workflow.

Each iteration decomposes the current Hamiltonian, ranks one canonical
generator per X-string block, warm-starts the top L amplitudes from the
closed-form estimates, and plans the dressing of the rows in the span of
those generators' x masks (``coset_plan``).  It minimizes the QCC energy on
that plan, cut to the rows an evaluation reads (``live_plan``), then folds
the optimized Ansatz into the Hamiltonian by exact dressing: the plan
replayed once at the optimum, merged with the dressing of the rows outside
the span, which no evaluation needed.  It then prunes numerically dead
terms and (optionally) adds a perturbative estimate of the energy still
recoverable from the generators that were not selected.  The reference
state never changes.  The Hamiltonian is a ``PackedSum`` from the mapping
through every stage and into ``RunResult.final_hamiltonian``.

The perturbative correction is the sum of exact per-generator lowerings
Delta_E = D/2 - sqrt((D/2)^2 + omega^2) over the non-selected generators,
with omega and D recomputed against the freshly dressed Hamiltonian; the
next iteration ranks on those same block statistics.  Every dressing step
checks the term budget before it allocates its rows.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import _packed
from .engine import (
    IMPORTANCE_MEASURES,
    MAX_GENERATORS,
    Ansatz,
    RankedGenerator,
    block_ranking_data,
    coset_plan,
    estimate_amplitude,
    qcc_energy_and_gradient,
    rank_generators,
)
from .errors import CapacityError, IterationAbort, OptimizationError
from .fcidump import CASWindow, MolecularIntegrals, select_cas
from .mapping import SpinPenalty, jordan_wigner, penalize, reference_state
from .optimizer import OptimizationConfig, OptimizationResult, minimize
from .pauli_sum import ReferenceState, dress_sequence, prune

HARTREE_TO_EV = 27.211386245988  # CODATA


@dataclass(frozen=True)
class IqccConfig:
    generators_per_iteration: int = 8
    max_iterations: int = 100
    energy_convergence: float = 1e-5  # Hartree
    prune_threshold: float = 1e-10
    penalty: SpinPenalty = field(default_factory=SpinPenalty)
    enable_pt: bool = True
    memory_budget_terms: int = 50_000_000
    importance_measure: str = "amplitude"
    # rank against the bare Hamiltonian instead of the penalized operator
    # actually being minimized (a parallel bare copy is then dressed along)
    rank_on_bare: bool = False
    optimizer: OptimizationConfig = field(default_factory=OptimizationConfig)

    def __post_init__(self):
        if not 1 <= self.generators_per_iteration <= MAX_GENERATORS:
            raise CapacityError(
                f"generators_per_iteration outside 1..{MAX_GENERATORS}"
            )
        # chained comparisons are False for NaN, so NaN is rejected too
        if not 0 < self.energy_convergence < math.inf:
            raise ValueError("energy_convergence must be positive and finite")
        if not 0 <= self.prune_threshold < math.inf:
            raise ValueError("prune_threshold must be finite and >= 0")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if self.memory_budget_terms <= 0:
            raise ValueError("memory_budget_terms must be positive")
        if self.importance_measure not in IMPORTANCE_MEASURES:
            raise ValueError(f"unknown importance measure {self.importance_measure!r}")


@dataclass(frozen=True)
class IterationRecord:
    index: int
    energy: float
    energy_with_pt: float
    amplitudes: tuple[float, ...]
    term_count: int
    dropped_weight: float
    wall_time: float
    # L-BFGS status: gradient tolerance met, gradient inf-norm at the returned
    # point, scipy's stop message; kept out of the trajectory CSV and digest
    optimizer_converged: bool
    optimizer_gradient_norm: float
    optimizer_message: str
    selected_generators: tuple[RankedGenerator, ...] = ()
    optimizer_evaluations: int = 0
    # rows of the sum in the generators' coset, which the iteration planned
    optimized_terms: int = 0
    # of those, the rows an optimizer evaluation replays (``live_plan``)
    evaluated_terms: int = 0

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "energy": self.energy,
            "energy_with_pt": self.energy_with_pt,
            "amplitudes": list(self.amplitudes),
            "term_count": self.term_count,
            "dropped_weight": self.dropped_weight,
            "selected_generators": [g.to_json_dict() for g in self.selected_generators],
            "optimizer_evaluations": self.optimizer_evaluations,
            "optimized_terms": self.optimized_terms,
            "evaluated_terms": self.evaluated_terms,
            "optimizer_converged": self.optimizer_converged,
            "optimizer_gradient_norm": self.optimizer_gradient_norm,
            "optimizer_message": self.optimizer_message,
            "wall_time_s": self.wall_time,
        }


@dataclass(frozen=True)
class RunResult:
    records: tuple[IterationRecord, ...]
    ansatz_history: tuple[Ansatz, ...]
    initial_energy: float
    final_energy: float
    final_energy_with_pt: float
    converged: bool
    reference: ReferenceState
    final_hamiltonian: _packed.PackedSum

    @property
    def total_dropped_weight(self) -> float:
        return sum(r.dropped_weight for r in self.records)

    def to_json_dict(self) -> dict:
        cnot, rz = resource_estimate(self.ansatz_history)
        return {
            "initial_energy": self.initial_energy,
            "final_energy": self.final_energy,
            "final_energy_with_pt": self.final_energy_with_pt,
            "converged": self.converged,
            "n_iterations": len(self.records),
            "final_term_count": len(self.final_hamiltonian),
            "total_dropped_weight": self.total_dropped_weight,
            "resource_estimate": {"cnot_count": cnot, "rz_count": rz},
            "iterations": [r.to_json_dict() for r in self.records],
        }


def pt_correction(
    blocks: list[tuple[int, float, float]], remainder: list[RankedGenerator]
) -> float:
    """Sum of exact per-generator lowerings over non-selected generators.

    omega and D are read from ``blocks``, the ``block_ranking_data`` of the
    current, freshly dressed Hamiltonian; every summand is <= 0.
    """
    if not remainder:
        return 0.0
    stats = {x: (w, d) for x, w, d in blocks}
    total = 0.0
    for gen in remainder:
        signed, d_val = stats.get(gen.generator.x, (0.0, 0.0))
        _, delta_e = estimate_amplitude(signed, d_val)
        total += delta_e
    return total


def _optimize(
    plan: _packed.DressPlan, base: Ansatz, ref: ReferenceState, cfg: OptimizationConfig
) -> tuple[OptimizationResult, int]:
    """L-BFGS over the amplitudes of ``base``, started at its own; also
    returns the number of input rows an evaluation replays.

    Each evaluation replays ``plan`` cut to the rows that reach the diagonal
    (``live_plan``), which gives the same numbers as ``plan`` itself.  The
    cut lives only for this call.
    """
    live = _packed.live_plan(plan)

    def value_and_gradient(t):
        e, g = qcc_energy_and_gradient(live, base.with_amplitudes(t), ref)
        return e, np.asarray(g)

    return minimize(value_and_gradient, np.array(base.amplitudes), cfg), len(live)


def run_iqcc(h0: _packed.PackedSum, ref: ReferenceState, cfg: IqccConfig) -> RunResult:
    """Iterate rank -> optimize -> dress -> prune -> correct until converged.

    Stops when the energy change drops to ``cfg.energy_convergence``, when no
    off-diagonal blocks remain, or at ``cfg.max_iterations``.  Numeric
    failures and capacity overruns raise :class:`IterationAbort` carrying the
    partial trajectory.
    """
    h = penalize(h0, cfg.penalty) if cfg.penalty.mu > 0 else h0
    e_prev = initial_energy = _packed.expectation_packed(h, ref)
    # optional parallel bare copy when ranking is decoupled from the penalty
    track_bare = cfg.rank_on_bare and cfg.penalty.mu > 0
    h_bare = h0 if track_bare else None
    budget = cfg.memory_budget_terms
    # the block statistics of the sum ranked against, computed once per sum:
    # the PT of one iteration and the ranking of the next share them
    blocks = None
    records: list[IterationRecord] = []
    history: list[Ansatz] = []
    converged = False

    for index in range(1, cfg.max_iterations + 1):
        started = time.perf_counter()
        if blocks is None:
            blocks = block_ranking_data(h_bare if track_bare else h, ref)
        selected, remainder = rank_generators(
            blocks, h.n_qubits, cfg.generators_per_iteration, cfg.importance_measure
        )
        if not selected:
            converged = True
            break

        base = Ansatz([(g.generator, g.t_estimate) for g in selected])
        try:
            plan, outside = coset_plan(h, base.generators, budget)
        except CapacityError as exc:
            raise IterationAbort(f"{exc} at iteration {index}", records=records) from exc
        optimized_terms = len(plan)
        try:
            opt, evaluated_terms = _optimize(plan, base, ref, cfg.optimizer)
        except OptimizationError as exc:
            raise IterationAbort(
                f"optimizer failed at iteration {index}: {exc}", records=records
            ) from exc

        ansatz = base.with_amplitudes(opt.t_opt)
        # the coset's dressing is the plan's replay; the plan is freed before
        # the rows outside the coset are dressed one generator at a time, and
        # both parts once they are merged
        coset = _packed.run_plan(plan, ansatz.amplitudes)
        del plan
        try:
            h = _packed.merge(coset, dress_sequence(outside, ansatz, budget))
            del coset, outside
            if len(h) > budget:
                raise CapacityError(f"term count {len(h)} exceeds budget {budget}")
            h, dropped = prune(h, cfg.prune_threshold)
            if track_bare:
                h_bare, _ = prune(dress_sequence(h_bare, ansatz, budget), cfg.prune_threshold)
        except CapacityError as exc:
            raise IterationAbort(f"{exc} at iteration {index}", records=records) from exc
        blocks = block_ranking_data(h_bare if track_bare else h, ref) if cfg.enable_pt else None
        pt = pt_correction(blocks, remainder) if cfg.enable_pt else 0.0
        energy = opt.energy

        history.append(ansatz)
        records.append(
            IterationRecord(
                index=index,
                energy=energy,
                energy_with_pt=energy + pt,
                amplitudes=ansatz.amplitudes,
                term_count=len(h),
                dropped_weight=dropped,
                wall_time=time.perf_counter() - started,
                optimizer_converged=opt.converged,
                optimizer_gradient_norm=opt.gradient_norm,
                optimizer_message=opt.message,
                selected_generators=tuple(selected),
                optimizer_evaluations=opt.evaluations,
                optimized_terms=optimized_terms,
                evaluated_terms=evaluated_terms,
            )
        )
        if abs(energy - e_prev) <= cfg.energy_convergence:
            converged = True
            break
        e_prev = energy

    final_energy = records[-1].energy if records else initial_energy
    final_pt = records[-1].energy_with_pt if records else initial_energy
    return RunResult(
        records=tuple(records),
        ansatz_history=tuple(history),
        initial_energy=initial_energy,
        final_energy=final_energy,
        final_energy_with_pt=final_pt,
        converged=converged,
        reference=ref,
        final_hamiltonian=h,
    )


# -- singlet/triplet gap ----------------------------------------------------


@dataclass(frozen=True)
class GapResult:
    e_singlet: float
    e_triplet: float
    e_singlet_with_pt: float
    e_triplet_with_pt: float
    gap_ev: float
    gap_with_pt_ev: float
    singlet: RunResult
    triplet: RunResult

    @property
    def trajectories(self) -> tuple[tuple[IterationRecord, ...], tuple[IterationRecord, ...]]:
        return (self.singlet.records, self.triplet.records)

    def to_json_dict(self) -> dict:
        return {
            "e_singlet": self.e_singlet,
            "e_triplet": self.e_triplet,
            "e_singlet_with_pt": self.e_singlet_with_pt,
            "e_triplet_with_pt": self.e_triplet_with_pt,
            "gap_ev": self.gap_ev,
            "gap_with_pt_ev": self.gap_with_pt_ev,
            "hartree_to_ev": HARTREE_TO_EV,
            "singlet": self.singlet.to_json_dict(),
            "triplet": self.triplet.to_json_dict(),
        }


def gap_from_runs(singlet: RunResult, triplet: RunResult) -> GapResult:
    return GapResult(
        e_singlet=singlet.final_energy,
        e_triplet=triplet.final_energy,
        e_singlet_with_pt=singlet.final_energy_with_pt,
        e_triplet_with_pt=triplet.final_energy_with_pt,
        gap_ev=(triplet.final_energy - singlet.final_energy) * HARTREE_TO_EV,
        gap_with_pt_ev=(triplet.final_energy_with_pt - singlet.final_energy_with_pt)
        * HARTREE_TO_EV,
        singlet=singlet,
        triplet=triplet,
    )


def singlet_triplet_gap(
    mi: MolecularIntegrals,
    window: CASWindow | None,
    cfg: IqccConfig,
) -> GapResult:
    """Two penalized runs over the same integrals: s=0 closed shell, s=1 ROHF.

    The penalty strength is shared (``cfg.penalty.mu``); the spin quantum
    number is overridden per state.  The gap is reported in eV.
    """
    if window is not None:
        mi = select_cas(mi, window)
    if mi.n_electrons % 2:
        raise ValueError("gap workflow needs an even electron count")
    h_bare = jordan_wigner(mi)
    n_qubits = 2 * mi.n_spatial
    mu = cfg.penalty.mu

    ref_s = reference_state(mi.n_electrons, n_qubits, ms2=0)
    ref_t = reference_state(mi.n_electrons, n_qubits, ms2=2)
    run_s = run_iqcc(h_bare, ref_s, replace(cfg, penalty=SpinPenalty(mu=mu, s=0.0)))
    run_t = run_iqcc(h_bare, ref_t, replace(cfg, penalty=SpinPenalty(mu=mu, s=1.0)))
    return gap_from_runs(run_s, run_t)


# -- bookkeeping ------------------------------------------------------------


def resource_estimate(ansatz_history) -> tuple[int, int]:
    """(CNOT count, RZ count) for the standard ladder decomposition.

    Each exponentiated generator of weight w costs 2(w - 1) CNOTs and one RZ.
    """
    cnot = 0
    rz = 0
    for ansatz in ansatz_history:
        for gen, _t in ansatz:
            cnot += 2 * (gen.weight() - 1)
            rz += 1
    return cnot, rz


def trajectory_csv(records) -> str:
    """Convergence trajectory as CSV (iteration, energies, size, drops)."""
    lines = ["iteration,energy,energy_with_pt,term_count,dropped_weight"]
    for r in records:
        lines.append(
            f"{r.index},{r.energy!r},{r.energy_with_pt!r},"
            f"{r.term_count},{r.dropped_weight!r}"
        )
    return "\n".join(lines) + "\n"
