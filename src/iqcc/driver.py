"""The outer iQCC loop and the singlet/triplet gap workflow.

A run holds one Hamiltonian, the penalized sum being minimized: ranking,
optimizer and PT all read it.  Each iteration decomposes it into its block
statistics (``_packed.block_statistics``), ranks one canonical generator
per X-string block on those arrays, warm-starts the top L amplitudes from
the closed-form estimates, splits off the rows in the span of those
generators' x masks (``_packed.span_split``) and plans their dressing
(``_packed.plan_chain``).  It minimizes the QCC energy on that plan, cut to
the rows an evaluation reads in the reference state (``live_plan``): each
L-BFGS evaluation is ``qcc_energy_and_gradient(cut, amplitudes)``, and the
cut carries its reference signs.  It then folds the optimized entanglers
into the Hamiltonian by exact dressing: the plan replayed once at the
optimum, merged with the dressing of the rows outside the span, which no
evaluation needed.  It then prunes numerically dead terms and adds a
perturbative estimate of the energy still recoverable from the generators
that were not selected.  Each stage frees the sum it read once the next one
holds its rows: the split frees the Hamiltonian, the plan the rows it
planned, each generator's step on the outside rows the step before it, and
``_packed.merge`` places the two dressed parts without a sort.  The
reference state never changes.  The Hamiltonian is a ``PackedSum`` from the
mapping through every stage and into ``RunResult.final_hamiltonian``.

The records are the one account of what a run applied: record r applied
exp(-i t T / 2), T = ``g.generator``, for each (g, t) in order in
``zip(r.selected_generators, r.amplitudes)``.

The perturbative correction is the sum of exact per-generator lowerings
Delta_E = D/2 - sqrt((D/2)^2 + omega^2) over the non-selected generators,
with omega and D looked up by x-support in the one ``block_statistics`` call
of the freshly dressed sum, which the next ranking reads as well.
Every dressing step and the merge check the term budget before they allocate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import _packed
from .engine import (
    MAX_GENERATORS,
    RankedGenerator,
    estimate_amplitude,
    qcc_energy_and_gradient,
    rank_generators,
)
from .errors import CapacityError, IterationAbort, OptimizationError
from .fcidump import MolecularIntegrals
from .mapping import jordan_wigner, penalize, reference_state
from .optimizer import MAX_EVALUATIONS, minimize
from .pauli_sum import dress_sequence, prune

HARTREE_TO_EV = 27.211386245988  # CODATA


@dataclass(frozen=True)
class IqccConfig:
    """The settings of a run, one field per config key.

    ``mu`` is the strength of the spin penalty (``penalize``, whose target
    is the reference's spin); ``max_evaluations`` caps the objective
    evaluations of each iteration's L-BFGS run.
    """

    generators_per_iteration: int = 8
    max_iterations: int = 100
    energy_convergence: float = 1e-5  # Hartree
    prune_threshold: float = 1e-10
    mu: float = 0.0
    memory_budget_terms: int = 50_000_000
    max_evaluations: int = MAX_EVALUATIONS

    def __post_init__(self):
        # chained comparisons are False for NaN, so NaN is rejected too
        if not 0 <= self.mu < math.inf:
            raise ValueError("penalty strength must be finite and >= 0")
        if not 1 <= self.generators_per_iteration <= MAX_GENERATORS:
            raise CapacityError(
                f"generators_per_iteration outside 1..{MAX_GENERATORS}"
            )
        if not 0 < self.energy_convergence < math.inf:
            raise ValueError("energy_convergence must be positive and finite")
        if not 0 <= self.prune_threshold < math.inf:
            raise ValueError("prune_threshold must be finite and >= 0")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if self.memory_budget_terms <= 0:
            raise ValueError("memory_budget_terms must be positive")
        if self.max_evaluations <= 0:
            raise ValueError("max_evaluations must be positive")


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
    initial_energy: float
    final_energy: float
    final_energy_with_pt: float
    converged: bool
    reference: _packed.ReferenceState
    final_hamiltonian: _packed.PackedSum

    @property
    def total_dropped_weight(self) -> float:
        return sum(r.dropped_weight for r in self.records)

    def to_json_dict(self) -> dict:
        cnot, rz = resource_estimate(
            g.generator for r in self.records for g in r.selected_generators
        )
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
    blocks: tuple[np.ndarray, np.ndarray, np.ndarray], remainder: np.ndarray
) -> float:
    """Sum of exact per-generator lowerings over non-selected generators,
    whose x-supports ``remainder`` lists in rank order (``rank_generators``).

    omega and D are read from ``blocks``, the ``_packed.block_statistics`` of
    the current, freshly dressed Hamiltonian; a support with no block there
    adds nothing: one ``searchsorted`` of the sorted supports and an
    equality test find the blocks.  Summed in rank order, every summand <= 0.
    """
    xs, omega_signed, d_values = blocks
    at = np.searchsorted(xs, remainder)
    found = at[np.append(xs, np.uint64(0))[at] == remainder]  # no block has x == 0
    total = 0.0
    for w, d in zip(omega_signed[found].tolist(), d_values[found].tolist()):
        total += estimate_amplitude(w, d)[1]
    return total


def run_iqcc(h0: _packed.PackedSum, ref: _packed.ReferenceState, cfg: IqccConfig) -> RunResult:
    """Iterate rank -> optimize -> dress -> prune -> correct until converged.

    Ranking, optimizer and PT read ``h0`` penalized (``cfg.mu``, targeting
    the spin of ``ref``), the one sum being minimized, as it is dressed.
    Stops when the energy change drops to ``cfg.energy_convergence``, when
    no off-diagonal blocks remain, or at ``cfg.max_iterations``.  Numeric
    failures and capacity overruns raise :class:`IterationAbort` carrying
    the partial trajectory.
    """
    h = penalize(h0, cfg.mu, ref)
    e_prev = initial_energy = _packed.expectation_packed(h, ref)
    budget = cfg.memory_budget_terms
    blocks = _packed.block_statistics(h, ref)
    records: list[IterationRecord] = []
    converged = False

    for index in range(1, cfg.max_iterations + 1):
        started = time.perf_counter()
        selected, remainder = rank_generators(blocks, h.n_qubits, cfg.generators_per_iteration)
        if not selected:
            converged = True
            break

        gens = tuple(g.generator for g in selected)
        try:
            # each sum is freed once the next stage holds its rows: the plan
            # keeps only the coefficients of the rows inside the span
            inside, outside = _packed.span_split(h, gens)
            del h
            plan = _packed.plan_chain(inside, gens, budget)
            del inside
            # the cut gives the plan's numbers; it lives only while L-BFGS runs
            live = _packed.live_plan(plan, ref)
            optimized_terms, evaluated_terms = len(plan), len(live)
            opt = minimize(lambda t: qcc_energy_and_gradient(live, t),
                           np.array([g.t_estimate for g in selected]), cfg.max_evaluations)
            del live
            amplitudes = tuple(opt.t_opt.tolist())
            # the coset's dressing is the plan's replay; the plan is freed
            # before the rows outside the coset are dressed, and both parts
            # once they are merged
            coset = _packed.run_plan(plan, amplitudes)
            del plan
            for pair in zip(gens, amplitudes):
                # one call per generator: one call for all L holds the undressed rows to the end
                outside = dress_sequence(outside, (pair,), budget)
            n_terms = len(coset) + len(outside)  # the rows merge allocates
            if n_terms > budget:
                raise CapacityError(f"term count {n_terms} exceeds budget {budget}")
            h = _packed.merge(coset, outside)
            del coset, outside
            h, dropped = prune(h, cfg.prune_threshold)
        except CapacityError as exc:
            raise IterationAbort(f"{exc} at iteration {index}", records=records) from exc
        except OptimizationError as exc:
            raise IterationAbort(
                f"optimizer failed at iteration {index}: {exc}", records=records
            ) from exc
        blocks = _packed.block_statistics(h, ref)
        pt = pt_correction(blocks, remainder)
        energy = opt.energy

        records.append(
            IterationRecord(
                index=index,
                energy=energy,
                energy_with_pt=energy + pt,
                amplitudes=amplitudes,
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


def singlet_triplet_gap(mi: MolecularIntegrals, cfg: IqccConfig) -> GapResult:
    """Two penalized runs over the same integrals and ``cfg``, from the
    closed-shell (MS2 0) and the ROHF (MS2 2) reference.

    A CAS gap takes integrals already cut to the window (``select_cas``).
    The gap is reported in eV.
    """
    if mi.n_electrons % 2:
        raise ValueError("gap workflow needs an even electron count")
    h = jordan_wigner(mi)
    n_qubits = 2 * mi.n_spatial

    ref_s = reference_state(mi.n_electrons, n_qubits, ms2=0)
    ref_t = reference_state(mi.n_electrons, n_qubits, ms2=2)
    run_s = run_iqcc(h, ref_s, cfg)
    run_t = run_iqcc(h, ref_t, cfg)
    return gap_from_runs(run_s, run_t)


# -- bookkeeping ------------------------------------------------------------


def resource_estimate(generators) -> tuple[int, int]:
    """(CNOT count, RZ count) of the entanglers with these generator words,
    for the standard ladder decomposition.

    Each exponentiated generator of weight w costs 2(w - 1) CNOTs and one RZ.
    """
    gens = list(generators)
    return sum(2 * (gen.weight() - 1) for gen in gens), len(gens)


def trajectory_csv(records) -> str:
    """Convergence trajectory as CSV (iteration, energies, size, drops)."""
    lines = ["iteration,energy,energy_with_pt,term_count,dropped_weight"]
    for r in records:
        lines.append(
            f"{r.index},{r.energy!r},{r.energy_with_pt!r},"
            f"{r.term_count},{r.dropped_weight!r}"
        )
    return "\n".join(lines) + "\n"
