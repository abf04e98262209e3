"""Generator derivation, ranking, and the QCC energy functional.

Every X-string block of the Ising decomposition yields one canonical
generator: the lowest-index x replaced by y, giving a purely imaginary word
with a potentially non-zero gradient.  For a single generator T the energy is
an exact sinusoid

    E(t) = E0 + w sin(t) + D (1 - cos t) / 2,

where the signed w is the slope dE/dt at t = 0 (its magnitude is the omega of
the ranking formulas) and D = <0| T H T - H |0>.  The closed-form global
minimizer of that sinusoid provides both the importance measure |t| and the
warm start for the multi-generator optimization.

Energies of the full Ansatz are evaluated by exact symbolic conjugation
(dressing) of the Hamiltonian.  An optimizer evaluates one set of
generators at many amplitudes, so the Hamiltonian is first split into the
rows those generators can bring to the diagonal and the rest, and the
former are planned once (``coset_plan``); each evaluation then replays the
plan, cut to the rows that reach the diagonal, and sorts nothing.  The
energy is linear in every layer of the plan, so the gradient is one reverse
pass of the diagonal through the same plan.  The same plan, replayed once
at the optimum, dresses those rows into the next Hamiltonian.  The array
work (the block statistics of the ranking, dressing, energy and gradient)
is done by the kernels in ``_packed``; this module works on words and
scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import _packed
from ._packed import PackedSum
from .errors import CapacityError, InvalidGeneratorError
from .pauli import PauliWord, render_word
from .pauli_sum import ReferenceState

MAX_GENERATORS = 16
IMPORTANCE_MEASURES = ("amplitude", "gradient")


@dataclass(frozen=True)
class RankedGenerator:
    """A canonical generator with its ranking data."""

    generator: PauliWord
    omega: float
    omega_signed: float
    d_value: float
    t_estimate: float
    importance: float

    def to_json_dict(self) -> dict:
        return {
            "word": render_word(self.generator),
            "omega": self.omega,
            "d_value": self.d_value,
            "t_estimate": self.t_estimate,
            "importance": self.importance,
        }


class Ansatz:
    """Ordered entanglers (generator, amplitude); at most 16 of them."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: Sequence[tuple[PauliWord, float]]):
        pairs = tuple((g, float(t)) for g, t in pairs)
        if not 1 <= len(pairs) <= MAX_GENERATORS:
            raise CapacityError(
                f"ansatz length {len(pairs)} outside 1..{MAX_GENERATORS}"
            )
        for g, t in pairs:
            if g.y_count() % 2 == 0:
                raise InvalidGeneratorError(f"generator {render_word(g)} has even y-count")
            if not math.isfinite(t):
                raise ValueError("non-finite amplitude")
        self.pairs = pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[tuple[PauliWord, float]]:
        return iter(self.pairs)

    @property
    def generators(self) -> tuple[PauliWord, ...]:
        return tuple(g for g, _ in self.pairs)

    @property
    def amplitudes(self) -> tuple[float, ...]:
        return tuple(t for _, t in self.pairs)

    def with_amplitudes(self, amplitudes: Sequence[float]) -> "Ansatz":
        if len(amplitudes) != len(self.pairs):
            raise ValueError("amplitude count mismatch")
        return Ansatz(list(zip(self.generators, amplitudes)))


def derive_canonical_generator(x_string: PauliWord) -> PauliWord:
    """Replace the lowest-index x of an X-string with y."""
    if not x_string.is_x_string():
        raise InvalidGeneratorError(
            f"{render_word(x_string)} is not a non-trivial X-string"
        )
    jmin_bit = x_string.x & -x_string.x
    return PauliWord(x_string.x, jmin_bit, x_string.n_qubits)


def estimate_amplitude(omega_signed: float, d: float) -> tuple[float, float]:
    """Global minimizer of E(t) = E0 + w sin t + D (1 - cos t)/2 and its lowering.

    A two-argument arctangent covers every sign of D; the lowering is
    D/2 - sqrt((D/2)^2 + w^2) <= 0.  A vanishing omega is a stationary
    direction and returns (0, 0) by contract.
    """
    if omega_signed == 0.0:
        return 0.0, 0.0
    half_d = 0.5 * d
    t = math.atan2(half_d, omega_signed) - 0.5 * math.pi
    if t <= -math.pi:
        t += 2.0 * math.pi
    delta_e = half_d - math.hypot(half_d, omega_signed)
    return t, delta_e


def block_ranking_data(
    h: PackedSum, ref: ReferenceState
) -> list[tuple[int, float, float]]:
    """(x-support, omega_signed, D) per Ising block, deterministic order.

    A run computes this once per Hamiltonian: the PT correction of one
    iteration and the ranking of the next read the same list.
    """
    xs, omega_signed, d_vals = _packed.block_statistics(h, ref)
    return list(zip(xs.tolist(), omega_signed.tolist(), d_vals.tolist()))


def rank_generators(
    blocks: Sequence[tuple[int, float, float]],
    n_qubits: int,
    top_l: int,
    measure: str = "amplitude",
) -> tuple[list[RankedGenerator], list[RankedGenerator]]:
    """One canonical generator per Ising block of ``blocks`` (from
    ``block_ranking_data``) over ``n_qubits``, ranked by importance.

    ``measure`` selects |optimal amplitude| (default) or |gradient| = omega.
    Ties break on the deterministic word order.  Returns (top ``top_l``,
    remainder); both empty for a diagonal Hamiltonian.
    """
    if not 1 <= top_l <= MAX_GENERATORS:
        raise CapacityError(f"top_l {top_l} outside 1..{MAX_GENERATORS}")
    if measure not in IMPORTANCE_MEASURES:
        raise ValueError(f"unknown importance measure {measure!r}")
    ranked = []
    for x_support, omega_signed, d_val in blocks:
        gen = derive_canonical_generator(PauliWord(x_support, 0, n_qubits))
        t_est, _ = estimate_amplitude(omega_signed, d_val)
        importance = abs(t_est) if measure == "amplitude" else abs(omega_signed)
        ranked.append(
            RankedGenerator(gen, abs(omega_signed), omega_signed, d_val, t_est, importance)
        )
    ranked.sort(key=lambda r: (-r.importance, r.generator.sort_key()))
    return ranked[:top_l], ranked[top_l:]


def coset_plan(
    h: PackedSum, generators: Sequence[PauliWord], max_terms: int | None = None
) -> tuple[_packed.DressPlan, PackedSum]:
    """Split ``h`` on the span of the generators' x masks (``span_split``):
    the dressing plan of the rows inside it, and the rows outside it.

    A generator only XORs its x mask into a word, so dressing keeps every row
    in its coset: only the plan's rows reach the energy or the gradient, and
    the dressed ``h`` is the plan's replay plus the other rows' dressing.
    ``max_terms`` bounds each layer of the plan (``_packed.plan_chain``).
    """
    inside, outside = _packed.span_split(h, generators)
    return _packed.plan_chain(inside, generators, max_terms), outside


def qcc_energy(h: PackedSum, ansatz: Ansatz, ref: ReferenceState) -> float:
    """<0| U^dag H U |0> by dressing H through the Ansatz, then projecting."""
    plan, _ = coset_plan(h, ansatz.generators)
    return _packed.expectation_packed(_packed.run_plan(plan, ansatz.amplitudes), ref)


def qcc_energy_and_gradient(
    plan: _packed.DressPlan, ansatz: Ansatz, ref: ReferenceState
) -> tuple[float, list[float]]:
    """Energy and exact analytic gradient from one plan.

    ``plan`` is the Hamiltonian planned for the Ansatz's generators
    (``coset_plan``), or its cut to the rows that reach the diagonal
    (``_packed.live_plan``), which gives the same numbers; only the
    amplitudes are read from ``ansatz``.  The energy is the plan's replay
    projected on the reference, and the gradient one reverse pass of the
    diagonal through the same layers (``_packed.energy_and_gradient``).  No
    sort runs here.
    """
    if ansatz.generators != plan.generators:
        raise ValueError("the Ansatz's generators differ from the dressing plan's")
    return _packed.energy_and_gradient(plan, ansatz.amplitudes, ref)
