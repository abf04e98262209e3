"""Generator derivation, ranking, and the QCC energy functional.

Every X-string block of the Ising decomposition yields one canonical
generator: the lowest-index x replaced by y, giving a purely imaginary word
with a potentially non-zero gradient.  For a single generator T the energy is
an exact sinusoid

    E(t) = E0 + w sin(t) + D (1 - cos t) / 2,

where the signed w is the slope dE/dt at t = 0 (its magnitude is the omega of
the ranking formulas) and D = <0| T H T - H |0>.  The closed-form global
minimizer t of that sinusoid provides both the importance |t|, by which the
generators are ranked, and the warm start for the multi-generator
optimization.  ``rank_generators`` reads the (x-supports, w, D) arrays of
``_packed.block_statistics``, orders the blocks by one ``np.lexsort`` and
makes ``RankedGenerator``s of the selected ones only, each generator built
from its block's x; the rest stay x-supports, which is all the PT correction
reads.

An Ansatz is a sequence of (generator, amplitude) pairs; no type wraps it.
Its energy is evaluated by exact symbolic conjugation (dressing) of the
Hamiltonian, then projection onto the reference state.  An optimizer
evaluates one set of generators at many amplitudes, so the Hamiltonian is
first split into the rows those generators can bring to the diagonal and
the rest (``_packed.span_split``), and the former are planned once
(``_packed.plan_chain``); each evaluation then replays the plan, cut to the
rows that reach the diagonal, and sorts nothing.  The energy is linear in
every layer of the plan, so the gradient is one reverse pass of the
diagonal through the same plan.  The same plan, replayed once at the
optimum, dresses those rows into the next Hamiltonian.  Dressing, energy
and gradient are the kernels in ``_packed``; an evaluation is
``qcc_energy_and_gradient(cut, amplitudes)``, which is the kernel: ``cut``
is the plan's ``live_plan`` cut, which carries the reference signs of its
rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _packed
from .errors import CapacityError
from .pauli import PauliWord, render_word

MAX_GENERATORS = 16


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


def rank_generators(
    blocks: tuple[np.ndarray, np.ndarray, np.ndarray], n_qubits: int, top_l: int
) -> tuple[list[RankedGenerator], np.ndarray]:
    """The canonical generators of the Ising blocks of ``blocks`` (the arrays
    of ``_packed.block_statistics``) ranked by importance |t_estimate|, the
    magnitude of the closed-form optimal amplitude: the top ``top_l`` as
    ``RankedGenerator``s over ``n_qubits``, the x-supports of the rest.

    Ties break on (weight of x, x).  A block's generator is its x with the
    lowest x replaced by y: z is the lowest set bit of x.
    """
    if not 1 <= top_l <= MAX_GENERATORS:
        raise CapacityError(f"top_l {top_l} outside 1..{MAX_GENERATORS}")
    xs, omega_signed, d_values = blocks
    omegas, ds = omega_signed.tolist(), d_values.tolist()
    # math.atan2 and math.hypot per block: numpy's need not give the same bits
    t_est = [estimate_amplitude(w, d)[0] for w, d in zip(omegas, ds)]
    importance = np.abs(t_est)
    order = np.lexsort((xs, np.bitwise_count(xs), -importance))
    top = order[:top_l]
    selected = [
        RankedGenerator(
            PauliWord(x, x & -x, n_qubits),
            abs(omegas[i]), omegas[i], ds[i], t_est[i], float(importance[i]),
        )
        for i, x in zip(top.tolist(), xs[top].tolist())
    ]
    return selected, xs[order[top_l:]]


# the kernel itself, under the name the driver looks up at each evaluation
qcc_energy_and_gradient = _packed.energy_and_gradient
