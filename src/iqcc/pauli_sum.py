"""Exact transformations of packed Pauli sums, and their JSON form.

Coefficients are in Hartree throughout.  A sum is a ``_packed.PackedSum``:
canonical (phase-free) words as (x, z) masks, sorted by key, with real
coefficients and no zeros.  Sums over more than ``MAX_QUBITS`` (64) qubits
cannot be held; ``from_json_dict`` rejects them at load with
:class:`CapacityError`.

* ``dress_sequence`` conjugates a sum by exp(-i t T / 2) for each purely
  imaginary word T of an Ansatz, exactly.  A word P anticommuting with T
  keeps cos(t) of its coefficient and spawns i*P*T with a sin(t)-weighted
  real coefficient.  It is tested against the scalar ``reference_dress`` in
  ``tests/helpers.py``.
* ``prune`` drops small terms and reports the dropped absolute weight, an
  upper bound on the spectral-norm perturbation.
* ``to_json_dict`` writes the terms in ``PauliWord.sort_key`` order (weight,
  then the masks), rendered from the masks; ``from_json_dict`` reads them
  back through ``_packed.pack``, which sums duplicate words.

The Ising decomposition that ranking needs (one block per X-string) is
computed on packed arrays by ``_packed.block_statistics``; no per-block sums
are built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import CapacityError, DimensionError, InvalidGeneratorError
from .pauli import PauliWord, parse_word, render_masks, render_word

if TYPE_CHECKING:  # _packed builds on this module
    from ._packed import PackedSum

MAX_QUBITS = 64  # width of the uint64 masks of the packed kernels


def check_qubit_bound(n_qubits: int) -> None:
    """Reject sums wider than the packed kernels' masks."""
    if n_qubits > MAX_QUBITS:
        raise CapacityError(f"{n_qubits} qubits exceeds the {MAX_QUBITS}-qubit bound")


@dataclass(frozen=True, slots=True)
class ReferenceState:
    """Fixed qubit product state: bit j set means qubit j occupied (spin-down).

    Occupied means z-eigenvalue -1.  The state never changes during iQCC
    iterations.
    """

    occupation: int
    n_qubits: int

    def __post_init__(self):
        if self.occupation & ~((1 << self.n_qubits) - 1):
            raise DimensionError("occupation mask exceeds qubit count")

    def basis_index(self) -> int:
        """Index of this state in the oracle's basis (qubit 0 = LSB)."""
        return self.occupation


def dress_sequence(
    p: PackedSum, gens: Iterable[tuple[PauliWord, float]], max_terms: int | None = None
) -> PackedSum:
    """Conjugate the packed sum ``p`` by each (generator, amplitude) pair in
    Ansatz order; returns a packed sum, ``p`` itself when every amplitude is 0.

    Conjugation nests outward, so for U = prod_j exp(-i t_j T_j / 2) the
    first pair ends up innermost: the result is U^dagger p U.  A step that
    would hold more than ``max_terms`` rows raises :class:`CapacityError`
    before it allocates them.
    """
    pairs = list(gens)
    for t_gen, t_opt in pairs:
        if p.n_qubits != t_gen.n_qubits:
            raise DimensionError("sum and generator qubit counts differ")
        if t_gen.y_count() % 2 == 0:
            raise InvalidGeneratorError(
                f"generator {render_word(t_gen)} has even y-count (not purely imaginary)"
            )
        if not math.isfinite(t_opt):
            raise ValueError(f"non-finite amplitude {t_opt!r}")
    from . import _packed

    for t_gen, t_opt in pairs:
        # looked up on the module per call, where the benchmark's tracer patches it
        p = _packed.dress_packed(p, t_gen, t_opt, max_terms)
    return p


def prune(p: PackedSum, threshold: float) -> tuple[PackedSum, float]:
    """Drop terms with |coefficient| < threshold; report dropped weight."""
    if not 0 <= threshold < math.inf:  # False for NaN
        raise ValueError("prune threshold must be finite and >= 0")
    if threshold == 0.0:
        return p, 0.0
    mag = abs(p.c)
    keep = mag >= threshold
    # cumsum adds left to right, unlike np.sum (pairwise): the CSV and the
    # digest hold the weight's last bits
    small = mag[~keep]
    dropped = float(np.cumsum(small)[-1]) if len(small) else 0.0
    return replace(p, x=p.x[keep], z=p.z[keep], c=p.c[keep]), dropped


# -- serialization ---------------------------------------------------------


def to_json_dict(p: PackedSum) -> dict:
    """JSON-ready form, terms in ``PauliWord.sort_key`` order.

    A float's repr round-trips it, so the coefficients keep all their bits.
    """
    order = np.lexsort((p.z, p.x, np.bitwise_count(p.x | p.z)))
    rows = zip(p.x[order].tolist(), p.z[order].tolist(), p.c[order].tolist())
    return {
        "n_qubits": p.n_qubits,
        "terms": [{"word": render_masks(x, z), "coeff": c} for x, z, c in rows],
    }


def from_json_dict(data: dict) -> PackedSum:
    from . import _packed

    n = int(data["n_qubits"])
    check_qubit_bound(n)
    return _packed.pack(
        [(parse_word(t["word"], n), float(t["coeff"])) for t in data["terms"]], n
    )
