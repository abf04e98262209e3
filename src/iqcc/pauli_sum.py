"""Sparse real-coefficient sums of Pauli words and their exact transformations.

Coefficients are in Hartree throughout.  A sum is held as a mapping from the
canonical (phase-free) word, keyed by its raw ``(x, z)`` masks, to a float.
Zero coefficients are removed on construction; insertion order is whatever
order the terms were produced in, which the pipeline keeps deterministic.
Sums over more than ``MAX_QUBITS`` (64) qubits can be built but not dressed,
ranked or optimized; ``from_json_dict`` rejects them at load with
:class:`CapacityError`.

The interesting operations:

* ``expectation`` is <0|h|0> on the reference state: only diagonal words
  contribute.  The driver takes its initial energy from it, before packing.
* ``dress_sequence`` conjugates a packed sum by exp(-i t T / 2) for each
  purely imaginary word T of an Ansatz, exactly.  A word P anticommuting with
  T keeps cos(t) of its coefficient and spawns i*P*T with a sin(t)-weighted
  real coefficient.  ``dress`` is its one-generator form on a ``PauliSum``,
  tested against the scalar ``reference_dress`` in ``tests/helpers.py``.
* ``prune`` drops small terms of a packed sum and reports the dropped
  absolute weight, an upper bound on the spectral-norm perturbation.

The Ising decomposition that ranking needs (one block per X-string) is
computed on packed arrays by ``_packed.block_statistics``; no per-block sums
are built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import CapacityError, DimensionError, InvalidGeneratorError
from .pauli import PauliWord, parse_word, render_word

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


class PauliSum:
    """Real linear combination of canonical Pauli words over ``n_qubits``."""

    __slots__ = ("n_qubits", "_terms")

    def __init__(self, n_qubits: int, terms: Iterable[tuple[PauliWord, float]] | None = None):
        self.n_qubits = n_qubits
        data: dict[tuple[int, int], float] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for word, coeff in items:
                if word.n_qubits != n_qubits:
                    raise DimensionError(
                        f"word over {word.n_qubits} qubits in a {n_qubits}-qubit sum"
                    )
                if word.phase_exp:
                    raise ValueError("sums are keyed on canonical words (phase_exp == 0)")
                key = (word.x, word.z)
                data[key] = data.get(key, 0.0) + float(coeff)
        self._terms = {k: c for k, c in data.items() if c != 0.0}

    @classmethod
    def _from_raw(cls, n_qubits: int, raw: dict[tuple[int, int], float]) -> "PauliSum":
        """Adopt a prebuilt raw dict (zeros already removed)."""
        out = cls.__new__(cls)
        out.n_qubits = n_qubits
        out._terms = raw
        return out

    @classmethod
    def identity(cls, n_qubits: int, coeff: float = 1.0) -> "PauliSum":
        return cls(n_qubits, [(PauliWord.identity(n_qubits), coeff)])

    # -- inspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def items(self) -> Iterator[tuple[PauliWord, float]]:
        n = self.n_qubits
        for (x, z), c in self._terms.items():
            yield PauliWord(x, z, n), c

    def sorted_items(self) -> list[tuple[PauliWord, float]]:
        return sorted(self.items(), key=lambda wc: wc[0].sort_key())

    def raw_items(self):
        return self._terms.items()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PauliSum)
            and self.n_qubits == other.n_qubits
            and self._terms == other._terms
        )

    def __repr__(self) -> str:
        n = len(self._terms)
        head = ", ".join(
            f"{c:+.6g}*{render_word(w)}" for w, c in list(self.items())[:4]
        )
        more = ", ..." if n > 4 else ""
        return f"PauliSum({self.n_qubits} qubits, {n} terms: {head}{more})"

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "PauliSum") -> "PauliSum":
        return sum_add(self, other)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return sum_add(self, sum_scale(other, -1.0))

    def __mul__(self, c: float) -> "PauliSum":
        return sum_scale(self, c)

    __rmul__ = __mul__


def sum_add(a: PauliSum, b: PauliSum) -> PauliSum:
    """Termwise merge with canonical-key collision summation; compacted."""
    if a.n_qubits != b.n_qubits:
        raise DimensionError(f"qubit counts differ: {a.n_qubits} vs {b.n_qubits}")
    raw = dict(a._terms)
    for key, c in b._terms.items():
        new = raw.get(key, 0.0) + c
        if new == 0.0:
            raw.pop(key, None)
        else:
            raw[key] = new
    return PauliSum._from_raw(a.n_qubits, raw)


def sum_scale(a: PauliSum, c: float) -> PauliSum:
    c = float(c)
    if c == 0.0:
        return PauliSum(a.n_qubits)
    return PauliSum._from_raw(a.n_qubits, {k: c * v for k, v in a._terms.items()})


# -- expectation values ---------------------------------------------------


def expectation(h: PauliSum, ref: ReferenceState) -> float:
    """<0|h|0> for a general sum: only the diagonal part contributes."""
    if h.n_qubits != ref.n_qubits:
        raise DimensionError("sum and reference state qubit counts differ")
    occ = ref.occupation
    total = 0.0
    for (x, z), c in h._terms.items():
        if x == 0:
            total += -c if (z & occ).bit_count() % 2 else c
    return total


# -- dressing --------------------------------------------------------------


def dress(h: PauliSum, t_gen: PauliWord, t_opt: float) -> PauliSum:
    """Exact unitary conjugation of h by exp(-i t_opt T / 2).

    Equal to h - (i/2) sin(t) [h, T] + ((1-cos t)/2) (T h T - h).  Words
    commuting with T are untouched; a word P anticommuting with T scales by
    cos(t) and spawns -i sin(t) P*T, whose phase collapses to a real sign.
    """
    from . import _packed

    return _packed.unpack(dress_sequence(_packed.pack(h), [(t_gen, t_opt)]))


def dress_sequence(p: PackedSum, gens: Iterable[tuple[PauliWord, float]]) -> PackedSum:
    """Conjugate the packed sum ``p`` by each (generator, amplitude) pair in
    Ansatz order; returns a packed sum, ``p`` itself when every amplitude is 0.

    Conjugation nests outward, so for U = prod_j exp(-i t_j T_j / 2) the
    first pair ends up innermost: the result is U^dagger p U.
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
        p = _packed.dress_packed(p, t_gen, t_opt)
    return p


def prune(p: PackedSum, threshold: float) -> tuple[PackedSum, float]:
    """Drop terms with |coefficient| < threshold; report dropped weight."""
    if threshold < 0:
        raise ValueError("prune threshold must be >= 0")
    if threshold == 0.0:
        return p, 0.0
    mag = abs(p.c)
    keep = mag >= threshold
    dropped = 0.0  # plain left-to-right sum: the CSV and digest hold its last bits
    for m in mag[~keep].tolist():
        dropped += m
    return replace(p, x=p.x[keep], z=p.z[keep], c=p.c[keep]), dropped


# -- serialization ---------------------------------------------------------


def to_json_dict(h: PauliSum) -> dict:
    """JSON-ready form with coefficients at 17 significant digits."""
    return {
        "n_qubits": h.n_qubits,
        "terms": [
            {"word": render_word(w), "coeff": float(f"{c:.17g}")}
            for w, c in h.sorted_items()
        ],
    }


def from_json_dict(data: dict) -> PauliSum:
    n = int(data["n_qubits"])
    check_qubit_bound(n)
    return PauliSum(
        n, [(parse_word(t["word"], n), float(t["coeff"])) for t in data["terms"]]
    )
