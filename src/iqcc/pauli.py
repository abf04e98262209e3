"""Exact algebra of Pauli words over N qubits.

A word is stored in symplectic form as two bitmasks: bit j of ``x`` means an
x-factor acts on qubit j, bit j of ``z`` means a z-factor acts there.  A qubit
with both bits set carries y, under the fixed convention

    y = i * x * z,

so the operator encoded by the masks is  i**y_count * X^x * Z^z,  which is
always hermitian.  A word is its two masks and carries no phase: a product
returns its power of the imaginary unit beside the word (``multiply``).  All
phase bookkeeping is integer arithmetic mod 4, never floating point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DimensionError

_AXIS_TO_BITS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_TOKEN_RE = re.compile(r"([XYZ])(\d+)")


@dataclass(frozen=True, slots=True)
class PauliWord:
    """Single Pauli string in symplectic bitmask form."""

    x: int
    z: int
    n_qubits: int

    def __post_init__(self):
        mask = (1 << self.n_qubits) - 1
        if self.x & ~mask or self.z & ~mask:
            raise DimensionError(
                f"mask exceeds {self.n_qubits} qubits: x={self.x:#x} z={self.z:#x}"
            )

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliWord":
        return cls(0, 0, n_qubits)

    @classmethod
    def single(cls, axis: str, qubit: int, n_qubits: int) -> "PauliWord":
        xb, zb = _AXIS_TO_BITS[axis.upper()]
        return cls(xb << qubit, zb << qubit, n_qubits)

    def weight(self) -> int:
        """Number of qubits the word acts on non-trivially."""
        return (self.x | self.z).bit_count()

    def y_count(self) -> int:
        """Number of y factors; even iff the word is a real operator."""
        return (self.x & self.z).bit_count()

    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def is_x_string(self) -> bool:
        """True iff the word is a nonempty product of x factors only."""
        return self.z == 0 and self.x != 0

    def sort_key(self) -> tuple[int, int, int]:
        """Total order: by weight, then lexicographically on the masks."""
        return (self.weight(), self.x, self.z)

    def axis(self, qubit: int) -> str:
        xb = (self.x >> qubit) & 1
        zb = (self.z >> qubit) & 1
        return ("I", "X", "Z", "Y")[xb + 2 * zb]

    def __str__(self) -> str:
        return render_word(self)

    def __repr__(self) -> str:
        return f"PauliWord({render_word(self)!r}, n_qubits={self.n_qubits})"


def raw_multiply(ax: int, az: int, bx: int, bz: int) -> tuple[int, int, int]:
    """Mask-level product: (ax,az) * (bx,bz) == i**k * (cx,cz), phase-free words.

    The phase exponent k follows from counting the y factors of each operand
    and of the product, plus the anticommutations needed to move b's
    x-factors past a's z-factors.
    """
    cx = ax ^ bx
    cz = az ^ bz
    k = (
        (ax & az).bit_count()
        + (bx & bz).bit_count()
        - (cx & cz).bit_count()
        + 2 * (az & bx).bit_count()
    ) % 4
    return cx, cz, k


def multiply(a: PauliWord, b: PauliWord) -> tuple[PauliWord, int]:
    """Product of two words: a * b == i**k * c."""
    if a.n_qubits != b.n_qubits:
        raise DimensionError(f"qubit counts differ: {a.n_qubits} vs {b.n_qubits}")
    cx, cz, k = raw_multiply(a.x, a.z, b.x, b.z)
    return PauliWord(cx, cz, a.n_qubits), k


def commutes(a: PauliWord, b: PauliWord) -> bool:
    """True iff ab == ba: the symplectic form <a.x,b.z> + <a.z,b.x> is even."""
    if a.n_qubits != b.n_qubits:
        raise DimensionError(f"qubit counts differ: {a.n_qubits} vs {b.n_qubits}")
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) % 2 == 0


def render_word(w: PauliWord) -> str:
    """Render as e.g. ``"X0 Z3 Y7"`` (qubit indices ascending); identity -> ``"I"``."""
    return render_masks(w.x, w.z)


def render_masks(x: int, z: int) -> str:
    """``render_word`` of the word with masks (x, z)."""
    parts = []
    support = x | z
    while support:
        low = support & -support
        parts.append(f"{'IXZY'[bool(x & low) + 2 * bool(z & low)]}{low.bit_length() - 1}")
        support ^= low
    return " ".join(parts) if parts else "I"


def parse_word(text: str, n_qubits: int) -> PauliWord:
    """Parse the rendering grammar; accepts ``"I"`` or ``""`` for the identity."""
    return PauliWord(*parse_masks(text, n_qubits), n_qubits)


def parse_masks(text: str, n_qubits: int) -> tuple[int, int]:
    """The (x, z) masks of ``parse_word(text, n_qubits)``."""
    if not isinstance(text, str):
        raise ValueError(f"unparseable Pauli word {text!r}: not a string")
    stripped = text.strip()
    if stripped in ("", "I"):
        return 0, 0
    x = z = 0
    pos = 0
    for m in _TOKEN_RE.finditer(stripped):
        if stripped[pos:m.start()].strip():
            raise ValueError(f"unparseable Pauli word {text!r}")
        q = int(m.group(2))
        if q >= n_qubits:
            raise DimensionError(f"qubit {q} out of range for {n_qubits} qubits")
        if (x | z) >> q & 1:
            raise ValueError(f"qubit {q} appears twice in {text!r}")
        xb, zb = _AXIS_TO_BITS[m.group(1)]
        x |= xb << q
        z |= zb << q
        pos = m.end()
    if stripped[pos:].strip():
        raise ValueError(f"unparseable Pauli word {text!r}")
    return x, z
