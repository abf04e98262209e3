"""Pauli words over N qubits: their masks and their text form.

A word is stored in symplectic form as two bitmasks: bit j of ``x`` means an
x-factor acts on qubit j, bit j of ``z`` means a z-factor acts there.  A qubit
with both bits set carries y, under the fixed convention

    y = i * x * z,

so the operator encoded by the masks is  i**y_count * X^x * Z^z,  which is
always hermitian.  A word is its two masks and carries no phase; the kernels
that multiply words (``_packed``, ``mapping``) keep the power of the
imaginary unit as an integer mod 4, never as a floating-point number.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

_AXIS_TO_BITS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_TOKEN_RE = re.compile(r"([XYZ])(\d+)")
# Rows ``render_words`` renders at once: its token table holds 4 bytes per
# qubit per row, so a block bounds it whatever the number of rows.
_RENDER_BLOCK = 4096


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

    def weight(self) -> int:
        """Number of qubits the word acts on non-trivially."""
        return (self.x | self.z).bit_count()

    def y_count(self) -> int:
        """Number of y factors; even iff the word is a real operator."""
        return (self.x & self.z).bit_count()

    def __str__(self) -> str:
        return render_word(self)

    def __repr__(self) -> str:
        return f"PauliWord({render_word(self)!r}, n_qubits={self.n_qubits})"


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


def render_words(x: np.ndarray, z: np.ndarray, n_qubits: int) -> list[str]:
    """``[render_masks(a, b) for a, b in zip(x, z)]`` for uint64 mask arrays.

    Each qubit of a row is a 4-byte cell of a uint8 token table: the letter,
    the tens and the units digit of the qubit index, a space.  An idle
    qubit's cell, and the tens byte of a one-digit index, are zero.  An
    identity row ends in "I ", and every row in a newline.  Dropping the
    zero bytes leaves one ASCII blob, which splits into the words at " \\n".
    """
    q = np.arange(n_qubits)
    cells = np.zeros((n_qubits, 4, 4), np.uint8)  # [qubit, IXZY code, byte]
    cells[:, 1:, 0] = np.frombuffer(b"XZY", np.uint8)
    cells[:, 1:, 1] = np.where(q < 10, 0, ord("0") + q // 10)[:, None]
    cells[:, 1:, 2] = (ord("0") + q % 10)[:, None]
    cells[:, 1:, 3] = ord(" ")

    def bits(masks):  # (rows, n_qubits) uint8, qubit 0 first
        rows = np.ascontiguousarray(masks, "<u8").view(np.uint8).reshape(-1, 8)
        return np.unpackbits(rows, axis=1, bitorder="little")[:, :n_qubits]

    words: list[str] = []
    for start in range(0, len(x), _RENDER_BLOCK):
        xb, zb = x[start:start + _RENDER_BLOCK], z[start:start + _RENDER_BLOCK]
        table = np.zeros((len(xb), 4 * n_qubits + 3), np.uint8)
        table[:, :-3] = cells[q, bits(xb) + 2 * bits(zb)].reshape(len(xb), -1)
        table[(xb | zb) == 0, -3:-1] = np.frombuffer(b"I ", np.uint8)
        table[:, -1] = ord("\n")
        words += table[table != 0].tobytes().decode("ascii").split(" \n")[:-1]
    return words


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
