"""Jordan-Wigner transformation, reference states, and spin operators.

Spin-orbitals are interleaved: spatial orbital p with alpha spin maps to
qubit 2p, with beta spin to qubit 2p+1.  Occupied means spin-down means
z-eigenvalue -1, the single sign choice everything else derives from.

Fermionic operators are assembled symbolically from Jordan-Wigner ladder
words (correct by construction for any size): mode j carries

    a_j       = Z_0 .. Z_{j-1} (X_j + i Y_j) / 2
    a_j^dag   = Z_0 .. Z_{j-1} (X_j - i Y_j) / 2

and products are expanded with exact mod-4 phase tracking.  Real molecular
integrals always leave a real, even-y-count Pauli sum; a residual imaginary
part signals inconsistent input and raises.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, HermiticityError
from .fcidump import MolecularIntegrals
from .pauli import PauliWord, raw_multiply, render_word
from .pauli_sum import MAX_QUBITS, PauliSum, ReferenceState

_PHASE = (1.0, 1j, -1.0, -1j)


class _Accumulator:
    """Complex-coefficient Pauli accumulator for intermediate fermion algebra."""

    __slots__ = ("n_qubits", "terms")

    def __init__(self, n_qubits: int):
        self.n_qubits = n_qubits
        self.terms: dict[tuple[int, int], complex] = {}

    def add(self, x: int, z: int, coeff: complex) -> None:
        key = (x, z)
        self.terms[key] = self.terms.get(key, 0.0) + coeff

    def add_ladder_product(self, modes: list[tuple[int, bool]], coeff: complex) -> None:
        """Accumulate coeff * prod of a/a^dag factors, left to right.

        ``modes`` lists (mode index, is_creation) pairs.
        """
        factors = []
        for j, dagger in modes:
            parity = (1 << j) - 1
            xj = 1 << j
            y_coeff = -0.5j if dagger else 0.5j
            factors.append((((xj, parity), 0.5), ((xj, parity | xj), y_coeff)))
        for combo in itertools.product(*factors):
            x = z = 0
            c = coeff
            for (wx, wz), wc in combo:
                x, z, k = raw_multiply(x, z, wx, wz)
                c *= wc * _PHASE[k]
            self.add(x, z, c)

    def to_real_sum(self, tol: float = 1e-10) -> PauliSum:
        """Collapse to a real sum; only cancellation dust may be discarded.

        Real input integrals leave odd-y words with exactly cancelling
        coefficients up to float addition order, so anything beyond ``tol``
        times the coefficient scale is a genuine hermiticity violation.
        """
        scale = max(max((abs(c) for c in self.terms.values()), default=1.0), 1.0)
        raw: dict[tuple[int, int], float] = {}
        for (x, z), c in self.terms.items():
            word_is_imaginary = (x & z).bit_count() % 2 == 1
            if word_is_imaginary:
                if abs(c) > tol * scale:
                    raise HermiticityError(
                        f"odd y-count word {render_word(PauliWord(x, z, self.n_qubits))} "
                        f"with coefficient {c:.3e}"
                    )
                continue
            if abs(c.imag) > tol * scale:
                raise HermiticityError(
                    f"imaginary coefficient {c:.3e} on "
                    f"{render_word(PauliWord(x, z, self.n_qubits))}"
                )
            if c.real != 0.0:
                raw[(x, z)] = c.real
        return PauliSum._from_raw(self.n_qubits, raw)


def jordan_wigner(mi: MolecularIntegrals) -> PauliSum:
    """Qubit Hamiltonian over 2 * n_spatial qubits from molecular integrals.

    Implements H = sum_pq h_pq a^dag_p a_q
                 + 1/2 sum_pqrs (pq|rs) sum_st a^dag_ps a^dag_rt a_st a_qs
    over spin-orbitals, with (pq|rs) the chemists' two-electron integral.
    """
    if 2 * mi.n_spatial > MAX_QUBITS:
        raise CapacityError(
            f"{mi.n_spatial} spatial orbitals exceeds the {MAX_QUBITS // 2}-orbital bound"
        )
    if not np.all(np.isfinite(mi.h1)) or not np.all(np.isfinite(mi.g2)):
        raise ValueError("non-finite integral values")
    n_qubits = 2 * mi.n_spatial
    acc = _Accumulator(n_qubits)
    acc.add(0, 0, complex(mi.core_energy))

    for p, q in zip(*np.nonzero(mi.h1)):
        v = mi.h1[p, q]
        for spin in (0, 1):
            acc.add_ladder_product(
                [(2 * int(p) + spin, True), (2 * int(q) + spin, False)], v
            )

    for p, q, r, s in zip(*np.nonzero(mi.g2)):
        v = 0.5 * mi.g2[p, q, r, s]
        for sig, tau in ((0, 0), (0, 1), (1, 0), (1, 1)):
            acc.add_ladder_product(
                [
                    (2 * int(p) + sig, True),
                    (2 * int(r) + tau, True),
                    (2 * int(s) + tau, False),
                    (2 * int(q) + sig, False),
                ],
                v,
            )
    return acc.to_real_sum()


def reference_state(n_e: int, n_qubits: int, ms2: int | None = None) -> ReferenceState:
    """Hartree-Fock product state.

    With ``ms2`` unset the first n_e qubits are occupied, which under the
    interleaved convention is the closed-shell (or minimally polarized)
    determinant.  An explicit ``ms2`` builds the ROHF-style determinant with
    (n_e + ms2)/2 alpha and (n_e - ms2)/2 beta electrons in the lowest
    orbitals of each spin.
    """
    if not 0 <= n_e <= n_qubits:
        raise ValueError(f"electron count {n_e} out of range for {n_qubits} qubits")
    if ms2 is None:
        return ReferenceState((1 << n_e) - 1, n_qubits)
    if (n_e + ms2) % 2 or ms2 < 0:
        raise ValueError(f"ms2={ms2} inconsistent with {n_e} electrons")
    n_alpha = (n_e + ms2) // 2
    n_beta = n_e - n_alpha
    if n_beta < 0 or 2 * n_alpha > n_qubits:
        raise ValueError(f"ms2={ms2} does not fit {n_e} electrons in {n_qubits} qubits")
    occ = 0
    for p in range(n_alpha):
        occ |= 1 << (2 * p)
    for p in range(n_beta):
        occ |= 1 << (2 * p + 1)
    return ReferenceState(occ, n_qubits)


def spin_operators(n_qubits: int) -> tuple[PauliSum, PauliSum]:
    """(S^2, S_z) over interleaved alpha/beta qubit pairs.

    S_z = 1/2 sum_p (n_pa - n_pb); S^2 = S_z^2 + S_z + S_- S_+ with the
    ladder parts assembled from Jordan-Wigner words.
    """
    if n_qubits % 2:
        raise ValueError("spin operators need an even qubit count")
    n_orb = n_qubits // 2
    # S_z: occupation asymmetry; n_q = (1 - Z_q)/2.
    sz_terms = []
    for p in range(n_orb):
        sz_terms.append((PauliWord.single("Z", 2 * p + 1, n_qubits), 0.25))
        sz_terms.append((PauliWord.single("Z", 2 * p, n_qubits), -0.25))
    s_z = PauliSum(n_qubits, sz_terms)

    acc = _Accumulator(n_qubits)
    # S_z^2 (products of diagonal words) plus S_z.
    for (ax, az), ac in s_z.raw_items():
        acc.add(ax, az, ac)
        for (bx, bz), bc in s_z.raw_items():
            x, z, k = raw_multiply(ax, az, bx, bz)
            acc.add(x, z, ac * bc * _PHASE[k])
    # S_- S_+ = sum_pq b^dag_p a_p a^dag_q b_q  (a: alpha mode, b: beta mode).
    for p in range(n_orb):
        for q in range(n_orb):
            acc.add_ladder_product(
                [
                    (2 * p + 1, True),
                    (2 * p, False),
                    (2 * q, True),
                    (2 * q + 1, False),
                ],
                1.0,
            )
    return acc.to_real_sum(), s_z


@dataclass(frozen=True)
class SpinPenalty:
    """Penalty mu * (S^2 - s(s+1) S_z) added to the Hamiltonian.

    s is the spin quantum number of the target state; s = 0 reduces the
    penalty to mu * S^2.
    """

    mu: float = 0.0
    s: float = 0.0

    def __post_init__(self):
        if not 0 <= self.mu < math.inf:  # False for NaN
            raise ValueError("penalty strength must be finite and >= 0")
        if not math.isfinite(self.s):
            raise ValueError("spin must be finite")


def penalize(h: PauliSum, p: SpinPenalty) -> PauliSum:
    """h + mu (S^2 - s(s+1) S_z); returns h unchanged when mu == 0."""
    if p.mu == 0.0:
        return h
    s_squared, s_z = spin_operators(h.n_qubits)
    w = s_squared - p.s * (p.s + 1.0) * s_z
    return h + p.mu * w
