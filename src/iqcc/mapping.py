"""Jordan-Wigner transformation, reference states, and spin operators.

Spin-orbitals are interleaved: spatial orbital p with alpha spin maps to
qubit 2p, with beta spin to qubit 2p+1.  Occupied means spin-down means
z-eigenvalue -1, the single sign choice everything else derives from.

Fermionic operators are assembled symbolically from Jordan-Wigner ladder
words (correct by construction for any size): mode j carries

    a_j       = Z_0 .. Z_{j-1} (X_j + i Y_j) / 2
    a_j^dag   = Z_0 .. Z_{j-1} (X_j - i Y_j) / 2

so a product of F ladder factors expands into 2**F Pauli products, one per
choice of the X or the Y half of each factor.  ``_ladder_rows`` expands
``_BLOCK`` ladder products at a time in numpy: the x and z masks of each
product, its mod-4 phase (integer arithmetic, as in ``pauli.raw_multiply``)
and its coefficient v * 0.5**F times that power of i.  The block bounds the
temporaries whatever the number of integrals.

``_accumulate`` adds the rows into one table of keys, kept in (x, z) order,
with ``np.add.at``, which adds each key's rows one by one in the order they
come.  That generation order is: the core energy, then h1 in ``np.nonzero``
order times spin, then g2 in ``np.nonzero`` order times the (sigma, tau)
spin pattern, and each ladder product's Pauli products in
``itertools.product`` order (the scalar ``reference_jordan_wigner`` in
``tests/helpers.py``).  Float addition is not associative, so the order fixes
every coefficient's bits.  The table is the returned ``PackedSum``, already
canonical.  ``penalize`` adds canonical sums with ``_packed._add``.

Real molecular integrals always leave a real, even-y-count Pauli sum; a
residual imaginary part signals inconsistent input and raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _packed
from ._packed import PackedSum, _sorted_keys
from .errors import CapacityError, HermiticityError
from .fcidump import MolecularIntegrals
from .pauli import render_masks
from .pauli_sum import MAX_QUBITS, ReferenceState

# Ladder products expanded at once, 2**F Pauli rows each: the block bounds
# the temporaries; larger blocks raised the benchmark's peak RSS.
_BLOCK = 512
_PHASE = np.array([1.0, 1j, -1.0, -1j])  # i**k

# Spin of each ladder factor, one row per spin pattern: a^dag_ps a_qs for h1,
# a^dag_p(sigma) a^dag_r(tau) a_s(tau) a_q(sigma) for g2.
_ONE_BODY_SPINS = np.array([[0, 0], [1, 1]])
_TWO_BODY_SPINS = np.array([[0, 0, 0, 0], [0, 1, 1, 0], [1, 0, 0, 1], [1, 1, 1, 1]])


def _ladder_rows(orbitals, spins: np.ndarray, dagger, values: np.ndarray):
    """Pauli rows (x, z, complex c) of ladder products, ``_BLOCK`` at a time.

    Product (i, s) is values[i] times the factors a_j, j = 2 * orbitals[f][i]
    + spins[s, f], with a^dag where ``dagger[f]``, left to right; products run
    i-major, and each expands into its Pauli products in ``itertools.product``
    order (the X half of a factor before its Y half, the first factor slowest).
    """
    n_spin, n_fac = spins.shape
    # per Pauli product and factor: 1 where it takes the Y half
    half = (np.arange(1 << n_fac)[:, None] >> np.arange(n_fac - 1, -1, -1)) & 1
    # the Y half carries +i/2 (a) or -i/2 (a^dag): that power of i
    y_phase = [(half[:, f] * (3 if dagger[f] else 1)).astype(np.uint8) for f in range(n_fac)]
    half = half.astype(bool)
    one = np.uint64(1)
    n_products = len(values) * n_spin
    for start in range(0, n_products, _BLOCK):
        i, s = np.divmod(np.arange(start, min(start + _BLOCK, n_products)), n_spin)
        x = np.zeros((len(i), 1 << n_fac), dtype=np.uint64)
        z = np.zeros_like(x)
        k = np.zeros(x.shape, dtype=np.uint8)  # wraps mod 256, so stays right mod 4
        m = values[i]
        for f in range(n_fac):
            bit = one << (2 * orbitals[f][i] + spins[s, f]).astype(np.uint64)[:, None]
            wz = np.where(half[:, f], (bit - one) | bit, bit - one)
            # (x, z) * (bit, wz) = i**k' (x ^ bit, z ^ wz), k' as in
            # pauli.raw_multiply; the Y half adds its own power of i
            k += np.bitwise_count(x & z)
            k += np.bitwise_count(bit & wz)
            k += 2 * np.bitwise_count(z & bit)
            k += y_phase[f]
            x ^= bit
            z ^= wz
            k -= np.bitwise_count(x & z)
            m = m * 0.5
        c = _PHASE[k & 3]
        c *= m[:, None]
        yield x.ravel(), z.ravel(), c.ravel()


def _accumulate(n_qubits: int, blocks):
    """Sum row blocks (x, z, c) into one key table: (x, z, c) per key, keys
    in (x, z) order, each c the left-to-right sum of its rows."""
    x = z = np.zeros(0, dtype=np.uint64)
    c = np.zeros(0, dtype=np.complex128)
    for bx, bz, bc in blocks:
        n_old = len(c)
        slot, x, z = _sorted_keys(n_qubits, np.concatenate([x, bx]), np.concatenate([z, bz]))
        table = np.zeros(len(x), dtype=np.complex128)
        table[slot[:n_old]] = c
        np.add.at(table, slot[n_old:], bc)
        c = table
    return x, z, c


def _collapse(n_qubits: int, x, z, c, tol: float = 1e-10) -> PackedSum:
    """The real sum of a key table; only cancellation dust may be discarded.

    Real input integrals leave odd-y words with exactly cancelling
    coefficients up to float addition order, so anything beyond ``tol``
    times the coefficient scale is a genuine hermiticity violation.
    """
    mag = np.abs(c)
    scale = float(np.max(mag, initial=1.0))
    odd = (np.bitwise_count(x & z) & 1).astype(bool)
    bad = np.where(odd, mag, np.abs(c.imag)) > tol * scale
    if np.any(bad):
        i = int(np.argmax(bad))
        word = render_masks(int(x[i]), int(z[i]))
        ci = complex(c[i])
        if odd[i]:
            raise HermiticityError(f"odd y-count word {word} with coefficient {ci:.3e}")
        raise HermiticityError(f"imaginary coefficient {ci:.3e} on {word}")
    keep = ~odd & (c.real != 0.0)
    return PackedSum(n_qubits, x[keep], z[keep], c.real[keep])


def jordan_wigner(mi: MolecularIntegrals) -> PackedSum:
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
    if not math.isfinite(mi.core_energy):
        raise ValueError(f"non-finite core energy {mi.core_energy!r}")
    n_qubits = 2 * mi.n_spatial

    def rows():
        identity = np.zeros(1, dtype=np.uint64)
        yield identity, identity, np.array([complex(mi.core_energy)])
        one = np.nonzero(mi.h1)
        yield from _ladder_rows(one, _ONE_BODY_SPINS, (True, False), mi.h1[one])
        two = np.nonzero(mi.g2)
        p, q, r, s = two
        yield from _ladder_rows(
            (p, r, s, q), _TWO_BODY_SPINS, (True, True, False, False), 0.5 * mi.g2[two]
        )

    return _collapse(n_qubits, *_accumulate(n_qubits, rows()))


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


def spin_operators(n_qubits: int) -> tuple[PackedSum, PackedSum]:
    """(S^2, S_z) over interleaved alpha/beta qubit pairs.

    S_z = 1/2 sum_p (n_pa - n_pb); S^2 = S_z^2 + S_z + S_- S_+ with the
    ladder parts assembled from Jordan-Wigner words.
    """
    if n_qubits % 2:
        raise ValueError("spin operators need an even qubit count")
    n_orb = n_qubits // 2
    # S_z: occupation asymmetry; n_q = (1 - Z_q)/2.
    qubit = np.arange(n_qubits)
    s_z = PackedSum(
        n_qubits,
        np.zeros(n_qubits, dtype=np.uint64),
        np.uint64(1) << qubit.astype(np.uint64),
        np.where(qubit % 2, 0.25, -0.25),
    )

    # S_z^2 + S_z: each S_z word, then its products with every S_z word (all
    # diagonal, so the products are phase-free), in the scalar reference's
    # order: Z_2p+1 before Z_2p.
    az, ac = s_z.z[qubit ^ 1], s_z.c[qubit ^ 1]
    sz_z = np.empty((len(az), len(az) + 1), dtype=np.uint64)
    sz_z[:, 0] = az
    sz_z[:, 1:] = az[:, None] ^ az
    sz_c = np.empty(sz_z.shape)
    sz_c[:, 0] = ac
    sz_c[:, 1:] = ac[:, None] * ac
    # S_- S_+ = sum_pq b^dag_p a_p a^dag_q b_q  (a: alpha mode, b: beta mode).
    p, q = np.divmod(np.arange(n_orb * n_orb), n_orb)

    def rows():
        yield np.zeros(sz_z.size, dtype=np.uint64), sz_z.ravel(), sz_c.ravel().astype(complex)
        yield from _ladder_rows(
            (p, p, q, q), np.array([[1, 0, 0, 1]]), (True, False, True, False), np.ones(len(p))
        )

    return _collapse(n_qubits, *_accumulate(n_qubits, rows())), s_z


@dataclass(frozen=True)
class SpinPenalty:
    """Penalty mu * (S^2 - s(s+1) S_z) added to the Hamiltonian.

    s >= 0 is the spin quantum number of the target state (s(s+1) is the same
    for s and -s-1); s = 0 reduces the penalty to mu * S^2.
    """

    mu: float = 0.0
    s: float = 0.0

    def __post_init__(self):
        if not 0 <= self.mu < math.inf:  # False for NaN
            raise ValueError("penalty strength must be finite and >= 0")
        if not 0 <= self.s < math.inf:  # False for NaN
            raise ValueError(f"spin must be finite and >= 0: {self.s!r}")


def penalize(h: PackedSum, p: SpinPenalty) -> PackedSum:
    """h + mu (S^2 - s(s+1) S_z); returns h unchanged when mu == 0."""
    if p.mu == 0.0:
        return h
    s_squared, s_z = spin_operators(h.n_qubits)
    w = _packed._add(s_squared, replace(s_z, c=-1.0 * (p.s * (p.s + 1.0) * s_z.c)))
    return _packed._add(h, replace(w, c=p.mu * w.c))
