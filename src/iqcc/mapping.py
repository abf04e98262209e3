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
``_BLOCK`` ladder products at a time in numpy.  A product's Pauli products
share one x mask, the XOR of its factors' bits; each one's z is the XOR of
the factors' Z strings and the bits of its Y halves, built by doubling the
rows once per factor.  Its mod-4 phase k (integer arithmetic, as in the
word product ``raw_multiply`` of ``tests/helpers.py``) telescopes: the
y-counts before and after each factor cancel, leaving 2 per Y half of an
annihilator, 2 per factor whose bit is set in the z before it, and
-popcount(x & z) of the whole row.
Every factor, Z..Z X or Z..Z iY, is a real matrix, so a row's coefficient
i**k v 0.5**F is +-v 0.5**F, real for an even-y word and imaginary for an
odd-y one: each row carries that one float64.  The block bounds the
temporaries whatever the number of integrals.

``_accumulate`` adds the rows into one table of keys, kept in (x, z) order
as its ``_packed._key`` and regrouped per block by ``_packed._group``, with
one ``np.bincount`` per block over the table's sums and then the block's
rows, which adds each key's rows one by one, from +0.0, in the order they
come.  That generation order is: the core energy, then h1 in ``np.nonzero``
order times spin, then g2 in ``np.nonzero`` order times the (sigma, tau)
spin pattern, and each ladder product's Pauli products in
``itertools.product`` order (the scalar ``reference_jordan_wigner`` in
``tests/helpers.py``).  Float addition is not associative, so the order fixes
every coefficient's bits.  The table is the returned ``PackedSum``, already
canonical.  ``penalize(h, mu, ref)`` adds canonical sums with ``_packed._add``.

Real molecular integrals always leave a real, even-y-count Pauli sum;
complex integrals are rejected up front, a residual odd-y coefficient
signals inconsistent input and raises, and a coefficient that overflowed
to inf or NaN is a domain error (``_packed.check_finite``).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import _packed
from ._packed import MAX_QUBITS, PackedSum, ReferenceState, _group, _key, _masks
from .errors import CapacityError, HermiticityError
from .fcidump import MolecularIntegrals
from .pauli import render_masks

# Ladder products expanded at once, 2**F Pauli rows each: the block bounds
# the temporaries, and each block re-sorts the table once.
_BLOCK = 1024

# Spin of each ladder factor, one row per spin pattern: a^dag_ps a_qs for h1,
# a^dag_p(sigma) a^dag_r(tau) a_s(tau) a_q(sigma) for g2.
_ONE_BODY_SPINS = np.array([[0, 0], [1, 1]])
_TWO_BODY_SPINS = np.array([[0, 0, 0, 0], [0, 1, 1, 0], [1, 0, 0, 1], [1, 1, 1, 1]])


def _ladder_rows(orbitals, spins: np.ndarray, dagger, values: np.ndarray):
    """Pauli rows (x, z, c) of ladder products, ``_BLOCK`` at a time.

    Product (i, s) is values[i] times the factors a_j, j = 2 * orbitals[f][i]
    + spins[s, f], with a^dag where ``dagger[f]``, left to right; products run
    i-major, and each expands into its Pauli products in ``itertools.product``
    order (the X half of a factor before its Y half, the first factor slowest).
    A product's rows share one x, shape (B, 1); z and c are per row, shape
    (B, 2**F), c the real coefficient or, for an odd-y word, the imaginary
    one.
    """
    n_spin, n_fac = spins.shape
    one = np.uint64(1)
    n_products = len(values) * n_spin
    for start in range(0, n_products, _BLOCK):
        i, s = np.divmod(np.arange(start, min(start + _BLOCK, n_products)), n_spin)
        x = np.zeros((len(i), 1), dtype=np.uint64)
        z = np.zeros_like(x)
        k = np.zeros(x.shape, dtype=np.uint8)  # wraps mod 256, so stays right mod 4
        m = values[i]
        for f in range(n_fac):
            bit = one << (2 * orbitals[f][i] + spins[s, f]).astype(np.uint64)[:, None]
            # the word product's phase (raw_multiply in tests/helpers.py),
            # telescoped: 2 where bit j is set in the z so far, 2 for the Y
            # half of an a (i from the y-count times its +i), none for an
            # a^dag's (i times -i), and -popcount(x & z) of the finished row
            k += np.bitwise_count(z & bit) << 1
            x ^= bit
            z ^= bit - one
            z = np.stack((z, z ^ bit), axis=-1).reshape(len(i), -1)
            k = np.stack((k, k + (0 if dagger[f] else 2)), axis=-1).reshape(len(i), -1)
            m = m * 0.5
        k -= np.bitwise_count(x & z)
        # i**k times m: +-m, real for even k and imaginary for odd k
        yield x, z, np.where(k & 2, -m[:, None], m[:, None])


def _accumulate(n_qubits: int, blocks):
    """Sum row blocks (x, z, c) into one key table: (x, z, c) per key, keys
    in (x, z) order, each c the left-to-right sum of its rows.

    Between blocks the table is its ``_packed._key`` and a float column.  An
    overflow is left as inf or NaN for ``_collapse`` to report.
    """
    key = _key(n_qubits, *(np.zeros(0, dtype=np.uint64),) * 2)
    c = np.zeros(0)
    for bx, bz, bc in blocks:
        rows = (np.broadcast_to(col, bc.shape).ravel() for col in _key(n_qubits, bx, bz))
        slot, key = _group(tuple(np.concatenate([old, new]) for old, new in zip(key, rows)))
        c = np.bincount(slot, np.concatenate([c, bc.ravel()]), len(key[0]))
    return (*_masks(n_qubits, key), c)


def _collapse(n_qubits: int, x, z, c, tol: float = 1e-10) -> PackedSum:
    """The real sum of a key table; only cancellation dust may be discarded.

    An odd-y word's c is its imaginary coefficient.  Real input integrals
    leave those exactly cancelling up to float addition order, so anything
    beyond ``tol`` times the coefficient scale is a genuine hermiticity
    violation.
    """
    _packed.check_finite(x, z, c)
    mag = np.abs(c)
    scale = float(np.max(mag, initial=1.0))
    odd = (np.bitwise_count(x & z) & 1).astype(bool)
    bad = np.flatnonzero(odd & (mag > tol * scale))
    if len(bad):
        word = render_masks(int(x[bad[0]]), int(z[bad[0]]))
        raise HermiticityError(
            f"odd y-count word {word} with coefficient {complex(0.0, c[bad[0]]):.3e}"
        )
    keep = ~odd & (c != 0.0)
    return PackedSum(n_qubits, x[keep], z[keep], c[keep])


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
    if np.iscomplexobj(mi.h1) or np.iscomplexobj(mi.g2):
        raise HermiticityError("complex integral values")
    if not np.all(np.isfinite(mi.h1)) or not np.all(np.isfinite(mi.g2)):
        raise ValueError("non-finite integral values")
    if not math.isfinite(mi.core_energy):
        raise ValueError(f"non-finite core energy {mi.core_energy!r}")
    n_qubits = 2 * mi.n_spatial

    def rows():
        identity = np.zeros(1, dtype=np.uint64)
        yield identity, identity, np.array([float(mi.core_energy)])
        one = np.nonzero(mi.h1)
        yield from _ladder_rows(one, _ONE_BODY_SPINS, (True, False), mi.h1[one])
        two = np.nonzero(mi.g2)
        p, q, r, s = two
        yield from _ladder_rows(
            (p, r, s, q), _TWO_BODY_SPINS, (True, True, False, False), 0.5 * mi.g2[two]
        )

    return _collapse(n_qubits, *_accumulate(n_qubits, rows()))


def reference_state(n_e: int, n_qubits: int, ms2: int) -> ReferenceState:
    """Hartree-Fock product state: the ROHF-style determinant with
    (n_e + ms2)/2 alpha and (n_e - ms2)/2 beta electrons in the lowest
    orbitals of each spin, ms2 >= 0 (the alpha electrons are the majority).
    """
    if not 0 <= n_e <= n_qubits:
        raise ValueError(f"electron count {n_e} out of range for {n_qubits} qubits")
    if ms2 < 0:
        raise ValueError(f"ms2={ms2} must be >= 0")
    if (n_e + ms2) % 2:
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
        yield np.zeros(1, dtype=np.uint64), sz_z.ravel(), sz_c.ravel()
        yield from _ladder_rows(
            (p, p, q, q), np.array([[1, 0, 0, 1]]), (True, False, True, False), np.ones(len(p))
        )

    return _collapse(n_qubits, *_accumulate(n_qubits, rows())), s_z


def penalize(h: PackedSum, mu: float, ref: ReferenceState) -> PackedSum:
    """h + mu (S^2 - s(s+1) S_z) with s = MS2/2 of the reference ``ref``;
    returns h unchanged when mu == 0.

    MS2 is ref's occupied alpha (even) qubits less its beta (odd) ones.  Only
    MS2 0 (mu S^2) and 2 leave the state of spin s and m_s = s unpenalized:
    any other MS2 raises ``ValueError``.  ``IqccConfig`` checks mu.
    """
    if mu == 0.0:
        return h
    bits = format(ref.occupation, f"0{ref.n_qubits}b")[::-1]  # qubit q at index q
    ms2 = bits[0::2].count("1") - bits[1::2].count("1")
    if ms2 not in (0, 2):
        raise ValueError(f"the spin penalty targets MS2 0 or 2, not the reference's MS2 {ms2}")
    s = ms2 / 2
    s_squared, s_z = spin_operators(h.n_qubits)
    w = _packed._add(s_squared, replace(s_z, c=-1.0 * (s * (s + 1.0) * s_z.c)))
    return _packed._add(h, replace(w, c=mu * w.c))
