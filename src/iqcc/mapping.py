"""Jordan-Wigner transformation, reference states, and spin operators.

Spin-orbitals are interleaved: spatial orbital p with alpha spin maps to
qubit 2p, with beta spin to qubit 2p+1.  Occupied means spin-down means
z-eigenvalue -1, the single sign choice everything else derives from.

Fermionic operators are assembled symbolically from Jordan-Wigner ladder
words (correct by construction for any size): mode j carries

    a_j       = Z_0 .. Z_{j-1} (X_j + i Y_j) / 2
    a_j^dag   = Z_0 .. Z_{j-1} (X_j - i Y_j) / 2

so a product of F ladder factors expands into 2**F Pauli products, one per
choice of the X or the Y half of each factor.  A product's Pauli products
share one x mask, the XOR of its factors' bits; each one's z is the XOR of
the factors' Z strings and the bits of its Y halves.  Its mod-4 phase k
(integer arithmetic, as in the word product ``raw_multiply`` of
``tests/helpers.py``) telescopes: the y-counts before and after each factor
cancel, leaving 2 per Y half of an annihilator, 2 per factor whose bit is
set in the z before it, and -popcount(x & z) of the whole row.
Every factor, Z..Z X or Z..Z iY, is a real matrix, so a row's coefficient
i**k v 0.5**F is +-v 0.5**F, real for an even-y word and imaginary for an
odd-y one: each row carries that one float64.

With d the OR of a product's factor bits, x lies in d and every row's z
outside d is the same, zb, so the product's rows have the keys (x, zb | T)
for the subsets T of d; its signature (x, zb, d) names them.  A row's
z & d, packed to the bits of d, and its phase depend only on the ranks of
the factors' bits among d's: ``_row_table`` expands them once per rank
pattern, doubling the rows once per factor.  ``_ladder_products`` reduces
``_BLOCK`` ladder products at a time to signature, rank pattern and
v 0.5**F; the core energy and the S_z^2 rows are products of no factor, one
row each (``_plain_rows``).  ``_accumulate`` groups the signatures with
``_packed._group``, lists the keys each group implies and groups those: the
sorted table of distinct keys, in two sorts whatever the number of rows.  A
row's slot is its signature's first key plus its packed z & d, and
``np.add.at`` adds each block's rows into the table's sums, one by one,
from +0.0, in the order they come.  That generation order is: the core
energy, then h1 in ``np.nonzero`` order times spin, then g2 in
``np.nonzero`` order times the (sigma, tau) spin pattern, and each ladder
product's Pauli products in ``itertools.product`` order (the scalar
``reference_jordan_wigner`` in ``tests/helpers.py``).  Float addition is not
associative, so the order fixes every coefficient's bits.  The block bounds
the row temporaries whatever the number of integrals.  The table is the
returned ``PackedSum``, already canonical.  ``penalize(h, mu, ref)`` adds
canonical sums with ``_packed._add``.

Real molecular integrals always leave a real, even-y-count Pauli sum;
complex integrals are rejected up front, a residual odd-y coefficient
signals inconsistent input and raises, and a coefficient that overflowed
to inf or NaN is a domain error (``_packed.check_finite``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace

import numpy as np

from . import _packed
from ._packed import MAX_QUBITS, PackedSum, ReferenceState, _group, _key, _masks
from .errors import CapacityError, HermiticityError
from .fcidump import MolecularIntegrals
from .pauli import render_masks

# Ladder products taken at once, 2**F rows each: the block bounds the
# temporaries.
_BLOCK = 1024
# An odd-y coefficient up to this fraction of the largest |c| is
# cancellation dust (``_collapse``).
_ODD_Y_TOL = 1e-10
# The alpha qubits 0, 2, 4, ... of every width up to 64.
_ALPHA = 0x5555_5555_5555_5555

# Spin of each ladder factor, one row per spin pattern: a^dag_ps a_qs for h1,
# a^dag_p(sigma) a^dag_r(tau) a_s(tau) a_q(sigma) for g2.
_ONE_BODY_SPINS = np.array([[0, 0], [1, 1]])
_TWO_BODY_SPINS = np.array([[0, 0, 0, 0], [0, 1, 1, 0], [1, 0, 0, 1], [1, 1, 1, 1]])


@functools.cache
def _row_table(dagger: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a product of the ladder factors a, a^dag where
    ``dagger[f]``, per rank pattern: (packed, negated), each row's z & d
    packed to the bits of d and whether its coefficient is -v 0.5**F.

    Pattern r gives factor f the packed bit 1 << ((r >> 2f) & 3), its bit's
    rank among d's (at most 4 factors); the rows of a pattern run in
    ``itertools.product`` order (the X half of a factor before its Y half,
    the first factor slowest).
    """
    n_pat = 4 ** len(dagger)
    pattern = np.arange(n_pat)[:, None]
    x = np.zeros((n_pat, 1), dtype=np.uint8)
    z = np.zeros_like(x)
    k = np.zeros_like(x)  # wraps mod 256, so stays right mod 4
    for f, dag in enumerate(dagger):
        bit = (1 << ((pattern >> 2 * f) & 3)).astype(np.uint8)
        # the word product's phase (raw_multiply in tests/helpers.py),
        # telescoped: 2 where bit j is set in the z so far, 2 for the Y
        # half of an a (i from the y-count times its +i), none for an
        # a^dag's (i times -i), and -popcount(x & z) of the finished row
        k += np.bitwise_count(z & bit) << 1
        x ^= bit
        z ^= bit - 1
        z = np.stack((z, z ^ bit), axis=-1).reshape(n_pat, -1)
        k = np.stack((k, k + (0 if dag else 2)), axis=-1).reshape(n_pat, -1)
    k -= np.bitwise_count(x & z)
    # i**k times v 0.5**F: +-v 0.5**F, real for even k and imaginary for odd k
    negated = (k & 2).astype(bool)
    for table in (z, negated):  # the cache hands them to every caller
        table.setflags(write=False)
    return z, negated


def _ladder_products(orbitals, spins: np.ndarray, dagger, values: np.ndarray):
    """Ladder products as (dagger, x, zb, d, pattern, m): which factors are
    a^dag, then one entry of each array per product, ``_BLOCK`` products at
    a time.

    Product (i, s) is values[i] times the factors a_j, j = 2 * orbitals[f][i]
    + spins[s, f], with a^dag where ``dagger[f]``, left to right; products run
    i-major.  x is the XOR of its factors' bits and d their OR, zb the XOR of
    their Z strings outside d, pattern the ranks of its factors' bits among
    d's (``_row_table``) and m = values[i] 0.5**F.
    """
    n_spin, n_fac = spins.shape
    one = np.uint64(1)
    n_products = len(values) * n_spin
    x, zb, d = (np.empty(n_products, dtype=np.uint64) for _ in range(3))
    pattern = np.empty(n_products, dtype=np.uint8)
    m = np.empty(n_products)
    for start in range(0, n_products, _BLOCK):
        block = slice(start, min(start + _BLOCK, n_products))
        i, s = np.divmod(np.arange(block.start, block.stop), n_spin)
        bits = [one << (2 * orbitals[f][i] + spins[s, f]).astype(np.uint64) for f in range(n_fac)]
        below = [bit - one for bit in bits]  # the factors' Z strings
        x[block] = functools.reduce(np.bitwise_xor, bits)
        d[block] = bd = functools.reduce(np.bitwise_or, bits)
        zb[block] = functools.reduce(np.bitwise_xor, below) & ~bd
        pattern[block] = sum(np.bitwise_count(bd & zs) << 2 * f for f, zs in enumerate(below))
        v = values[i]
        for _ in range(n_fac):
            v = v * 0.5
        m[block] = v
    return dagger, x, zb, d, pattern, m


def _plain_rows(z, c):
    """Diagonal rows (0, z, c) as products of no ladder factor: d = 0, one
    row each."""
    none = np.zeros(len(c), dtype=np.uint64)
    return (), none, z, none, none.astype(np.uint8), c


def _accumulate(n_qubits: int, products) -> tuple:
    """Sum the rows of products into one key table: (x, z, c) per key, keys
    in (x, z) order, each c the left-to-right sum of its rows in generation
    order.  A signature lists its keys (x, zb | T) with T over the subsets of
    d in increasing order, the order of a row's packed z & d.  An overflow is
    left as inf or NaN for ``_collapse`` to report.
    """
    x, zb, d = (np.concatenate([p[j] for p in products]) for j in (1, 2, 3))
    # per qubit (x | zb, d) takes one of four values, as x lies in d and zb
    # outside it: one key of two masks
    group, signature = _group(_key(n_qubits, x | zb, d))
    u, d = _masks(n_qubits, signature)
    n_bits = np.bitwise_count(d)
    n_keys = np.left_shift(1, n_bits, dtype=np.intp)
    z = (u & ~d)[:, None]
    rest = d
    for _ in range(int(n_bits.max(initial=0))):
        low = rest & (~rest + np.uint64(1))  # the lowest bit of d not yet taken
        rest = rest ^ low
        z = np.concatenate((z, z | low[:, None]), axis=1)
    z = z[np.arange(z.shape[1]) < n_keys[:, None]]
    slot, table = _group(_key(n_qubits, np.repeat(u & d, n_keys), z))
    # each product's first key; a row's is that plus its packed z & d
    first = (np.cumsum(n_keys) - n_keys)[group]
    c = np.zeros(len(table[0]))
    at = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for dagger, *_, pattern, m in products:
            packed, negated = _row_table(dagger)
            base, at = first[at:at + len(m)], at + len(m)
            for start in range(0, len(m), _BLOCK):
                block = slice(start, start + _BLOCK)
                r, v = pattern[block], m[block, None]
                rows = slot[base[block, None] + packed[r]]
                np.add.at(c, rows.ravel(), np.where(negated[r], -v, v).ravel())
    return (*_masks(n_qubits, table), c)


def _collapse(n_qubits: int, x, z, c) -> PackedSum:
    """The real sum of a key table; only cancellation dust may be discarded.

    An odd-y word's c is its imaginary coefficient.  Real input integrals
    leave those exactly cancelling up to float addition order, so anything
    beyond ``_ODD_Y_TOL`` times the coefficient scale is a genuine
    hermiticity violation.
    """
    _packed.check_finite(x, z, c)
    mag = np.abs(c)
    scale = float(np.max(mag, initial=1.0))
    odd = (np.bitwise_count(x & z) & 1).astype(bool)
    bad = np.flatnonzero(odd & (mag > _ODD_Y_TOL * scale))
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

    one = np.nonzero(mi.h1)
    p, q, r, s = two = np.nonzero(mi.g2)
    products = (
        _plain_rows(np.zeros(1, dtype=np.uint64), np.array([float(mi.core_energy)])),
        _ladder_products(one, _ONE_BODY_SPINS, (True, False), mi.h1[one]),
        _ladder_products(
            (p, r, s, q), _TWO_BODY_SPINS, (True, True, False, False), 0.5 * mi.g2[two]
        ),
    )
    return _collapse(n_qubits, *_accumulate(n_qubits, products))


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


def occupation_ms2(occupation):
    """MS2 of the basis state ``occupation``, an int or an integer array of
    them: its occupied alpha (even) qubits less its occupied beta (odd) ones,
    as int64."""
    alpha = np.bitwise_count(occupation & _ALPHA).astype(np.int64)
    return alpha - np.bitwise_count((occupation >> 1) & _ALPHA)


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

    products = (
        _plain_rows(sz_z.ravel(), sz_c.ravel()),
        _ladder_products(
            (p, p, q, q), np.array([[1, 0, 0, 1]]), (True, False, True, False), np.ones(len(p))
        ),
    )
    return _collapse(n_qubits, *_accumulate(n_qubits, products)), s_z


def penalize(h: PackedSum, mu: float, ref: ReferenceState) -> PackedSum:
    """h + mu (S^2 - s(s+1) S_z) with s = MS2/2 of the reference ``ref``;
    returns h unchanged when mu == 0.

    MS2 is ``occupation_ms2`` of ref's occupation.  Only MS2 0 (mu S^2) and
    2 leave the state of spin s and m_s = s unpenalized: any other MS2 raises
    ``ValueError``.  ``IqccConfig`` checks mu.
    """
    if mu == 0.0:
        return h
    ms2 = occupation_ms2(ref.occupation)
    if ms2 not in (0, 2):
        raise ValueError(f"the spin penalty targets MS2 0 or 2, not the reference's MS2 {ms2}")
    s = ms2 / 2
    s_squared, s_z = spin_operators(h.n_qubits)
    w = _packed._add(s_squared, replace(s_z, c=-1.0 * (s * (s + 1.0) * s_z.c)))
    return _packed._add(h, replace(w, c=mu * w.c))
