"""Brute-force verification backend: matrix realization and diagonalization.

Basis convention (single source of truth, shared with ReferenceState): basis
index b has bit j set iff qubit j is occupied (spin-down, z-eigenvalue -1),
with qubit 0 as the least significant bit.  A canonical word i^y X^x Z^z acts
on |b> as  i^y * (-1)^popcount(z & b) * |b XOR x>,  so Z0 on one qubit is
diag(+1, -1) in basis order (unoccupied, occupied).

Sums are ``PackedSum``s: ``to_matrix`` and ``to_sparse`` read each word's
masks and coefficient from the arrays (``_word_entries``).  Dense
realizations are allowed up to 12 qubits; a sparse matrix-vector path covers
13-16.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import _packed
from ._packed import PackedSum
from .errors import CapacityError, IqccError
from .pauli import PauliWord
from .pauli_sum import ReferenceState

DENSE_QUBIT_LIMIT = 12
SPARSE_QUBIT_LIMIT = 16

_I_POW = np.array([1, 1j, -1, -1j])


def _word_entries(p: PackedSum):
    """Per word of ``p``: the row each basis column goes to, and the value there."""
    basis = np.arange(1 << p.n_qubits)
    for x, z, c in zip(p.x.tolist(), p.z.tolist(), p.c.tolist()):
        signs = np.where(np.bitwise_count(basis & z) % 2 == 1, -c, c)
        yield basis ^ x, _I_POW[(x & z).bit_count() % 4] * signs


def to_matrix(p: PackedSum) -> np.ndarray:
    """Dense 2^N x 2^N realization of a Pauli sum."""
    n = p.n_qubits
    if n > DENSE_QUBIT_LIMIT:
        raise CapacityError(f"{n} qubits exceeds dense limit {DENSE_QUBIT_LIMIT}")
    dim = 1 << n
    columns = np.arange(dim)
    mat = np.zeros((dim, dim), dtype=complex)
    for rows, vals in _word_entries(p):
        mat[rows, columns] += vals
    return mat


def to_sparse(p: PackedSum) -> sp.csr_matrix:
    n = p.n_qubits
    if n > SPARSE_QUBIT_LIMIT:
        raise CapacityError(f"{n} qubits exceeds sparse limit {SPARSE_QUBIT_LIMIT}")
    dim = 1 << n
    if len(p) == 0:
        return sp.csr_matrix((dim, dim), dtype=complex)
    rows, vals = zip(*_word_entries(p))
    columns = np.tile(np.arange(dim), len(p))
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), columns)), shape=(dim, dim)
    )


def word_matrix(w: PauliWord) -> np.ndarray:
    word, phase = w.canonical()
    return to_matrix(_packed.pack([(word, 1.0)], w.n_qubits)) * _I_POW[phase]


def ground_state(h: PackedSum) -> tuple[float, np.ndarray]:
    """Lowest eigenpair; dense below 11 qubits, Lanczos above.

    The residual ||Hv - Ev|| is verified to 1e-10 times the coefficient scale;
    a NaN residual fails.
    """
    n = h.n_qubits
    if n > SPARSE_QUBIT_LIMIT:
        raise CapacityError(f"{n} qubits exceeds oracle limit {SPARSE_QUBIT_LIMIT}")
    if n <= 10:
        mat = to_matrix(h)
        vals, vecs = np.linalg.eigh(mat)
        energy, vec = float(vals[0]), vecs[:, 0]
        mv = mat @ vec
    else:
        mat = to_sparse(h)
        dim = mat.shape[0]
        v0 = np.full(dim, 1.0 / np.sqrt(dim))
        vals, vecs = spla.eigsh(mat, k=1, which="SA", v0=v0, tol=0)
        energy, vec = float(vals[0]), vecs[:, 0]
        mv = mat @ vec
    scale = max(1.0, abs(energy))
    resid = float(np.linalg.norm(mv - energy * vec))
    if not resid <= 1e-10 * scale:  # False for NaN
        raise IqccError(f"eigen-residual {resid:.3e} above tolerance")
    return energy, vec


def spin_resolved_spectrum(
    h: PackedSum,
    s_squared: PackedSum,
    s_z: PackedSum,
    sector: tuple[float, float],
) -> float:
    """Lowest eigenvalue of h among simultaneous (S^2, S_z) eigenstates.

    ``sector`` is (s, m_s); states must have <S^2> within 1e-6 of s(s+1) and
    <S_z> within 1e-6 of m_s.  Degenerate h-eigenspaces are resolved by
    diagonalizing S^2 and then S_z inside each cluster, so spin labels are
    sharp even across multiplet degeneracies.
    """
    n = h.n_qubits
    if n > DENSE_QUBIT_LIMIT:
        raise CapacityError(f"{n} qubits exceeds dense limit {DENSE_QUBIT_LIMIT}")
    s, m_s = sector
    hm = to_matrix(h)
    s2m = to_matrix(s_squared)
    szm = to_matrix(s_z)
    for name, om in (("S^2", s2m), ("S_z", szm)):
        comm = om @ hm - hm @ om
        if np.max(np.abs(comm)) > 1e-10 * max(1.0, np.max(np.abs(hm))):
            raise IqccError(f"{name} does not commute with the Hamiltonian")

    evals, evecs = np.linalg.eigh(hm)
    target_s2 = s * (s + 1.0)
    best = None
    idx = 0
    dim = len(evals)
    while idx < dim:
        # cluster nearly degenerate h-eigenvalues
        j = idx + 1
        while j < dim and evals[j] - evals[idx] < 1e-9 * max(1.0, abs(evals[idx])):
            j += 1
        block = evecs[:, idx:j]
        s2_block = block.conj().T @ s2m @ block
        s2_vals, s2_vecs = np.linalg.eigh(s2_block)
        for s2_val in np.unique(np.round(s2_vals, 6)):
            sel = np.abs(s2_vals - s2_val) < 1e-6
            sub = block @ s2_vecs[:, sel]
            sz_sub = sub.conj().T @ szm @ sub
            sz_vals, _ = np.linalg.eigh(sz_sub)
            if abs(s2_val - target_s2) < 1e-6 and np.any(np.abs(sz_vals - m_s) < 1e-6):
                energy = float(evals[idx])
                if best is None or energy < best:
                    best = energy
        if best is not None:
            return best
        idx = j
    raise IqccError(f"no eigenstates in spin sector (s={s}, m_s={m_s})")


def reference_vector(ref: ReferenceState) -> np.ndarray:
    vec = np.zeros(1 << ref.n_qubits, dtype=complex)
    vec[ref.basis_index()] = 1.0
    return vec


def ansatz_unitary(entanglers, n_qubits: int) -> np.ndarray:
    """Dense product of exp(-i t T / 2) factors in the given order.

    The first entangler is the leftmost factor, matching the dressing
    convention used by the symbolic engine.
    """
    dim = 1 << n_qubits
    u = np.eye(dim, dtype=complex)
    for t_gen, t_val in entanglers:
        tm = word_matrix(t_gen)
        u = u @ (np.cos(t_val / 2) * np.eye(dim) - 1j * np.sin(t_val / 2) * tm)
    return u

