"""Brute-force verification backend: matrix realization and diagonalization.

Basis convention (single source of truth, shared with ReferenceState): basis
index b has bit j set iff qubit j is occupied (spin-down, z-eigenvalue -1),
with qubit 0 as the least significant bit.  A canonical word i^y X^x Z^z acts
on |b> as  i^y * (-1)^popcount(z & b) * |b XOR x>,  so Z0 on one qubit is
diag(+1, -1) in basis order (unoccupied, occupied).

Sums are ``PackedSum``s.  One assembly (``_columns``) builds a sum's matrix
columns at ascending basis states from its word masks: ``to_sparse`` (all
states) and the (electron count, m_s) blocks of ``spin_resolved_spectrum``
use it, both up to 16 qubits.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ._packed import PackedSum
from .errors import CapacityError, IqccError

SPARSE_QUBIT_LIMIT = 16

_I_POW = np.array([1, 1j, -1, -1j])
_CHUNK_ENTRIES = 1 << 18  # word x state entries per block: ~40 bytes each in temporaries


def _columns(p: PackedSum, states: np.ndarray) -> sp.csr_matrix:
    """Columns of ``p``'s matrix at the ascending basis ``states``, as 2^n
    rows: the words of an x-group, summed in key order, send column b to row
    b ^ x.  The states go in chunks of at most ``_CHUNK_ENTRIES`` word x
    state entries, one CSR block each, with the same entries at any size."""
    x, z = p.x.astype(np.int64)[:, None], p.z.astype(np.int64)[:, None]
    phases = _I_POW[np.bitwise_count(x & z) % 4]
    xg, starts = np.unique(x, return_index=True)  # p.x is sorted: the x-groups
    step = max(1, _CHUNK_ENTRIES // max(1, len(p)))
    blocks = []
    for chunk in np.split(states, range(step, len(states), step)):
        signs = np.where(np.bitwise_count(chunk & z) % 2 == 1, -p.c[:, None], p.c[:, None])
        entries = np.add.reduceat(phases * signs, starts, axis=0)
        cols = np.broadcast_to(np.arange(len(chunk)), entries.shape)
        coo = (entries.ravel(), ((chunk ^ xg[:, None]).ravel(), cols.ravel()))
        blocks.append(sp.csr_matrix(coo, shape=(1 << p.n_qubits, len(chunk))))
    return sp.hstack(blocks, format="csr")


def to_sparse(p: PackedSum) -> sp.csr_matrix:
    if p.n_qubits > SPARSE_QUBIT_LIMIT:
        raise CapacityError(f"{p.n_qubits} qubits exceeds sparse limit {SPARSE_QUBIT_LIMIT}")
    return _columns(p, np.arange(1 << p.n_qubits))


def _sector_block(p: PackedSum, states: np.ndarray) -> np.ndarray:
    """Dense block of ``p`` on ``states``; raises if ``p`` leaves their span
    (single words may: only the entries summed over the words count) or if
    the block is not finite."""
    cols = _columns(p, states)
    block = cols[states].toarray()
    outside = np.isin(np.arange(cols.shape[0]), states, invert=True)
    leak = np.max(np.abs(cols[outside].data), initial=0.0)
    tol = 1e-10 * max(1.0, np.max(np.abs(block), initial=0.0))
    if not leak <= tol < np.inf:  # False for NaN and for an infinite block
        raise IqccError(f"operator leaves the sector block or is not finite ({leak:.3e})")
    return block


def _solve(solver, *args, **kwargs):
    """Run an eigensolver; its failure is a domain error."""
    try:
        return solver(*args, **kwargs)
    except (np.linalg.LinAlgError, spla.ArpackError) as exc:
        raise IqccError(f"eigensolver failed: {exc}") from exc


def ground_state(h: PackedSum) -> tuple[float, np.ndarray]:
    """Lowest eigenpair; dense below 11 qubits, Lanczos above.

    The residual ||Hv - Ev|| is verified to 1e-10 times the coefficient scale;
    a NaN residual fails.  ARPACK cannot start on the zero matrix (energy 0).
    """
    mat = to_sparse(h)
    if h.n_qubits <= 10:
        vals, vecs = _solve(np.linalg.eigh, mat.toarray())
    elif not mat.count_nonzero():
        vals, vecs = np.zeros(1), np.eye(mat.shape[0], 1, dtype=mat.dtype)
    else:
        dim = mat.shape[0]
        v0 = np.full(dim, 1.0 / np.sqrt(dim))
        vals, vecs = _solve(spla.eigsh, mat, k=1, which="SA", v0=v0, tol=0)
    energy, vec = float(vals[0]), vecs[:, 0]
    scale = max(1.0, abs(energy))
    resid = float(np.linalg.norm(mat @ vec - energy * vec))
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

    ``sector`` is (s, m_s) with s >= 0 and |m_s| <= s, else :class:`IqccError`
    (s(s+1) is the same for s and -s-1); states must have <S^2> within 1e-6
    of s(s+1) and S_z within 1e-6 of m_s.  ``s_z`` must be diagonal.  Each
    block of basis states with one electron count (popcount) and S_z = m_s
    is diagonalized apart; ``h`` and ``s_squared`` must not leave a block,
    and must commute on it.  Degenerate h-eigenspaces are resolved by
    diagonalizing S^2 inside each cluster, so spin labels are sharp even
    across multiplet degeneracies.
    """
    n = h.n_qubits
    if n > SPARSE_QUBIT_LIMIT:
        raise CapacityError(f"{n} qubits exceeds sparse limit {SPARSE_QUBIT_LIMIT}")
    if np.any(s_z.x):
        raise IqccError("S_z has an off-diagonal word")
    s, m_s = sector
    if not abs(m_s) <= s:  # False for NaN; abs(m_s) >= 0, so also s >= 0
        raise IqccError(f"spin sector needs s >= 0 and |m_s| <= s: (s={s}, m_s={m_s})")
    in_ms = np.abs(to_sparse(s_z).diagonal().real - m_s) < 1e-6
    electrons = np.bitwise_count(np.arange(1 << n))
    lows = []
    for n_e in range(n + 1):
        states = np.flatnonzero(in_ms & (electrons == n_e))
        if not len(states):
            continue
        hm, s2m = _sector_block(h, states), _sector_block(s_squared, states)
        if not np.max(np.abs(s2m @ hm - hm @ s2m)) <= 1e-10 * max(1.0, np.max(np.abs(hm))):
            raise IqccError("S^2 does not commute with the Hamiltonian")
        evals, evecs = _solve(np.linalg.eigh, hm)
        idx = 0
        while idx < len(evals):
            # cluster nearly degenerate h-eigenvalues
            j = idx + 1
            while j < len(evals) and evals[j] - evals[idx] < 1e-9 * max(1.0, abs(evals[idx])):
                j += 1
            block = evecs[:, idx:j]
            s2_vals = _solve(np.linalg.eigvalsh, block.conj().T @ s2m @ block)
            if np.any(np.abs(s2_vals - s * (s + 1.0)) < 1e-6):
                lows.append(float(evals[idx]))
                break
            idx = j
    if not lows:
        raise IqccError(f"no eigenstates in spin sector (s={s}, m_s={m_s})")
    return min(lows)
