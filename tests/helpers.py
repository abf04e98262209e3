"""Shared test utilities: random operators, the scalar dressing reference and
an independent fermionic oracle."""

import math

import numpy as np

from iqcc.pauli import PauliWord
from iqcc.pauli_sum import PauliSum


def random_hermitian_sum(n_qubits: int, n_terms: int, rng) -> PauliSum:
    """Random real sum of even-y words (a physical-operator lookalike)."""
    n_terms = min(n_terms, 1 << n_qubits)
    terms = {}
    while len(terms) < n_terms:
        x = int(rng.integers(1 << n_qubits))
        z = int(rng.integers(1 << n_qubits))
        if (x & z).bit_count() % 2:
            continue
        terms[(x, z)] = float(rng.normal())
    return PauliSum(
        n_qubits, [(PauliWord(x, z, n_qubits), c) for (x, z), c in terms.items()]
    )


def random_generator(n_qubits: int, rng) -> PauliWord:
    """Random odd-y (purely imaginary) word."""
    while True:
        x = int(rng.integers(1, 1 << n_qubits))
        z = int(rng.integers(1 << n_qubits))
        if (x & z).bit_count() % 2 == 1:
            return PauliWord(x, z, n_qubits)


def reference_dress(h: PauliSum, t_gen: PauliWord, t_opt: float) -> PauliSum:
    """Scalar term-by-term conjugation of h by exp(-i t_opt T / 2).

    The reference the packed ``dress`` must match bit for bit: a word P
    anticommuting with T keeps cos(t) of its coefficient and spawns
    -i sin(t) P*T, whose phase collapses to a real sign.
    """
    tx, tz = t_gen.x, t_gen.z
    yt = (tx & tz).bit_count()
    cos_t = math.cos(t_opt)
    sin_t = math.sin(t_opt)
    out: dict[tuple[int, int], float] = {}
    for (px, pz), c in h.raw_items():
        if ((px & tz).bit_count() + (pz & tx).bit_count()) % 2 == 0:
            out[(px, pz)] = out.get((px, pz), 0.0) + c
            continue
        out[(px, pz)] = out.get((px, pz), 0.0) + c * cos_t
        nx = px ^ tx
        nz = pz ^ tz
        # P*T = i^k C with k odd here; the spawned coefficient -i sin(t) i^k
        # is real: +sin(t) for k == 1, -sin(t) for k == 3.
        k = (
            (px & pz).bit_count()
            + yt
            - (nx & nz).bit_count()
            + 2 * (pz & tx).bit_count()
        ) % 4
        new = c * sin_t if k == 1 else -c * sin_t
        out[(nx, nz)] = out.get((nx, nz), 0.0) + new
    return PauliSum._from_raw(h.n_qubits, {k: c for k, c in out.items() if c != 0.0})


def dense_ladder_operators(n_modes: int) -> list[np.ndarray]:
    """Independent Jordan-Wigner ladder matrices: a_j = Z_{<j} (X+iY)/2.

    Built by explicit Kronecker products with qubit 0 as the least
    significant bit; used as a brute-force oracle for the symbolic mapping.
    """
    eye = np.eye(2)
    zee = np.diag([1.0, -1.0])
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    ops = []
    for j in range(n_modes):
        mat = np.eye(1)
        for q in reversed(range(n_modes)):
            if q < j:
                factor = zee
            elif q == j:
                factor = lower
            else:
                factor = eye
            mat = np.kron(mat, factor)
        ops.append(mat)
    return ops


def dense_fermionic_hamiltonian(mi) -> np.ndarray:
    """Assemble the spin-orbital Hamiltonian from dense ladder matrices."""
    n_so = 2 * mi.n_spatial
    a = dense_ladder_operators(n_so)
    ad = [m.conj().T for m in a]
    dim = 1 << n_so
    ham = mi.core_energy * np.eye(dim)
    for p in range(mi.n_spatial):
        for q in range(mi.n_spatial):
            if mi.h1[p, q] == 0.0:
                continue
            for s in (0, 1):
                ham = ham + mi.h1[p, q] * ad[2 * p + s] @ a[2 * q + s]
    for p in range(mi.n_spatial):
        for q in range(mi.n_spatial):
            for r in range(mi.n_spatial):
                for s in range(mi.n_spatial):
                    g = mi.g2[p, q, r, s]
                    if g == 0.0:
                        continue
                    for sig in (0, 1):
                        for tau in (0, 1):
                            ham = ham + 0.5 * g * (
                                ad[2 * p + sig] @ ad[2 * r + tau]
                                @ a[2 * s + tau] @ a[2 * q + sig]
                            )
    return ham


def random_symmetric_integrals(n_spatial: int, rng, core: float = 0.0):
    """Random integrals with full permutational symmetry."""
    from iqcc.fcidump import MolecularIntegrals

    h1 = rng.normal(size=(n_spatial, n_spatial))
    h1 = 0.5 * (h1 + h1.T)
    g2 = rng.normal(size=(n_spatial,) * 4)
    g2 = g2 + g2.transpose(1, 0, 2, 3)
    g2 = g2 + g2.transpose(0, 1, 3, 2)
    g2 = g2 + g2.transpose(2, 3, 0, 1)
    return MolecularIntegrals(core, h1, g2, n_spatial, n_spatial)
