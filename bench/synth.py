"""Seeded synthetic FCIDUMP input for the ``synth_transform`` workload.

The integrals are random but shaped like a real molecule in C2v: each
spatial orbital carries an irrep label, and only symmetry-allowed integrals
are written (h_pq needs equal labels; (pq|rs) needs the four labels to
multiply to A1, about a quarter of g2).  The multiset of labels is fixed and
only its order is drawn from the seed, so every seed yields the same number
of nonzero integrals and the transform does the same amount of work; the
values themselves are all drawn from the seed.

The closed-shell determinant energy computed here with numpy is the
independent reference for <0|H|0> of the transformed Hamiltonian.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

# C2v irreps as Z2 x Z2 bit pairs: A1 = 0, B1 = 1, B2 = 2, A2 = 3, and the
# product of two irreps is the XOR of their codes.
_IRREP_COUNTS = (5, 3, 2, 2)  # A1, B1, B2, A2 for the 12-orbital default
_ORBSYM = {0: 1, 3: 2, 1: 3, 2: 4}  # Molpro ORBSYM numbering: A1, A2, B1, B2


def labels_for(n_orbitals: int) -> list[int]:
    """Fixed label multiset: the 12-orbital pattern scaled to ``n_orbitals``."""
    counts = [max(1, round(c * n_orbitals / 12)) for c in _IRREP_COUNTS]
    counts[0] += n_orbitals - sum(counts)
    return [irrep for irrep, c in enumerate(counts) for _ in range(c)]


def make_integrals(n_orbitals: int, seed: int):
    """(core, h1, g2, labels) with 8-fold symmetric g2, all drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    labels = [int(v) for v in rng.permutation(labels_for(n_orbitals))]
    n = n_orbitals
    h1 = np.zeros((n, n))
    for p in range(n):
        h1[p, p] = -2.5 + 0.35 * p + 0.1 * rng.standard_normal()
        for q in range(p):
            if labels[p] == labels[q]:
                h1[p, q] = h1[q, p] = 0.05 * rng.standard_normal()
    g2 = np.zeros((n, n, n, n))
    for p, q, r, s in _canonical_quadruples(n):
        if labels[p] ^ labels[q] ^ labels[r] ^ labels[s]:
            continue
        if p == q and r == s:
            v = 0.3 + 0.3 * rng.random()  # Coulomb-like (pp|rr)
        else:
            v = 0.03 * rng.standard_normal()
        for a, b in ((p, q), (q, p)):
            for c, d in ((r, s), (s, r)):
                g2[a, b, c, d] = g2[c, d, a, b] = v
    core = 1.0 + rng.random()
    return core, h1, g2, labels


def _canonical_quadruples(n: int):
    """(p, q, r, s) with p >= q, r >= s and pair (p, q) >= pair (r, s)."""
    pairs = [(p, q) for p in range(n) for q in range(p + 1)]
    for i, (p, q) in enumerate(pairs):
        for r, s in pairs[: i + 1]:
            yield p, q, r, s


def write_fcidump(path: Path, n_orbitals: int, n_electrons: int, seed: int):
    """Write the FCIDUMP and return (core, h1, g2) as written."""
    core, h1, g2, labels = make_integrals(n_orbitals, seed)
    orbsym = ",".join(str(_ORBSYM[v]) for v in labels)
    lines = [
        f"&FCI NORB={n_orbitals},NELEC={n_electrons},MS2=0,",
        f" ORBSYM={orbsym},",
        " ISYM=1,",
        "&END",
    ]
    for p, q, r, s in _canonical_quadruples(n_orbitals):
        v = g2[p, q, r, s]
        if v != 0.0:
            lines.append(f"{float(v)!r} {p + 1} {q + 1} {r + 1} {s + 1}")
    for p, q in itertools.combinations_with_replacement(range(n_orbitals), 2):
        v = h1[q, p]
        if v != 0.0:
            lines.append(f"{float(v)!r} {q + 1} {p + 1} 0 0")
    lines.append(f"{float(core)!r} 0 0 0 0")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return core, h1, g2


def closed_shell_energy(core: float, h1: np.ndarray, g2: np.ndarray, n_electrons: int) -> float:
    """E = core + 2 sum_i h_ii + sum_ij [2 (ii|jj) - (ij|ji)] over doubly occupied i, j."""
    occ = np.arange(n_electrons // 2)
    coulomb = g2[np.ix_(occ, occ, occ, occ)]
    j_mat = np.einsum("iijj->ij", coulomb)
    k_mat = np.einsum("ijji->ij", coulomb)
    return float(core + 2.0 * np.sum(h1[occ, occ]) + np.sum(2.0 * j_mat - k_mat))
