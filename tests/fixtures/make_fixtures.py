#!/usr/bin/env python3
"""Generate the committed FCIDUMP fixtures and frozen reference values.

Self-contained STO-3G integrals (McMurchie-Davidson recursions), restricted
Hartree-Fock with DIIS, MO transformation, and an FCIDUMP writer.  It was
run once, from the repository root:

    python tests/fixtures/make_fixtures.py

and wrote the h2 / h2_stretched / h4 / lih FCIDUMP files and
reference_values.json.  The committed files are the anchors, not this
script: a rerun does not reproduce them.  It rewrites h4.fcidump and
lih.fcidump with integrals that differ from about the 11th digit and moves
the stored FCI values by up to 7e-14 Ha, so every pin derived from an
FCIDUMP (digests, transform outputs, reference energies) would move with
them.  Do not rerun it over the committed fixtures.  Reference SCF energies come straight from the SCF
loop here (independent of the package's qubit pipeline); FCI-level values are
recorded from the package's exact-diagonalization oracle at creation time and
serve as regression anchors.  Literature cross-checks (Hartree, STO-3G):
RHF(H2, R=1.4 a0) = -1.116759, FCI(H2) = -1.137284, RHF(LiH, 1.5949 A) =
-7.86186, FCI(LiH) = -7.88237.
"""

import json
import sys
from pathlib import Path

import numpy as np
from scipy.special import hyp1f1

ANGSTROM_TO_BOHR = 1.8897259886

STO3G = {
    "H": [
        ("s", [3.425250914, 0.6239137298, 0.168855404],
         [0.1543289673, 0.5353281423, 0.4446345422]),
    ],
    "Li": [
        ("s", [16.11957475, 2.936200663, 0.794650487],
         [0.1543289673, 0.5353281423, 0.4446345422]),
        ("s", [0.6362897469, 0.1478600533, 0.0480886784],
         [-0.09996722919, 0.3995128261, 0.7001154689]),
        ("p", [0.6362897469, 0.1478600533, 0.0480886784],
         [0.155916275, 0.6076837186, 0.3919573931]),
    ],
}

CHARGES = {"H": 1, "Li": 3}


def double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


class BasisFunction:
    """Contracted Cartesian Gaussian."""

    def __init__(self, center, lmn, exps, coefs):
        self.center = np.asarray(center, dtype=float)
        self.lmn = tuple(lmn)
        self.exps = np.asarray(exps, dtype=float)
        l, m, n = lmn
        norms = []
        for a in self.exps:
            norms.append(
                (2 * a / np.pi) ** 0.75
                * (4 * a) ** ((l + m + n) / 2)
                / np.sqrt(
                    double_factorial(2 * l - 1)
                    * double_factorial(2 * m - 1)
                    * double_factorial(2 * n - 1)
                )
            )
        self.coefs = np.asarray(coefs, dtype=float) * np.asarray(norms)
        # renormalize the contraction
        self.coefs /= np.sqrt(_overlap(self, self))


def hermite_e(i, j, t, ab, a, b):
    """Hermite expansion coefficient E_t^{ij} for a 1D Gaussian product."""
    p = a + b
    q = a * b / p
    if t < 0 or t > i + j:
        return 0.0
    if i == j == t == 0:
        return np.exp(-q * ab * ab)
    if j == 0:
        return (
            hermite_e(i - 1, j, t - 1, ab, a, b) / (2 * p)
            - q * ab / a * hermite_e(i - 1, j, t, ab, a, b)
            + (t + 1) * hermite_e(i - 1, j, t + 1, ab, a, b)
        )
    return (
        hermite_e(i, j - 1, t - 1, ab, a, b) / (2 * p)
        + q * ab / b * hermite_e(i, j - 1, t, ab, a, b)
        + (t + 1) * hermite_e(i, j - 1, t + 1, ab, a, b)
    )


def _overlap_prim(a, lmn1, ra, b, lmn2, rb):
    p = a + b
    s = (np.pi / p) ** 1.5
    for k in range(3):
        s *= hermite_e(lmn1[k], lmn2[k], 0, ra[k] - rb[k], a, b)
    return s


def _overlap(f1, f2):
    s = 0.0
    for a, ca in zip(f1.exps, f1.coefs):
        for b, cb in zip(f2.exps, f2.coefs):
            s += ca * cb * _overlap_prim(a, f1.lmn, f1.center, b, f2.lmn, f2.center)
    return s


def _kinetic_prim(a, lmn1, ra, b, lmn2, rb):
    l2, m2, n2 = lmn2

    def s(dl, dm, dn):
        lmn = (l2 + dl, m2 + dm, n2 + dn)
        if min(lmn) < 0:
            return 0.0
        return _overlap_prim(a, lmn1, ra, b, lmn, rb)

    term0 = b * (2 * (l2 + m2 + n2) + 3) * s(0, 0, 0)
    term1 = -2 * b * b * (s(2, 0, 0) + s(0, 2, 0) + s(0, 0, 2))
    term2 = -0.5 * (
        l2 * (l2 - 1) * s(-2, 0, 0)
        + m2 * (m2 - 1) * s(0, -2, 0)
        + n2 * (n2 - 1) * s(0, 0, -2)
    )
    return term0 + term1 + term2


def kinetic(f1, f2):
    t = 0.0
    for a, ca in zip(f1.exps, f1.coefs):
        for b, cb in zip(f2.exps, f2.coefs):
            t += ca * cb * _kinetic_prim(a, f1.lmn, f1.center, b, f2.lmn, f2.center)
    return t


def boys(n, x):
    return hyp1f1(n + 0.5, n + 1.5, -x) / (2 * n + 1)


def hermite_r(t, u, v, n, p, pc):
    """Hermite Coulomb integral R^n_{tuv}."""
    if t == u == v == 0:
        return (-2 * p) ** n * boys(n, p * float(np.dot(pc, pc)))
    if t > 0:
        val = 0.0
        if t > 1:
            val += (t - 1) * hermite_r(t - 2, u, v, n + 1, p, pc)
        return val + pc[0] * hermite_r(t - 1, u, v, n + 1, p, pc)
    if u > 0:
        val = 0.0
        if u > 1:
            val += (u - 1) * hermite_r(t, u - 2, v, n + 1, p, pc)
        return val + pc[1] * hermite_r(t, u - 1, v, n + 1, p, pc)
    val = 0.0
    if v > 1:
        val += (v - 1) * hermite_r(t, u, v - 2, n + 1, p, pc)
    return val + pc[2] * hermite_r(t, u, v - 1, n + 1, p, pc)


def _nuclear_prim(a, lmn1, ra, b, lmn2, rb, rc):
    p = a + b
    rp = (a * ra + b * rb) / p
    val = 0.0
    for t in range(lmn1[0] + lmn2[0] + 1):
        et = hermite_e(lmn1[0], lmn2[0], t, ra[0] - rb[0], a, b)
        for u in range(lmn1[1] + lmn2[1] + 1):
            eu = hermite_e(lmn1[1], lmn2[1], u, ra[1] - rb[1], a, b)
            for v in range(lmn1[2] + lmn2[2] + 1):
                ev = hermite_e(lmn1[2], lmn2[2], v, ra[2] - rb[2], a, b)
                val += et * eu * ev * hermite_r(t, u, v, 0, p, rp - rc)
    return 2 * np.pi / p * val


def nuclear(f1, f2, atoms):
    val = 0.0
    for a, ca in zip(f1.exps, f1.coefs):
        for b, cb in zip(f2.exps, f2.coefs):
            for charge, rc in atoms:
                val -= charge * ca * cb * _nuclear_prim(
                    a, f1.lmn, f1.center, b, f2.lmn, f2.center, rc
                )
    return val


def _eri_prim(a, la, ra, b, lb, rb, c, lc, rc, d, ld, rd):
    p = a + b
    q = c + d
    alpha = p * q / (p + q)
    rp = (a * ra + b * rb) / p
    rq = (c * rc + d * rd) / q
    val = 0.0
    for t in range(la[0] + lb[0] + 1):
        e1t = hermite_e(la[0], lb[0], t, ra[0] - rb[0], a, b)
        for u in range(la[1] + lb[1] + 1):
            e1u = hermite_e(la[1], lb[1], u, ra[1] - rb[1], a, b)
            for v in range(la[2] + lb[2] + 1):
                e1v = hermite_e(la[2], lb[2], v, ra[2] - rb[2], a, b)
                if e1t == 0 or e1u == 0 or e1v == 0:
                    continue
                for tt in range(lc[0] + ld[0] + 1):
                    e2t = hermite_e(lc[0], ld[0], tt, rc[0] - rd[0], c, d)
                    for uu in range(lc[1] + ld[1] + 1):
                        e2u = hermite_e(lc[1], ld[1], uu, rc[1] - rd[1], c, d)
                        for vv in range(lc[2] + ld[2] + 1):
                            e2v = hermite_e(lc[2], ld[2], vv, rc[2] - rd[2], c, d)
                            if e2t == 0 or e2u == 0 or e2v == 0:
                                continue
                            val += (
                                e1t * e1u * e1v * e2t * e2u * e2v
                                * (-1) ** (tt + uu + vv)
                                * hermite_r(t + tt, u + uu, v + vv, 0, alpha, rp - rq)
                            )
    return val * 2 * np.pi ** 2.5 / (p * q * np.sqrt(p + q))


def eri(f1, f2, f3, f4):
    val = 0.0
    for a, ca in zip(f1.exps, f1.coefs):
        for b, cb in zip(f2.exps, f2.coefs):
            for c, cc in zip(f3.exps, f3.coefs):
                for d, cd in zip(f4.exps, f4.coefs):
                    val += ca * cb * cc * cd * _eri_prim(
                        a, f1.lmn, f1.center, b, f2.lmn, f2.center,
                        c, f3.lmn, f3.center, d, f4.lmn, f4.center,
                    )
    return val


def build_basis(geometry):
    functions = []
    atoms = []
    for symbol, coord in geometry:
        coord = np.asarray(coord, dtype=float)
        atoms.append((CHARGES[symbol], coord))
        for shell, exps, coefs in STO3G[symbol]:
            if shell == "s":
                functions.append(BasisFunction(coord, (0, 0, 0), exps, coefs))
            else:
                for lmn in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                    functions.append(BasisFunction(coord, lmn, exps, coefs))
    return functions, atoms


def integrals_ao(geometry):
    funcs, atoms = build_basis(geometry)
    n = len(funcs)
    s = np.zeros((n, n))
    t = np.zeros((n, n))
    v = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1):
            s[i, j] = s[j, i] = _overlap(funcs[i], funcs[j])
            t[i, j] = t[j, i] = kinetic(funcs[i], funcs[j])
            v[i, j] = v[j, i] = nuclear(funcs[i], funcs[j], atoms)
    g = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(i + 1):
            for k in range(n):
                for l in range(k + 1):
                    if (i * (i + 1) // 2 + j) < (k * (k + 1) // 2 + l):
                        continue
                    val = eri(funcs[i], funcs[j], funcs[k], funcs[l])
                    for a, b in ((i, j), (j, i)):
                        for c, d in ((k, l), (l, k)):
                            g[a, b, c, d] = val
                            g[c, d, a, b] = val
    e_nuc = 0.0
    for i in range(len(atoms)):
        for j in range(i):
            zi, ri = atoms[i]
            zj, rj = atoms[j]
            e_nuc += zi * zj / np.linalg.norm(ri - rj)
    return s, t + v, g, e_nuc


def rhf(s, hcore, g, e_nuc, n_electrons, max_cycles=200, tol=1e-12):
    """Closed-shell SCF with DIIS; returns (total energy, MO coefficients)."""
    n_occ = n_electrons // 2
    evals, evecs = np.linalg.eigh(s)
    x = evecs @ np.diag(evals ** -0.5) @ evecs.T
    f = hcore.copy()
    energy = None
    errs, focks = [], []
    for _ in range(max_cycles):
        fp = x.T @ f @ x
        _, cp = np.linalg.eigh(fp)
        c = x @ cp
        c_occ = c[:, :n_occ]
        d = 2.0 * c_occ @ c_occ.T
        j = np.einsum("pqrs,rs->pq", g, d)
        k = np.einsum("prqs,rs->pq", g, d)
        f = hcore + j - 0.5 * k
        new_energy = 0.5 * np.sum(d * (hcore + f)) + e_nuc
        err = f @ d @ s - s @ d @ f
        errs.append(err)
        focks.append(f.copy())
        if len(errs) > 8:
            errs.pop(0)
            focks.pop(0)
        if len(errs) > 1:
            m = len(errs)
            bmat = -np.ones((m + 1, m + 1))
            bmat[m, m] = 0.0
            for a in range(m):
                for b in range(m):
                    bmat[a, b] = np.sum(errs[a] * errs[b])
            rhs = np.zeros(m + 1)
            rhs[m] = -1.0
            try:
                weights = np.linalg.solve(bmat, rhs)[:m]
                f = sum(w * fm for w, fm in zip(weights, focks))
            except np.linalg.LinAlgError:
                pass
        if energy is not None and abs(new_energy - energy) < tol and np.max(np.abs(err)) < 1e-8:
            energy = new_energy
            break
        energy = new_energy
    fp = x.T @ f @ x
    _, cp = np.linalg.eigh(fp)
    c = x @ cp
    return energy, c


def mo_integrals(hcore, g, c):
    h_mo = c.T @ hcore @ c
    g_mo = np.einsum("pi,qj,pqrs,rk,sl->ijkl", c, c, g, c, c, optimize=True)
    return h_mo, g_mo


def write_fcidump(path, h_mo, g_mo, e_nuc, n_electrons, ms2=0, threshold=1e-12):
    n = h_mo.shape[0]
    lines = [f"&FCI NORB={n},NELEC={n_electrons},MS2={ms2},"]
    lines.append(" ORBSYM=" + ",".join(["1"] * n) + ",")
    lines.append(" ISYM=1,")
    lines.append("&END")
    for i in range(n):
        for j in range(i + 1):
            for k in range(i + 1):
                lmax = j if k == i else k
                for l in range(lmax + 1):
                    v = g_mo[i, j, k, l]
                    if abs(v) > threshold:
                        lines.append(f"{v:23.16E} {i+1:4d} {j+1:4d} {k+1:4d} {l+1:4d}")
    for i in range(n):
        for j in range(i + 1):
            v = h_mo[i, j]
            if abs(v) > threshold:
                lines.append(f"{v:23.16E} {i+1:4d} {j+1:4d}    0    0")
    lines.append(f"{e_nuc:23.16E}    0    0    0    0")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


MOLECULES = {
    "h2": [("H", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, 0.7414 * ANGSTROM_TO_BOHR))],
    "h2_stretched": [("H", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, 1.5 * ANGSTROM_TO_BOHR))],
    "h4": [("H", (0.0, 0.0, i * 0.9 * ANGSTROM_TO_BOHR)) for i in range(4)],
    "lih": [("Li", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, 1.5949 * ANGSTROM_TO_BOHR))],
}

ELECTRONS = {"h2": 2, "h2_stretched": 2, "h4": 4, "lih": 4}


def main():
    here = Path(__file__).parent
    sys.path.insert(0, str(here.parent.parent / "src"))
    from iqcc._packed import expectation_packed
    from iqcc.fcidump import load_fcidump
    from iqcc.mapping import jordan_wigner, reference_state, spin_operators
    from iqcc.oracle import ground_state, spin_resolved_spectrum

    reference = {}
    for name, geometry in MOLECULES.items():
        print(f"== {name}")
        s, hcore, g, e_nuc = integrals_ao(geometry)
        n_e = ELECTRONS[name]
        e_scf, c = rhf(s, hcore, g, e_nuc, n_e)
        print(f"   RHF total energy: {e_scf:.10f} Ha")
        h_mo, g_mo = mo_integrals(hcore, g, c)
        path = here / f"{name}.fcidump"
        write_fcidump(path, h_mo, g_mo, e_nuc, n_e)

        mi = load_fcidump(path)
        h_qubit = jordan_wigner(mi)
        ref = reference_state(n_e, 2 * mi.n_spatial, mi.ms2)
        e_ref = expectation_packed(h_qubit, ref)
        print(f"   <0|H|0>:          {e_ref:.10f} Ha  (delta vs SCF {e_ref - e_scf:+.3e})")
        if abs(e_ref - e_scf) > 1e-8:
            raise SystemExit(f"{name}: qubit reference energy disagrees with SCF")
        e_fci, _ = ground_state(h_qubit)
        print(f"   oracle FCI:       {e_fci:.10f} Ha")
        entry = {
            "geometry": [[sym, list(xyz)] for sym, xyz in geometry],
            "n_electrons": n_e,
            "n_spatial": mi.n_spatial,
            "n_qubits": 2 * mi.n_spatial,
            "scf_energy": e_scf,
            "fci_energy": e_fci,
            "jw_term_count": len(h_qubit),
        }
        s2, sz = spin_operators(2 * mi.n_spatial)
        entry["fci_singlet"] = spin_resolved_spectrum(h_qubit, s2, sz, (0.0, 0.0))
        entry["fci_triplet"] = spin_resolved_spectrum(h_qubit, s2, sz, (1.0, 1.0))
        print(f"   S0 / T1:          {entry['fci_singlet']:.10f} / {entry['fci_triplet']:.10f}")
        reference[name] = entry

    out = here / "reference_values.json"
    out.write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
