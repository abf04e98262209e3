"""Molecular-integral ingestion from FCIDUMP text and CAS windowing.

The FCIDUMP convention: a namelist header ``&FCI NORB=.. NELEC=.. MS2=..``
terminated by ``&END`` or ``/``, followed by free-format ``value i j k l``
records with 1-based indices in chemists' ordering, so a record with all four
indices nonzero is the two-electron integral (ij|kl).  A record
``value i j 0 0`` with i, j > 0 carries a one-electron integral, the
all-zero record carries the core (nuclear repulsion plus any folded
mean-field) energy, and ``value i 0 0 0`` orbital-energy records are
accepted and ignored; any other pattern of zero indices is rejected.

A CAS window is two counts, the active occupied and the active virtual
orbitals around the Fermi level: ``select_cas(mi, n_occ, n_virt)`` folds the
orbitals below the window into the core and drops those above it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import FcidumpError

_HEADER_KV = re.compile(r"([A-Za-z][A-Za-z0-9_]*)\s*=\s*([^=,\s]+(?:\s*,\s*[-\d.]+)*)")


@dataclass(frozen=True)
class MolecularIntegrals:
    """One- and two-electron integrals over spatial orbitals, in Hartree.

    ``g2[p, q, r, s]`` is the chemists' integral (pq|rs); ``ms2`` is twice
    the z-projection of the target state's spin, from 0 to ``n_electrons``
    and of their parity (the reference puts the majority spin in the alpha
    orbitals).  h1 must be symmetric and g2 must have the 8-fold
    permutational symmetry of real orbitals, to within 1e-12.  Each of these
    is checked when the integrals are constructed (``ValueError``); h1 and
    g2 are then kept as read-only copies, so a checked symmetry cannot be
    broken afterwards.
    """

    core_energy: float
    h1: np.ndarray
    g2: np.ndarray
    n_electrons: int
    n_spatial: int
    ms2: int = 0

    def __post_init__(self):
        ms2, n_e = self.ms2, self.n_electrons
        if ms2 < 0:
            raise ValueError(f"MS2 {ms2} of {n_e} electrons must be >= 0")
        if ms2 > n_e:
            raise ValueError(f"MS2 {ms2} exceeds the {n_e} electrons")
        if (n_e - ms2) % 2:
            raise ValueError(f"MS2 {ms2} and the {n_e} electrons differ in parity")
        if self.h1.shape != (self.n_spatial, self.n_spatial):
            raise ValueError("h1 shape inconsistent with n_spatial")
        if self.g2.shape != (self.n_spatial,) * 4:
            raise ValueError("g2 shape inconsistent with n_spatial")
        if np.max(np.abs(self.h1 - self.h1.T), initial=0.0) > 1e-12:
            raise ValueError("h1 is not symmetric")
        # (pq|rs) = (qp|rs) = (pq|sr) = (rs|pq) generate all eight
        for axes in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
            if np.max(np.abs(self.g2 - self.g2.transpose(axes)), initial=0.0) > 1e-12:
                raise ValueError("g2 violates permutational symmetry")
        for name in ("h1", "g2"):
            frozen = np.array(getattr(self, name))
            frozen.setflags(write=False)
            object.__setattr__(self, name, frozen)


def parse_fcidump(text: str) -> MolecularIntegrals:
    """Parse FCIDUMP text into fully expanded symmetric tensors."""
    lines = text.splitlines()
    header_parts: list[str] = []
    body_start = None
    in_header = False
    for idx, line in enumerate(lines):
        stripped = line.strip()
        if not in_header:
            if not stripped:
                continue
            if not stripped.upper().startswith("&FCI"):
                raise FcidumpError("expected &FCI namelist header", idx + 1)
            in_header = True
            stripped = stripped[4:]
        end = re.search(r"(&END|/)", stripped, flags=re.IGNORECASE)
        if end:
            header_parts.append(stripped[: end.start()])
            body_start = idx + 1
            break
        header_parts.append(stripped)
    if body_start is None:
        raise FcidumpError("header not terminated by &END or /")

    header = " ".join(header_parts)
    fields = {m.group(1).upper(): m.group(2) for m in _HEADER_KV.finditer(header)}

    def _int_field(name: str, required: bool = True, default: int = 0) -> int:
        if name not in fields:
            if required:
                raise FcidumpError(f"header is missing {name}")
            return default
        try:
            return int(fields[name].split(",")[0])
        except ValueError as exc:
            raise FcidumpError(f"bad {name} value {fields[name]!r}") from exc

    norb = _int_field("NORB")
    nelec = _int_field("NELEC")
    ms2 = _int_field("MS2", required=False, default=0)
    if norb <= 0:
        raise FcidumpError(f"NORB must be positive, got {norb}")
    if not 0 <= nelec <= 2 * norb:
        raise FcidumpError(f"NELEC {nelec} out of range for NORB {norb}")
    if abs(ms2) > nelec or (nelec - ms2) % 2:
        raise FcidumpError(f"MS2 {ms2} inconsistent with NELEC {nelec}")
    if ms2 < 0:  # the reference puts the majority spin in the alpha orbitals
        raise FcidumpError(f"MS2 {ms2} must be >= 0")

    h1 = np.zeros((norb, norb))
    g2 = np.zeros((norb, norb, norb, norb))
    core = 0.0
    # canonical-key -> (value, first line) for duplicate detection
    seen: dict[tuple, tuple[float, int]] = {}

    def _record(key: tuple, value: float, line_no: int) -> bool:
        if key in seen:
            old, old_line = seen[key]
            if old != value:
                raise FcidumpError(
                    f"conflicting duplicate for {key}: {old!r} (line {old_line}) "
                    f"vs {value!r}",
                    line_no,
                )
            return False
        seen[key] = (value, line_no)
        return True

    for idx in range(body_start, len(lines)):
        stripped = lines[idx].strip()
        if not stripped:
            continue
        tokens = stripped.split()
        if len(tokens) != 5:
            raise FcidumpError(f"expected 'value i j k l', got {stripped!r}", idx + 1)
        try:
            value = float(tokens[0].replace("D", "E").replace("d", "e"))
            i, j, k, l = (int(t) for t in tokens[1:])
        except ValueError:
            raise FcidumpError(f"unparseable record {stripped!r}", idx + 1)
        for label, ix in zip("ijkl", (i, j, k, l)):
            if ix < 0 or ix > norb:
                raise FcidumpError(f"index {label}={ix} out of range 0..{norb}", idx + 1)
        if i == 0 and j == 0 and k == 0 and l == 0:
            if _record(("core",), value, idx + 1):
                core = value
        elif i > 0 and k == 0 and l == 0:
            if j == 0:
                continue  # orbital-energy record
            if _record(("h", *sorted((i, j))), value, idx + 1):
                h1[i - 1, j - 1] = value
                h1[j - 1, i - 1] = value
        elif i > 0 and j > 0 and k > 0 and l > 0:
            p, q, r, s = i - 1, j - 1, k - 1, l - 1
            canon = min(
                (p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
                (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p),
            )
            if _record(("g", *canon), value, idx + 1):
                for a, b in ((p, q), (q, p)):
                    for c, d in ((r, s), (s, r)):
                        g2[a, b, c, d] = value
                        g2[c, d, a, b] = value
        else:
            raise FcidumpError(f"unsupported index pattern {(i, j, k, l)}", idx + 1)

    return MolecularIntegrals(core, h1, g2, nelec, norb, ms2)


def load_fcidump(path) -> MolecularIntegrals:
    with open(path, encoding="utf-8") as fh:
        return parse_fcidump(fh.read())


# -- CAS windowing ----------------------------------------------------------


def select_cas(
    mi: MolecularIntegrals, n_occ_active: int, n_virt_active: int
) -> MolecularIntegrals:
    """Restrict the integrals to the window of the ``n_occ_active`` highest
    occupied and ``n_virt_active`` lowest virtual orbitals by index.

    Orbitals are assumed energy-ordered, occupied first (the Hartree-Fock
    convention of the upstream integrals): those below the window are frozen
    and those above it dropped.  The frozen doubly occupied orbitals enter at
    mean field:

        core' = core + sum_i 2 h_ii + sum_ij (2 (ii|jj) - (ij|ji))
        h'_pq = h_pq + sum_i (2 (pq|ii) - (pi|iq))

    with i, j over frozen orbitals and p, q over active ones.
    """
    n_alpha = (mi.n_electrons + mi.ms2) // 2
    n_beta = mi.n_electrons - n_alpha
    if n_occ_active < 0 or n_virt_active < 0:
        raise ValueError("window sizes must be non-negative")
    if n_occ_active > n_alpha:
        raise ValueError(f"only {n_alpha} occupied orbitals available")
    if n_virt_active > mi.n_spatial - n_alpha:
        raise ValueError(f"only {mi.n_spatial - n_alpha} virtual orbitals available")
    n_frozen = n_alpha - n_occ_active
    if n_frozen > n_beta:
        raise ValueError("frozen orbitals must be doubly occupied")
    if n_occ_active + n_virt_active == 0:
        raise ValueError("empty active space")

    h1, g2 = mi.h1, mi.g2
    core = mi.core_energy
    for i in range(n_frozen):
        core += 2.0 * h1[i, i]
        for j in range(n_frozen):
            core += 2.0 * g2[i, i, j, j] - g2[i, j, j, i]

    act = np.arange(n_frozen, n_alpha + n_virt_active)
    h_eff = h1[np.ix_(act, act)].copy()
    for i in range(n_frozen):
        coulomb = g2[np.ix_(act, act)][:, :, i, i]          # (pq|ii)
        exchange = g2[act][:, i, i][:, act]                  # (pi|iq)
        h_eff += 2.0 * coulomb - exchange

    g_eff = g2[np.ix_(act, act, act, act)].copy()
    n_e = mi.n_electrons - 2 * n_frozen
    return MolecularIntegrals(core, h_eff, g_eff, n_e, len(act), mi.ms2)
