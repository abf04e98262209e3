"""Shared test utilities: random operators, plain-dict views of packed sums,
the scalar dressing, gradient, Jordan-Wigner, penalty and JSON references,
the mask-form plan, two-pass live-cut, three-scatter evaluation,
object-ranking and block-statistics references, a sort spy, the coset plan
of an iteration, an independent fermionic oracle, the whole-space
spin-resolved spectrum, the word product, and the dense matrix, reference
vector and ansatz unitary."""

import itertools
import math

import numpy as np

from iqcc import ReferenceState, _packed
from iqcc._packed import (
    DressPlan,
    PackedSum,
    PlanLayer,
    _canonical,
    pack,
    x_group_slice,
)
from iqcc.engine import RankedGenerator, estimate_amplitude, rank_generators
from iqcc.errors import HermiticityError, IqccError
from iqcc.oracle import to_sparse
from iqcc.pauli import PauliWord, render_word


def terms_dict(p: PackedSum) -> dict[tuple[int, int], float]:
    """{(x, z): coefficient} of a packed sum, in its key order."""
    return dict(zip(zip(p.x.tolist(), p.z.tolist()), p.c.tolist()))


def from_terms_dict(n_qubits: int, terms: dict) -> PackedSum:
    """The packed sum of a {(x, z): coefficient} dict with distinct keys."""
    return pack([(PauliWord(x, z, n_qubits), c) for (x, z), c in terms.items()], n_qubits)


def raw_multiply(ax: int, az: int, bx: int, bz: int) -> tuple[int, int, int]:
    """Mask-level product: (ax,az) * (bx,bz) == i**k * (cx,cz), phase-free words.

    The phase exponent k follows from counting the y factors of each operand
    and of the product, plus the anticommutations needed to move b's
    x-factors past a's z-factors.
    """
    cx = ax ^ bx
    cz = az ^ bz
    k = (
        (ax & az).bit_count()
        + (bx & bz).bit_count()
        - (cx & cz).bit_count()
        + 2 * (az & bx).bit_count()
    ) % 4
    return cx, cz, k


def assert_same(a: PackedSum, b: PackedSum):
    """Same width, keys and coefficient bits."""
    assert a.n_qubits == b.n_qubits
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.z, b.z)
    assert a.c.tobytes() == b.c.tobytes()


def rank_sum(h: PackedSum, ref: ReferenceState, top_l: int):
    """``rank_generators`` on the block statistics of ``h``."""
    return rank_generators(_packed.block_statistics(h, ref), h.n_qubits, top_l)


def reference_rank_generators(blocks, n_qubits: int, top_l: int):
    """``rank_generators`` by objects: a ``RankedGenerator`` for every block,
    sorted by (-|t_estimate|, weight, x), its generator the block's x with
    the lowest x made y.  Returns (top ``top_l``, the rest), both as
    ``RankedGenerator`` lists."""
    ranked = []
    for x_support, omega_signed, d_val in zip(*(a.tolist() for a in blocks)):
        gen = PauliWord(x_support, x_support & -x_support, n_qubits)
        t_est, _ = estimate_amplitude(omega_signed, d_val)
        ranked.append(
            RankedGenerator(gen, abs(omega_signed), omega_signed, d_val, t_est, abs(t_est))
        )
    ranked.sort(key=lambda r: (-r.importance, r.generator.weight(), r.generator.x))
    return ranked[:top_l], ranked[top_l:]


def random_hermitian_sum(n_qubits: int, n_terms: int, rng) -> PackedSum:
    """Random real sum of even-y words (a physical-operator lookalike)."""
    n_terms = min(n_terms, 1 << n_qubits)
    terms = {}
    while len(terms) < n_terms:
        x = int(rng.integers(1 << n_qubits))
        z = int(rng.integers(1 << n_qubits))
        if (x & z).bit_count() % 2:
            continue
        terms[(x, z)] = float(rng.normal())
    return from_terms_dict(n_qubits, terms)


def drawn_sum(n_qubits: int, n_diag: int, n_off: int, rng, values=None) -> PackedSum:
    """A canonical even-y sum of about ``n_diag`` diagonal and ``n_off``
    off-diagonal rows over up to 64 qubits (uint64 draws; repeated keys are
    summed).  Coefficients are normal draws, or draws from ``values``."""
    x = np.concatenate([np.zeros(n_diag, dtype=np.uint64),
                        rng.integers(1, 1 << n_qubits, size=n_off, dtype=np.uint64)])
    z = rng.integers(0, 1 << n_qubits, size=n_diag + n_off, dtype=np.uint64)
    even = np.bitwise_count(x & z) % 2 == 0
    c = rng.normal(size=len(x)) if values is None else rng.choice(values, size=len(x))
    return _canonical(n_qubits, x[even], z[even], c[even])


def spy_sort(monkeypatch) -> list[int]:
    """Patch ``_packed._sort``, the one key sort, to record the row count of
    each sort."""
    sizes: list[int] = []
    real = _packed._sort

    def spy(key):
        sizes.append(len(key[0]))
        return real(key)

    monkeypatch.setattr(_packed, "_sort", spy)
    return sizes


def coset_plan(h: PackedSum, generators, max_terms: int | None = None):
    """The dressing plan of the rows of ``h`` in the span of the generators'
    x masks, and the other rows: ``span_split``, then ``plan_chain`` of the
    rows inside, as an iteration of ``run_iqcc`` plans them."""
    inside, outside = _packed.span_split(h, generators)
    return _packed.plan_chain(inside, generators, max_terms), outside


def random_generator(n_qubits: int, rng) -> PauliWord:
    """Random odd-y (purely imaginary) word."""
    while True:
        x = int(rng.integers(1, 1 << n_qubits))
        z = int(rng.integers(1 << n_qubits))
        if (x & z).bit_count() % 2 == 1:
            return PauliWord(x, z, n_qubits)


def reference_dress(h: PackedSum, t_gen: PauliWord, t_opt: float) -> PackedSum:
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
    for (px, pz), c in terms_dict(h).items():
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
    return from_terms_dict(h.n_qubits, {k: c for k, c in out.items() if c != 0.0})


def reference_plan_chain(p: PackedSum, generators) -> DressPlan:
    """``_packed.plan_chain`` by boolean masks and its own ``np.lexsort``:
    the anticommuting rows and each layer's output keys are compressed by
    mask, the rows listed by a separate ``flatnonzero``, and the spawn signs
    picked by ``np.where``.  Every ``PlanLayer`` field of the plan must equal
    this one's."""
    x, z = p.x, p.z
    layers = []
    for gen in generators:
        tx, tz = np.uint64(gen.x), np.uint64(gen.z)
        anti = (np.bitwise_count((x & tz) ^ (z & tx)) & 1).astype(bool)
        ax, az = x[anti], z[anti]
        nx, nz = ax ^ tx, az ^ tz
        k = (
            np.bitwise_count(ax & az)
            + np.uint8(gen.y_count())
            - np.bitwise_count(nx & nz)
            + 2 * np.bitwise_count(az & tx)
        ) & 3
        n_in = len(x)
        x, z = np.concatenate([x, nx]), np.concatenate([z, nz])
        order = np.lexsort((z, x))
        x, z = x[order], z[order]
        boundary = np.ones(len(x), dtype=bool)
        boundary[1:] = (x[1:] != x[:-1]) | (z[1:] != z[:-1])
        dest = np.empty(len(order), dtype=np.intp)
        dest[order] = np.cumsum(boundary) - 1
        x, z = x[boundary], z[boundary]
        sign = np.where(k == 1, 1, -1).astype(np.int8)
        n_quiet = int(np.count_nonzero(~anti))
        layers.append(PlanLayer(np.flatnonzero(anti), dest, sign, n_quiet, n_in, len(x)))
    return DressPlan(p.n_qubits, p.c, tuple(layers), x, z)


def reference_live_plan(plan: DressPlan, ref: ReferenceState) -> DressPlan:
    """``_packed.live_plan`` in two passes per layer: each layer is cut on its
    own from a mask over all its contributions, with their sources listed
    from ``np.arange`` and the live input rows scattered into zeros, then
    both row numberings are counted afresh; the reference signs are counted
    bit by bit.  Every ``PlanLayer`` field of the cut must equal this one's."""

    def cut_layer(layer: PlanLayer, n_in: int, live_out: np.ndarray):
        src = np.concatenate([np.arange(n_in), layer.src])  # every contribution's source
        is_base = np.arange(len(src)) < n_in
        is_anti = np.zeros(n_in, dtype=bool)
        is_anti[layer.src] = True
        keep = live_out[layer.dest]
        live_in = np.zeros(n_in, dtype=bool)
        live_in[src[keep]] = True
        row_in = np.cumsum(live_in, dtype=np.intp) - 1
        row_out = np.cumsum(live_out, dtype=np.intp) - 1
        quiet = np.flatnonzero(keep & is_base & ~is_anti[src])
        cos = np.flatnonzero(keep & is_base & is_anti[src])
        spawn = np.flatnonzero(keep & ~is_base)
        pick = np.concatenate([quiet, cos, spawn])
        cut = PlanLayer(
            row_in[src[pick]],
            row_out[layer.dest[pick]],
            layer.sign[spawn - n_in].astype(np.float64),
            len(quiet),
            len(quiet) + len(cos),
            int(np.count_nonzero(live_out)),
        )
        return cut, live_in

    live = plan.x == 0
    x, z = plan.x[live], plan.z[live]
    layers = []
    for layer in reversed(plan.layers):
        layer, live = cut_layer(layer, layer.n_base, live)
        layers.append(layer)
    d = np.array([-1.0 if bin(int(w) & ref.occupation).count("1") % 2 else 1.0 for w in z])
    return DressPlan(plan.n_qubits, plan.c[live], tuple(reversed(layers)), x, z, d)


def _scatter_form(layer: PlanLayer, cut: bool):
    """A layer's rows in the three-scatter form of the replay: (src,
    base_dest, anti, anti_dest, spawn_src, pos, spawn_dest).  ``src`` and
    ``base_dest`` cover every base row, ``anti`` and ``anti_dest`` the
    anticommuting ones, and ``pos`` is True where a spawned row gets
    +sin(t)."""
    base_dest, spawn_dest = layer.dest[:layer.n_base], layer.dest[layer.n_base:]
    if cut:
        src, spawn_src = layer.src[:layer.n_base], layer.src[layer.n_base:]
        anti = layer.src[layer.n_quiet:layer.n_base]
        anti_dest = layer.dest[layer.n_quiet:layer.n_base]
    else:
        src, spawn_src = slice(None), layer.src
        anti, anti_dest = layer.src, base_dest[layer.src]
    return src, base_dest, anti, anti_dest, spawn_src, layer.sign > 0, spawn_dest


def reference_energy_and_gradient(plan: DressPlan, amplitudes, ref: ReferenceState):
    """``_packed.energy_and_gradient`` by three scatters per layer: the base
    rows are written, the anticommuting ones overwritten with c cos(t), and
    the spawns added; the reverse pass scatters lambda back the same way.
    Energy and gradient must be ``==`` to these."""
    forms = [_scatter_form(layer, plan.cut) for layer in plan.layers]
    cs = [plan.c]
    for layer, (src, base_dest, anti, anti_dest, spawn_src, pos, spawn_dest), t in zip(
        plan.layers, forms, amplitudes, strict=True
    ):
        c, sin_t = cs[-1], np.sin(t)
        out = np.zeros(layer.n_out)
        out[base_dest] = c[src]
        out[anti_dest] = c[anti] * np.cos(t)
        out[spawn_dest] += c[spawn_src] * np.where(pos, sin_t, -sin_t)
        cs.append(out)
    diagonal, c = plan.x == 0, cs[-1]
    lam = np.where(diagonal, _packed._reference_sign(plan.z, ref), 0.0)
    energy = float(np.sum((lam * c)[diagonal & (c != 0.0)]))
    grad = [0.0] * len(plan.layers)
    for k in reversed(range(len(plan.layers))):
        src, base_dest, anti, anti_dest, spawn_src, pos, spawn_dest = forms[k]
        t, c = amplitudes[k], cs[k]
        sin_t, cos_t = np.sin(t), np.cos(t)
        spawn = lam[spawn_dest] * c[spawn_src]
        grad[k] = float(
            cos_t * _packed._sum(np.where(pos, spawn, -spawn))
            - sin_t * _packed._sum(lam[anti_dest] * c[anti])
        )
        back = np.zeros(len(c))
        back[src] = lam[base_dest]
        back[anti] = lam[anti_dest] * cos_t
        back[spawn_src] += lam[spawn_dest] * np.where(pos, sin_t, -sin_t)
        lam = back
    return energy, grad


def assert_same_plan(a: DressPlan, b: DressPlan):
    """Every field of two plans and of each of their layers is equal, index
    arrays with their dtype."""
    assert a.n_qubits == b.n_qubits and a.cut == b.cut
    assert a.c.tobytes() == b.c.tobytes()
    assert (a.d is None and b.d is None) or a.d.tobytes() == b.d.tobytes()
    assert np.array_equal(a.x, b.x) and np.array_equal(a.z, b.z)
    assert len(a.layers) == len(b.layers)
    for la, lb in zip(a.layers, b.layers):
        for name in PlanLayer.__dataclass_fields__:
            va, vb = getattr(la, name), getattr(lb, name)
            if isinstance(va, np.ndarray):
                assert va.dtype == vb.dtype and np.array_equal(va, vb), name
            else:
                assert va == vb, name


def reference_block_statistics(p: PackedSum, ref: ReferenceState):
    """``_packed.block_statistics`` with the diagonal and off-diagonal rows
    taken by boolean mask, the signs as float factors and D as a scalar loop
    per block: the form the prefix slices, sign flips and D reduction must
    match bit for bit."""
    occ = np.uint64(ref.occupation)
    diag_mask = p.x == 0
    diag_z = p.z[diag_mask]
    diag_parity = np.bitwise_count(diag_z & occ) % 2
    diag_vals = np.where(diag_parity == 1, -p.c[diag_mask], p.c[diag_mask])
    off = ~diag_mask
    if not np.any(off):
        return np.array([], dtype=np.uint64), np.array([]), np.array([])
    ox, oz, oc = p.x[off], p.z[off], p.c[off]
    sy = np.where(np.bitwise_count(ox & oz) % 4 == 0, 1.0, -1.0)
    par = np.where(np.bitwise_count(oz & occ) % 2 == 1, -1.0, 1.0)
    vals = oc * sy * par
    boundary = np.empty(len(ox), dtype=bool)
    boundary[0] = True
    boundary[1:] = ox[1:] != ox[:-1]
    starts = np.flatnonzero(boundary)
    xs = ox[starts]
    omega = np.add.reduceat(vals, starts)
    jmin_bit = xs & (~xs + np.uint64(1))
    omega_signed = np.where((jmin_bit & occ) != 0, -omega, omega)
    d_values = np.zeros(len(xs))
    for i, xb in enumerate(xs.tolist()):
        d = 0.0  # -2 v of each anticommuting diagonal row, left to right in key order
        for zd, vd in zip(diag_z.tolist(), diag_vals.tolist()):
            if (xb & zd).bit_count() % 2:
                d -= 2.0 * vd
        d_values[i] = d
    return xs, omega_signed, d_values


def reference_expectation(p: PackedSum, ref: ReferenceState) -> float:
    """``_packed.expectation_packed`` with the diagonal taken by mask."""
    diag = p.x == 0
    if not np.any(diag):
        return 0.0
    parity = np.bitwise_count(p.z[diag] & np.uint64(ref.occupation)) % 2
    return float(np.sum(np.where(parity == 1, -p.c[diag], p.c[diag])))


def chain_gradient(chain: PackedSum, tildes, ref: ReferenceState) -> list[float]:
    """dE/dt_j = Im <0| H_L T~_j |0> for each T~_j in ``tildes``: the
    reference for the reverse-pass gradient of ``_packed.energy_and_gradient``.

    ``chain`` is H_L, the sum dressed through every pair; T~_j is generator j
    dressed through pairs j+1..L.  Each word of T~_j meets only the x-group of
    H_L with the same x mask, because only a diagonal product survives <0|.|0>.
    """
    occ = np.uint64(ref.occupation)
    grad = []
    for tilde in tildes:
        gj = 0.0
        for wx, wz, cw in zip(tilde.x.tolist(), tilde.z.tolist(), tilde.c.tolist()):
            lo, hi = x_group_slice(chain, wx)
            if lo == hi:
                continue
            pz = chain.z[lo:hi]
            pc = chain.c[lo:hi]
            yw = (wx & wz).bit_count()
            # phase of P * W: the product is diagonal, so Im(i^k) = +-1
            m = np.bitwise_count(pz & np.uint64(wx)) % 4
            k = (3 * m + yw) % 4
            val = np.where(k == 1, pc, -pc)
            val = np.where(k % 2 == 1, val, 0.0)
            parity = np.bitwise_count((pz ^ np.uint64(wz)) & occ) % 2
            val = np.where(parity == 1, -val, val)
            gj += cw * float(np.sum(val))
        grad.append(gj)
    return grad


_PHASE = (1.0, 1j, -1.0, -1j)


class _ScalarAccumulator:
    """Complex-coefficient Pauli dict, one ``raw_multiply`` per factor."""

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

    def to_real_sum(self, tol: float = 1e-10) -> dict[tuple[int, int], float]:
        """{(x, z): real coefficient}, keys in key order (x, then z), so a
        hermiticity error names the first bad key in that order, as
        ``mapping._collapse`` does."""
        scale = max(max((abs(c) for c in self.terms.values()), default=1.0), 1.0)
        raw: dict[tuple[int, int], float] = {}
        for (x, z), c in sorted(self.terms.items()):
            word = PauliWord(x, z, self.n_qubits)
            if (x & z).bit_count() % 2 == 1:
                if abs(c) > tol * scale:
                    raise HermiticityError(
                        f"odd y-count word {render_word(word)} with coefficient {c:.3e}"
                    )
                continue
            if abs(c.imag) > tol * scale:
                raise HermiticityError(f"imaginary coefficient {c:.3e} on {render_word(word)}")
            if c.real != 0.0:
                raw[(x, z)] = c.real
        return raw


def reference_jordan_wigner(mi) -> PackedSum:
    """Scalar Jordan-Wigner expansion, one integral and one Pauli product at a
    time, sorted by key: the reference ``mapping.jordan_wigner`` must match
    bit for bit."""
    acc = _ScalarAccumulator(2 * mi.n_spatial)
    acc.add(0, 0, complex(mi.core_energy))
    for p, q in zip(*np.nonzero(mi.h1)):
        v = mi.h1[p, q]
        for spin in (0, 1):
            acc.add_ladder_product([(2 * int(p) + spin, True), (2 * int(q) + spin, False)], v)
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
    return from_terms_dict(acc.n_qubits, acc.to_real_sum())


def reference_spin_operators(n_qubits: int) -> tuple[PackedSum, PackedSum]:
    """Scalar (S^2, S_z), sorted by key: the reference for
    ``mapping.spin_operators``."""
    n_orb = n_qubits // 2
    s_z = {}
    for p in range(n_orb):
        s_z[(0, 1 << (2 * p + 1))] = 0.25
        s_z[(0, 1 << (2 * p))] = -0.25
    acc = _ScalarAccumulator(n_qubits)
    for (ax, az), ac in s_z.items():
        acc.add(ax, az, ac)
        for (bx, bz), bc in s_z.items():
            x, z, k = raw_multiply(ax, az, bx, bz)
            acc.add(x, z, ac * bc * _PHASE[k])
    for p in range(n_orb):
        for q in range(n_orb):
            acc.add_ladder_product(
                [(2 * p + 1, True), (2 * p, False), (2 * q, True), (2 * q + 1, False)], 1.0
            )
    return from_terms_dict(n_qubits, acc.to_real_sum()), from_terms_dict(n_qubits, s_z)


def reference_add(a: dict, b: dict) -> dict:
    """a + b for {(x, z): coefficient} dicts: b's terms added into a copy of
    a one at a time, exact zeros removed."""
    out = dict(a)
    for key, c in b.items():
        new = out.get(key, 0.0) + c
        if new == 0.0:
            out.pop(key, None)
        else:
            out[key] = new
    return out


def reference_penalize(h: PackedSum, mu: float, s: float) -> PackedSum:
    """h + mu (S^2 - s(s+1) S_z) by plain-dict adds, in dict order."""
    s_squared, s_z = (terms_dict(op) for op in reference_spin_operators(h.n_qubits))
    k = s * (s + 1.0)
    scaled = {key: -1.0 * (k * c) for key, c in s_z.items()} if k != 0.0 else {}
    w = reference_add(s_squared, scaled)
    return from_terms_dict(
        h.n_qubits, reference_add(terms_dict(h), {key: mu * c for key, c in w.items()})
    )


def reference_to_json_dict(p: PackedSum) -> dict:
    """The JSON form word by word: each term a ``PauliWord``, sorted by
    (weight, x, z) and rendered by ``render_word``."""
    words = sorted(
        ((PauliWord(x, z, p.n_qubits), c) for (x, z), c in terms_dict(p).items()),
        key=lambda wc: (wc[0].weight(), wc[0].x, wc[0].z),
    )
    return {
        "n_qubits": p.n_qubits,
        "terms": [{"word": render_word(w), "coeff": float(f"{c:.17g}")} for w, c in words],
    }


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


def fcidump_text(mi) -> str:
    """FCIDUMP text of the integrals ``mi``: every h1 and g2 entry (the
    symmetric copies agree) and the core energy, each value as its repr."""
    lines = [f"&FCI NORB={mi.n_spatial},NELEC={mi.n_electrons},MS2={mi.ms2},", "&END"]
    for tensor in (mi.g2, mi.h1):
        for idx in np.ndindex(tensor.shape):
            indices = [i + 1 for i in idx] + [0] * (4 - len(idx))
            lines.append(" ".join([repr(float(tensor[idx]))] + [str(i) for i in indices]))
    lines.append(f"{float(mi.core_energy)!r} 0 0 0 0")
    return "\n".join(lines) + "\n"


def random_symmetric_integrals(n_spatial: int, rng, core: float = 0.0):
    """Random integrals with full permutational symmetry: n_spatial
    electrons at the lowest spin, an MS2 of 0 or 1."""
    from iqcc.fcidump import MolecularIntegrals

    h1 = rng.normal(size=(n_spatial, n_spatial))
    h1 = 0.5 * (h1 + h1.T)
    g2 = rng.normal(size=(n_spatial,) * 4)
    g2 = g2 + g2.transpose(1, 0, 2, 3)
    g2 = g2 + g2.transpose(0, 1, 3, 2)
    g2 = g2 + g2.transpose(2, 3, 0, 1)
    return MolecularIntegrals(core, h1, g2, n_spatial, n_spatial, n_spatial % 2)


def reference_spin_resolved_spectrum(
    h: PackedSum, s_squared: PackedSum, s_z: PackedSum, sector: tuple[float, float]
) -> float:
    """``oracle.spin_resolved_spectrum`` on the whole 2^n space: dense H, S^2
    and S_z, both commutators checked, H diagonalized once, and S^2 then S_z
    resolved inside each near-degenerate cluster of its eigenvalues."""
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


def to_matrix(p: PackedSum) -> np.ndarray:
    """Dense 2^N x 2^N matrix of a packed sum, from the oracle's sparse one."""
    return to_sparse(p).toarray()


def word_matrix(w: PauliWord) -> np.ndarray:
    return to_matrix(pack([(w, 1.0)], w.n_qubits))


def reference_vector(ref: ReferenceState) -> np.ndarray:
    vec = np.zeros(1 << ref.n_qubits, dtype=complex)
    vec[ref.occupation] = 1.0
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
