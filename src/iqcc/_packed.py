"""Vectorized kernels over packed Pauli-sum arrays: the one implementation of
dressing, ranking statistics, energy and gradient.

``PackedSum`` is the one Pauli-sum type of the package: three parallel
arrays, x and z masks as uint64 and float64 coefficients, lexsorted by
(x, z) with exact duplicates merged and exact zeros dropped.  ``_canonical``
puts rows in that form, ``pack`` builds a sum from (PauliWord, coefficient)
pairs and ``unpack`` lists them again.  The uint64 masks bound the envelope
at ``pauli_sum.MAX_QUBITS`` (64) qubits; ``pack`` rejects wider sums with
:class:`CapacityError`.  Dressing reproduces the
scalar term-by-term reference (``reference_dress`` in ``tests/helpers.py``)
bit for bit, because every output key receives at most two float
contributions and addition is commutative in IEEE 754.  With x the primary
key each x-group is one slice, which ``block_statistics`` reduces over, and
the diagonal (x == 0) rows are the first rows: ``block_statistics`` and
``expectation_packed`` take them as a prefix slice, found by one binary
search, and the off-diagonal rows as the rest.

Rows are put in key order in one place.  ``_sort`` is the one stable (x, z)
sort: up to 32 qubits one argsort of a uint64 key, x shifted above z, which
is faster than ``lexsort`` of the pair; wider masks no longer fit one word
and fall back to ``lexsort``.  Both give the same permutation.
``_sorted_keys`` is the one grouping: the sorted table of distinct keys and
each row's slot in it.  Every canonical sum (``_canonical``, the
Jordan-Wigner table in ``mapping``) and every plan layer takes its keys and
slots from it, and ``_canonical`` sums each key's rows by slot, left to
right in row order, as the scalar references do.

Dressing has one kernel.  ``plan_chain`` sorts each layer of a chain of
generators once and records, per layer, where each row and each spawned row
lands.  A layer takes its anticommuting rows and its output keys by index,
drops each temporary as soon as it is last used, and checks the caller's
term budget on its input plus spawned rows before it concatenates or sorts
them.  ``_replay`` then dresses by scatter alone, with no sort and no
search, and ``run_plan`` drops the exact zeros once at the end.  A
generator only XORs its x mask into a word, so dressing keeps every row in
its coset of the GF(2) span of the generators' x masks (``span_split``).
An iteration plans the rows in the span once: its optimizer replays the
plan at many amplitudes, cut by ``live_plan`` to the rows that reach the
diagonal, and its final dressing replays it once at the optimum.  The
other rows never reach the diagonal, so they are dressed only at the end,
one generator at a time through ``dress_packed`` (a one-layer plan, so only
one layer's index arrays are alive at a time), and ``merge`` sorts the two
disjoint parts into one sum by ``_sort`` alone (``_add`` is the add of sums
that share keys); both arrive sorted, and up to 32 qubits the
stable argsort of the composite key, a timsort, finds the two runs and
merges them in linear time.  Each layer is linear in its input and the
energy is d . c_L, with d the signed indicator of the diagonal rows, so
``energy_and_gradient`` takes the gradient by one reverse pass of d through
the same index arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CapacityError, DimensionError, HermiticityError
from .pauli import PauliWord, render_masks
from .pauli_sum import ReferenceState, check_qubit_bound


def _popcount(a: np.ndarray) -> np.ndarray:
    return np.bitwise_count(a).astype(np.int64)


@dataclass(frozen=True)
class PackedSum:
    n_qubits: int
    x: np.ndarray  # uint64, lexsorted with x primary
    z: np.ndarray  # uint64
    c: np.ndarray  # float64

    def __len__(self) -> int:
        return len(self.c)


def _sort(n_qubits: int, x: np.ndarray, z: np.ndarray):
    """Stable (x, z) sort: (order, x[order], z[order]).

    Up to 32 qubits both masks fit one uint64 key, x in the high bits, and
    one stable argsort of it gives the permutation of ``lexsort((z, x))``.
    """
    if n_qubits <= 32:
        order = np.argsort((x << np.uint64(n_qubits)) | z, kind="stable")
    else:
        order = np.lexsort((z, x))  # stable: x primary, z secondary
    return order, x[order], z[order]


def _sorted_keys(n_qubits: int, x: np.ndarray, z: np.ndarray):
    """The sorted table of distinct (x, z) keys and each row's slot in it:
    (slot, table x, table z)."""
    order, x, z = _sort(n_qubits, x, z)
    first = np.ones(len(x), dtype=bool)  # the first sorted row of each key
    np.logical_or(x[1:] != x[:-1], z[1:] != z[:-1], out=first[1:])
    slot = np.empty(len(order), dtype=np.intp)
    slot[order] = np.cumsum(first) - 1
    return slot, x[first], z[first]


def _canonical(n_qubits: int, x: np.ndarray, z: np.ndarray, c: np.ndarray) -> PackedSum:
    """The rows (x, z, c) as a canonical sum: sorted, each key's rows summed
    left to right in row order, zeros dropped."""
    slot, x, z = _sorted_keys(n_qubits, x, z)
    summed = np.bincount(slot, weights=c, minlength=len(x))
    keep = summed != 0.0
    return PackedSum(n_qubits, x[keep], z[keep], summed[keep])


def _add(a: PackedSum, b: PackedSum) -> PackedSum:
    """``a + b`` for canonical sums that may share keys; a shared key's
    coefficient is a's plus b's."""
    return _canonical(
        a.n_qubits,
        np.concatenate([a.x, b.x]),
        np.concatenate([a.z, b.z]),
        np.concatenate([a.c, b.c]),
    )


def pack(terms, n_qubits: int) -> PackedSum:
    """The canonical sum of a sequence of (PauliWord, coefficient) pairs over
    ``n_qubits``; a repeated word's coefficients are summed left to right in
    input order, and zeros dropped."""
    check_qubit_bound(n_qubits)
    for word, _ in terms:
        if word.n_qubits != n_qubits:
            raise DimensionError(f"word over {word.n_qubits} qubits in a {n_qubits}-qubit sum")
        if word.phase_exp:
            raise ValueError("sums are keyed on canonical words (phase_exp == 0)")
    x = np.array([word.x for word, _ in terms], dtype=np.uint64)
    z = np.array([word.z for word, _ in terms], dtype=np.uint64)
    c = np.array([coeff for _, coeff in terms], dtype=np.float64)
    return _canonical(n_qubits, x, z, c)


def unpack(p: PackedSum) -> list[tuple[PauliWord, float]]:
    """The (PauliWord, coefficient) pairs of ``p``, in its key order."""
    return [
        (PauliWord(xi, zi, p.n_qubits), ci)
        for xi, zi, ci in zip(p.x.tolist(), p.z.tolist(), p.c.tolist())
    ]


def span_split(p: PackedSum, generators) -> tuple[PackedSum, PackedSum]:
    """The rows of ``p`` whose x mask lies in the GF(2) span of the
    generators', and the other rows.

    Both parts keep the order of ``p``, so each is canonical too.
    """
    basis: list[int] = []  # echelon form: distinct top bits, descending
    for gen in generators:
        v = gen.x
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    r = p.x.copy()
    for b in basis:  # descending top bits: clear each one from every row
        top = np.uint64(1 << (b.bit_length() - 1))
        np.bitwise_xor(r, np.uint64(b), out=r, where=(r & top) != 0)
    inside = r == 0
    outside = ~inside
    return (
        PackedSum(p.n_qubits, p.x[inside], p.z[inside], p.c[inside]),
        PackedSum(p.n_qubits, p.x[outside], p.z[outside], p.c[outside]),
    )


def merge(a: PackedSum, b: PackedSum) -> PackedSum:
    """``a + b`` for two canonical sums with no key in common."""
    order, x, z = _sort(a.n_qubits, np.concatenate([a.x, b.x]), np.concatenate([a.z, b.z]))
    return PackedSum(a.n_qubits, x, z, np.concatenate([a.c, b.c])[order])


@dataclass(frozen=True)
class PlanLayer:
    """Row structure of one dressing step: rows in, where they land, rows out.

    In a plan from ``plan_chain`` every input row has a base row, ``src`` is
    ``slice(None)`` and ``spawn_src`` is ``anti``; ``live_plan`` cuts each
    array to the rows that reach a kept row.  Indices are intp: numpy
    converts any other index type on every use.
    """

    src: np.ndarray | slice  # input rows with a base row, ascending
    base_dest: np.ndarray  # per ``src`` row: its base row in the next layer
    anti: np.ndarray  # anticommuting input rows with a base row, ascending
    anti_dest: np.ndarray  # per ``anti`` row: its base row, which takes c*cos(t)
    spawn_src: np.ndarray  # anticommuting input rows with a spawned row, ascending
    pos: np.ndarray  # bool per spawned row: k == 1, i.e. it gets +sin(t)
    spawn_dest: np.ndarray  # per spawned row: its row in the next layer
    n_out: int


@dataclass(frozen=True)
class DressPlan:
    """The dressing of a fixed sum by fixed generators, at any amplitudes.

    ``x``/``z`` are the keys of the last layer: every key any amplitude can
    reach, or in a ``live_plan`` cut the diagonal ones.  ``len`` is the
    number of input rows.
    """

    n_qubits: int
    generators: tuple[PauliWord, ...]
    c: np.ndarray  # float64 input coefficients
    layers: tuple[PlanLayer, ...]
    x: np.ndarray
    z: np.ndarray

    def __len__(self) -> int:
        return len(self.c)


def plan_chain(p: PackedSum, generators, max_terms: int | None = None) -> DressPlan:
    """Sort each layer of the chain once: the plan ``run_plan`` replays.

    No row is dropped along the way, so every layer holds all keys that some
    amplitudes reach; base and spawned keys are each unique, so a key gets at
    most one of each.  A layer whose input and spawned rows number more than
    ``max_terms`` raises :class:`CapacityError` before they are concatenated.
    """
    generators = tuple(generators)
    x, z = p.x, p.z
    layers = []
    for gen in generators:
        tx, tz = np.uint64(gen.x), np.uint64(gen.z)
        # the rows anticommuting with the generator: the parity of a sum of
        # popcounts is the parity of the XOR's popcount; a uint8 of 0 or 1 is
        # a valid bool, which ``flatnonzero`` scans faster
        rows = np.flatnonzero((np.bitwise_count((x & tz) ^ (z & tx)) & 1).view(bool))
        n_in = len(x)
        if max_terms is not None and n_in + len(rows) > max_terms:
            raise CapacityError(
                f"a dressing layer of {n_in + len(rows)} terms exceeds the budget of {max_terms}"
            )
        ax, az = x[rows], z[rows]
        nx, nz = ax ^ tx, az ^ tz
        # a spawned row gets +sin(t) of its parent's coefficient where k == 1,
        # -sin(t) elsewhere; uint8 wraps mod 256, which keeps k right mod 4
        k = (
            np.bitwise_count(ax & az)
            + np.uint8(gen.y_count())
            - np.bitwise_count(nx & nz)
            + 2 * np.bitwise_count(az & tx)
        ) & 3
        del ax, az
        slot, x, z = _sorted_keys(p.n_qubits, np.concatenate([x, nx]), np.concatenate([z, nz]))
        del nx, nz
        base_dest, spawn_dest = slot[:n_in], slot[n_in:]
        layers.append(PlanLayer(
            slice(None), base_dest, rows, base_dest[rows], rows, k == 1, spawn_dest, len(x)
        ))
    return DressPlan(p.n_qubits, generators, p.c, tuple(layers), x, z)


def _cut_layer(layer: PlanLayer, n_in: int, live_out: np.ndarray):
    """``layer`` cut to the contributions that land in a ``live_out`` row,
    renumbered in order; also the mask of the input rows that still
    contribute."""
    src = np.arange(n_in)[layer.src]
    keep_base = live_out[layer.base_dest]
    keep_anti = live_out[layer.anti_dest]
    keep_spawn = live_out[layer.spawn_dest]
    live_in = np.zeros(n_in, dtype=bool)
    live_in[src[keep_base]] = True
    live_in[layer.spawn_src[keep_spawn]] = True  # an anti row's base row is a src row
    row_in = np.cumsum(live_in, dtype=np.intp) - 1
    row_out = np.cumsum(live_out, dtype=np.intp) - 1
    kept_src = row_in[src[keep_base]]
    cut = PlanLayer(
        # ascending and distinct, so every live row when there are as many
        slice(None) if len(kept_src) == np.count_nonzero(live_in) else kept_src,
        row_out[layer.base_dest[keep_base]],
        row_in[layer.anti[keep_anti]],
        row_out[layer.anti_dest[keep_anti]],
        row_in[layer.spawn_src[keep_spawn]],
        layer.pos[keep_spawn],
        row_out[layer.spawn_dest[keep_spawn]],
        int(np.count_nonzero(live_out)),
    )
    return cut, live_in


def live_plan(plan: DressPlan) -> DressPlan:
    """``plan`` cut to the rows an optimizer evaluation reads.

    A last-layer row is read if it is diagonal: only those carry the energy
    and only those start the reverse pass of ``energy_and_gradient``.  An
    earlier row is live if its base row or its spawned row is.  Every layer
    keeps its live rows in order, so ``run_plan`` gives the diagonal with the
    same rows, in the same order and with the same values as from ``plan``,
    and the rows the cut drops add only zeros to the gradient.
    """
    live = plan.x == 0
    x, z = plan.x[live], plan.z[live]
    n_in = [len(plan.c)] + [layer.n_out for layer in plan.layers[:-1]]
    layers = []
    for layer, n in zip(reversed(plan.layers), reversed(n_in)):
        layer, live = _cut_layer(layer, n, live)
        layers.append(layer)
    return replace(plan, c=plan.c[live], layers=tuple(reversed(layers)), x=x, z=z)


def _replay(plan: DressPlan, amplitudes):
    """The coefficients of each layer of ``plan`` at ``amplitudes``, the
    input first.

    A base row keeps c or takes c*cos(t), a spawned row adds +-c*sin(t) to
    its key; -(c*s) and c*(-s) are the same double, so the sign rides on s.
    """
    c = plan.c
    yield c
    for layer, t in zip(plan.layers, amplitudes, strict=True):
        sin_t = np.sin(t)
        out = np.zeros(layer.n_out)
        out[layer.base_dest] = c[layer.src]
        out[layer.anti_dest] = c[layer.anti] * np.cos(t)
        out[layer.spawn_dest] += c[layer.spawn_src] * np.where(layer.pos, sin_t, -sin_t)
        c = out
        yield c


def _last_layer(plan: DressPlan, c: np.ndarray) -> PackedSum:
    keep = c != 0.0
    return PackedSum(plan.n_qubits, plan.x[keep], plan.z[keep], c[keep])


def run_plan(plan: DressPlan, amplitudes) -> PackedSum:
    """The sum of ``plan`` dressed at ``amplitudes``.

    Bit for bit what ``dress_packed`` gives one generator at a time: a key's
    base and spawn contributions are summed in the same order, and an exact
    zero kept between layers only ever adds zero to another key.  Only the
    layer being built and its input are alive at a time.
    """
    for c in _replay(plan, amplitudes):
        pass
    return _last_layer(plan, c)


def _sum(a: np.ndarray) -> float:
    """Left-to-right sum.  An exact zero leaves a non-zero partial sum as it
    is, so a ``live_plan`` cut, which drops only zero products, gives the sum
    of the full plan; ``np.sum`` and ``np.dot`` block by length instead."""
    return float(np.cumsum(a)[-1]) if len(a) else 0.0


def energy_and_gradient(
    plan: DressPlan, amplitudes, ref: ReferenceState
) -> tuple[float, list[float]]:
    """<0|H_L|0> and its derivative in each amplitude, from one plan.

    The energy is ``expectation_packed`` of ``run_plan``'s sum.  E = d . c_L
    with d the signed indicator of the diagonal rows, so lambda = dE/dc
    pulls back from d through each layer: a base row copies lambda, an anti
    row takes lambda*cos(t), a parent adds +-sin(t) lambda of its spawned
    row.  With c a layer's input and lambda its output, dE/dt is
    cos(t) sum(+-lambda[spawn_dest] c[spawn_src]) - sin(t) sum(lambda[anti_dest] c[anti]).
    """
    cs = list(_replay(plan, amplitudes))
    energy = expectation_packed(_last_layer(plan, cs[-1]), ref)
    parity = _popcount(plan.z & np.uint64(ref.occupation)) % 2
    lam = np.where(plan.x == 0, np.where(parity == 1, -1.0, 1.0), 0.0)
    grad = [0.0] * len(plan.layers)
    for k in reversed(range(len(plan.layers))):
        layer, t, c = plan.layers[k], amplitudes[k], cs[k]
        sin_t, cos_t = np.sin(t), np.cos(t)
        spawn = lam[layer.spawn_dest] * c[layer.spawn_src]
        grad[k] = float(
            cos_t * _sum(np.where(layer.pos, spawn, -spawn))
            - sin_t * _sum(lam[layer.anti_dest] * c[layer.anti])
        )
        if k == 0:
            break  # no amplitude reads the input rows' lambda
        back = np.zeros(len(c))
        back[layer.src] = lam[layer.base_dest]
        back[layer.anti] = lam[layer.anti_dest] * cos_t
        back[layer.spawn_src] += lam[layer.spawn_dest] * np.where(layer.pos, sin_t, -sin_t)
        lam = back
    return energy, grad


def dress_packed(
    p: PackedSum, t_gen: PauliWord, t_opt: float, max_terms: int | None = None
) -> PackedSum:
    """Conjugation of ``p`` by exp(-i t_opt T / 2): the one-layer plan of
    ``p`` replayed at ``t_opt``; ``max_terms`` bounds the layer as in
    ``plan_chain``."""
    if t_opt == 0.0 or len(p) == 0:
        return p
    return run_plan(plan_chain(p, (t_gen,), max_terms), (t_opt,))


def _n_diagonal(p: PackedSum) -> int:
    """The number of rows with x == 0, which sort first in a canonical sum."""
    return int(np.searchsorted(p.x, np.uint64(0), side="right"))


def expectation_packed(p: PackedSum, ref: ReferenceState) -> float:
    """<0|p|0>: diagonal words only, occupied qubits give -1 per z factor."""
    if p.n_qubits != ref.n_qubits:
        raise DimensionError("sum and reference state qubit counts differ")
    n_diag = _n_diagonal(p)
    if n_diag == 0:
        return 0.0
    occ = np.uint64(ref.occupation)
    dz, dc = p.z[:n_diag], p.c[:n_diag]
    vals = np.where(np.bitwise_count(dz & occ) & 1, -dc, dc)
    return float(np.sum(vals))


def x_group_slice(p: PackedSum, wx: int) -> tuple[int, int]:
    """Index range of terms with the given x mask (x-groups are contiguous)."""
    wx = np.uint64(wx)
    lo = int(np.searchsorted(p.x, wx, side="left"))
    hi = int(np.searchsorted(p.x, wx, side="right"))
    return lo, hi


def block_statistics(
    p: PackedSum, ref: ReferenceState
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per distinct off-diagonal x-support: (x, omega_signed, D).

    omega_signed = <0|I_k|0> times the reference z-eigenvalue at the lowest
    x position (the sign of dE/dt at t=0 for the canonical generator), and
    D = <0|T H T - H|0> = -2 * sum of diagonal terms anticommuting with the
    generator.  Raises on odd-y words (non-hermitian input).
    """
    occ = np.uint64(ref.occupation)
    odd_y = np.flatnonzero(np.bitwise_count(p.x & p.z) & 1)
    if len(odd_y):
        bad = int(odd_y[0])
        raise HermiticityError(
            f"odd y-count word {render_masks(int(p.x[bad]), int(p.z[bad]))} in operator"
        )

    n_diag = _n_diagonal(p)
    if n_diag == len(p):
        empty = np.array([], dtype=np.uint64)
        return empty, np.array([]), np.array([])
    diag_z, diag_c = p.z[:n_diag], p.c[:n_diag]
    diag_vals = np.where(np.bitwise_count(diag_z & occ) & 1, -diag_c, diag_c)
    ox, oz, oc = p.x[n_diag:], p.z[n_diag:], p.c[n_diag:]
    # <0|I_k|0> contributions: the coefficient negated once for a y-count of
    # 2 mod 4 and once for an odd reference parity (the y-count is even)
    neg = ((np.bitwise_count(ox & oz) >> 1) ^ np.bitwise_count(oz & occ)) & 1
    vals = np.where(neg.view(bool), -oc, oc)
    boundary = np.empty(len(ox), dtype=bool)
    boundary[0] = True
    boundary[1:] = ox[1:] != ox[:-1]
    starts = np.flatnonzero(boundary)
    xs = ox[starts]
    omega = np.add.reduceat(vals, starts)
    # sign of the reference z-eigenvalue at the substituted (lowest-x) qubit
    jmin_bit = xs & (~xs + np.uint64(1))
    omega_signed = np.where((jmin_bit & occ) != 0, -omega, omega)

    n_blocks = len(xs)
    d_values = np.zeros(n_blocks)
    # a uint8 of 0 or 1 is a valid bool: each mask is a view, not a compare
    if len(diag_z) <= n_blocks:
        for zd, vd in zip(diag_z.tolist(), diag_vals.tolist()):
            odd = (np.bitwise_count(xs & np.uint64(zd)) & 1).view(bool)
            d_values[odd] -= 2.0 * vd
    else:
        for i, xb in enumerate(xs.tolist()):
            odd = (np.bitwise_count(diag_z & np.uint64(xb)) & 1).view(bool)
            d_values[i] = -2.0 * float(np.sum(diag_vals[odd]))
    return xs, omega_signed, d_values
