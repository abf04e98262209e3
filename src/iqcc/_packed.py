"""Vectorized kernels over packed Pauli-sum arrays: the one implementation of
dressing, ranking statistics, energy and gradient.

The bottom layer of the Pauli-sum code: it imports only ``pauli`` and
``errors``.  ``PackedSum`` is the one Pauli-sum type of the package: three
parallel arrays, x and z masks as uint64 and float64 coefficients,
lexsorted by (x, z) with exact duplicates merged and exact zeros dropped.
``_canonical`` puts rows in that form, ``pack`` builds a sum from
(PauliWord, coefficient) pairs and ``unpack`` lists them again.  The uint64
masks bound the envelope at ``MAX_QUBITS`` (64) qubits
(``check_qubit_bound``); ``pack`` rejects wider sums with
:class:`CapacityError`.  ``ReferenceState`` is the product state that the
expectation, the ranking statistics and a cut are taken in.  Dressing
reproduces the scalar term-by-term reference (``reference_dress`` in
``tests/helpers.py``) bit for bit, because every output key receives at
most two float contributions and addition is commutative in IEEE 754.  With
x the primary key each x-group is one slice, which ``block_statistics``
reduces over, and the diagonal (x == 0) rows are the first rows:
``block_statistics`` and ``expectation_packed`` take them as a prefix
slice, found by one binary search, and the off-diagonal rows as the rest.
The ranking and the PT correction read ``block_statistics``' arrays as they
are.  A block's D is one left-to-right sum over the diagonal rows in key
order, whatever the row and block counts: a sum down a column, not a
matmul, whose summation order BLAS picks by thread count.

Rows are put in key order in one place.  ``_key`` builds the sort key of
rows and is the one place its width is chosen: up to 32 qubits one uint64
column, x shifted above z, whose argsort is faster than ``lexsort`` of the
pair; above, the two columns (x, z).  ``_masks`` splits a key back into
masks, ``_sort`` is the one stable sort of a key (argsort or ``lexsort``,
the same permutation), ``_rank`` the one search of a sorted key, and
``_group`` the one grouping: the sorted table of distinct keys and each
row's slot in it, the same at either width.  ``_canonical`` (so ``pack``
and ``from_json_dict``) groups the rows' key by ``_group``, splits the table
by ``_masks`` and sums each key's rows by slot, left to right in row order,
as the scalar references do.  The Jordan-Wigner table in ``mapping`` is
built by two ``_group`` calls too: one over its ladder products' signatures
and one over the keys they imply.

Dressing has one kernel.  ``plan_chain`` sorts each layer of a chain of
generators once and records each layer as one list of contributions
(``PlanLayer``): every input row's base row, taking 1 or cos(t), then every
anticommuting row's spawned row, taking +-sin(t).  It keys its input once
and splits the last layer's table into masks once; in between, a layer
takes its anticommuting rows from the key by index, keeps ``_group``'s
slots as its output rows, and checks the caller's term budget on its input
plus spawned rows before it concatenates or sorts them.  ``_replay`` then
dresses a layer by one gather, one multiply and one ``np.bincount``, with
no sort and no search, and ``run_plan`` drops the exact zeros once at the
end.  ``np.bincount`` adds each output row's base and spawn products in list
order, base first, from +0.0: the same two floats as the term-by-term
reference, so every non-zero coefficient is bit for bit the same; an exact
-0.0 becomes +0.0, and such a row never reaches the energy (which skips
c == 0) nor a non-zero sum.  A generator only XORs its x mask into a word,
so dressing keeps every row in its coset of the GF(2) span of the
generators' x masks (``span_split``).  An iteration plans the rows in the
span once: its optimizer replays the plan at many amplitudes, cut to the
rows that reach the diagonal by one backward sweep (``live_plan``, whose
layers list their base rows quiet first, so that each factor covers a
slice), and its final dressing replays it once at the optimum.  The other
rows never reach the diagonal, so they are dressed only at the end, one
generator at a time, by a one-layer plan replayed once (``dress_packed``).
``merge`` joins the coset's and the other rows' sums, which share no key,
without a sort (``_add`` is the add of sums that share keys): ``_rank``
finds where each row of one falls among the other's keys, and every row is
placed at its index in the union.  Each layer is linear in its input and
the energy is d . c_L, with d the signed indicator of the diagonal rows
(``_reference_sign``, taken once per cut and held by it), so
``energy_and_gradient``, whose one input is a cut, sums d * c_L for the
energy and takes the gradient by one reverse pass of d through the same
contributions: one gather of lambda, the two gradient sums over slices and
one ``np.bincount`` per layer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .errors import CapacityError, DimensionError, HermiticityError
from .pauli import PauliWord, render_masks

MAX_QUBITS = 64  # width of the uint64 masks
_D_CHUNK_ENTRIES = 1 << 18  # diagonal rows x blocks per D chunk: ~9 bytes each at the peak
_PAIR = np.dtype([("x", np.uint64), ("z", np.uint64)])  # a two-column key's row


def check_qubit_bound(n_qubits: int) -> None:
    """Reject a negative qubit count, or one wider than the masks."""
    if n_qubits < 0:
        raise DimensionError(f"negative qubit count {n_qubits}")
    if n_qubits > MAX_QUBITS:
        raise CapacityError(f"{n_qubits} qubits exceeds the {MAX_QUBITS}-qubit bound")


@dataclass(frozen=True, slots=True)
class ReferenceState:
    """Fixed qubit product state: bit j set means qubit j occupied (spin-down).

    Occupied means z-eigenvalue -1, and ``occupation`` is the state's index
    in the oracle's basis.  The state never changes during iQCC iterations.
    """

    occupation: int
    n_qubits: int

    def __post_init__(self):
        if self.occupation & ~((1 << self.n_qubits) - 1):
            raise DimensionError("occupation mask exceeds qubit count")


def _reference_sign(z: np.ndarray, ref: ReferenceState) -> np.ndarray:
    """<0|Z^z|0> of each diagonal word's z mask: +-1.0, so c times it is exact."""
    return np.where(np.bitwise_count(z & np.uint64(ref.occupation)) & 1, -1.0, 1.0)


@dataclass(frozen=True)
class PackedSum:
    n_qubits: int
    x: np.ndarray  # uint64, lexsorted with x primary
    z: np.ndarray  # uint64
    c: np.ndarray  # float64

    def __len__(self) -> int:
        return len(self.c)


def _key(n_qubits: int, x, z) -> tuple:
    """The sort key of rows (x, z), a tuple of uint64 columns: up to 32
    qubits one column, x shifted above z; above, the two columns (x, z)."""
    if n_qubits <= 32:
        return ((x << np.uint64(n_qubits)) | z,)
    return (x, z)


def _masks(n_qubits: int, key: tuple):
    """The (x, z) masks of a key from ``_key``."""
    if len(key) == 2:
        return key
    return key[0] >> np.uint64(n_qubits), key[0] & np.uint64((1 << n_qubits) - 1)


def _sort(key: tuple) -> np.ndarray:
    """The stable sort of rows by ``key``: one argsort of a one-column key,
    ``lexsort`` of two, whose primary column is the first."""
    if len(key) == 1:
        return np.argsort(key[0], kind="stable")
    return np.lexsort(key[::-1])


def _rank(table: tuple, key: tuple) -> np.ndarray:
    """The number of rows of ``table``, a sorted key from ``_key``, that sort
    before each row of ``key``: one ``searchsorted`` of a one-column key; of
    two, of their (x, z) pairs viewed as one structured column, which
    ``searchsorted`` orders field by field."""
    if len(table) == 1:
        return np.searchsorted(table[0], key[0])
    return np.searchsorted(*(np.column_stack(k).view(_PAIR).ravel() for k in (table, key)))


def _group(key: tuple):
    """The sorted table of distinct keys and each row's slot in it: (slot,
    table).  The sorted rows' ranks scatter them into the table, ~3x faster
    than a boolean compress, and a cumsum of intp is ~3x faster than of bool."""
    order = _sort(key)
    key = tuple(col[order] for col in key)
    rank = np.empty(len(order), dtype=np.intp)  # 1 where a new key starts, then its rank
    rank[:1] = 0
    np.not_equal(key[0][1:], key[0][:-1], out=rank[1:])
    for col in key[1:]:
        rank[1:] |= col[1:] != col[:-1]
    np.cumsum(rank, out=rank)
    slot = np.empty(len(order), dtype=np.intp)
    slot[order] = rank
    table = tuple(np.empty(len(rank) and int(rank[-1]) + 1, dtype=np.uint64) for _ in key)
    for t, col in zip(table, key):
        t[rank] = col
    return slot, table


def _canonical(n_qubits: int, x: np.ndarray, z: np.ndarray, c: np.ndarray) -> PackedSum:
    """The rows (x, z, c) as a canonical sum: sorted, each key's rows summed
    left to right in row order, zeros dropped."""
    slot, table = _group(_key(n_qubits, x, z))
    x, z = _masks(n_qubits, table)
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
    """``a + b`` for two canonical sums with no key in common, sorting
    nothing: row i of b goes to index i plus the number of a's keys below
    it, and a's rows fill the other indices in order."""
    n = a.n_qubits
    at = _rank(_key(n, a.x, a.z), _key(n, b.x, b.z))
    at += np.arange(len(b))
    rest = np.ones(len(a) + len(b), dtype=bool)
    rest[at] = False
    out = []
    for col_a, col_b in ((a.x, b.x), (a.z, b.z), (a.c, b.c)):
        col = np.empty(len(rest), dtype=col_a.dtype)
        col[at] = col_b
        col[rest] = col_a
        out.append(col)
    return PackedSum(n, *out)


@dataclass(frozen=True)
class PlanLayer:
    """One dressing step as a list of contributions: contribution i adds its
    source input row, times its factor, to the output row ``dest[i]``, and
    ``np.bincount`` sums each output row's contributions in list order.

    The list holds the base rows [0, n_base), then the spawned rows, whose
    factor is sign * sin(t).  A base row's factor is 1 where its input row
    commutes with the generator (a quiet row), else cos(t).  Each part is
    ascending in its source row.

    * A ``live_plan`` cut (``DressPlan.cut``) lists in ``src`` the source
      of every contribution, and its base rows are the quiet ones
      [0, n_quiet), then the anticommuting ones [n_quiet, n_base).  Its
      signs are float64: a cut is replayed at many amplitudes, and a double
      times an int8 array takes about twice as long as times a float64 one.
    * A ``plan_chain`` layer keeps ``_group``'s slots as ``dest``, with no
      gather: its base rows are its n_base input rows in order, and ``src``
      lists the sources of its spawned rows only.  Those are the
      anticommuting rows, one spawn each, and their base rows take cos(t)
      by index.  ``n_quiet`` counts the quiet rows, and its signs are int8,
      an eighth of the bytes.

    Indices are intp: numpy converts any other index type on every use.
    """

    src: np.ndarray
    dest: np.ndarray  # output row of each contribution
    sign: np.ndarray  # per spawned row: 1 where it gets +sin(t), else -1
    n_quiet: int
    n_base: int
    n_out: int


@dataclass(frozen=True)
class DressPlan:
    """The dressing of a fixed sum by fixed generators, at any amplitudes.

    ``x``/``z`` are the keys of the last layer: every key any amplitude can
    reach, or in a ``live_plan`` cut the diagonal ones.  A plan is a cut
    when it holds ``d``, the sign of each of its rows in the reference state
    it was cut for (``_reference_sign``), from which every evaluation's
    reverse pass starts.  ``len`` is the number of input rows.  Layer j
    takes the j-th amplitude of a replay.
    """

    n_qubits: int
    c: np.ndarray  # float64 input coefficients
    layers: tuple[PlanLayer, ...]
    x: np.ndarray
    z: np.ndarray
    d: np.ndarray | None = None  # a cut's read-only +-1.0 per row

    @property
    def cut(self) -> bool:
        return self.d is not None

    def __len__(self) -> int:
        return len(self.c)


def _scale(layer: PlanLayer, w: np.ndarray, cut: bool, cos_t, sin_t) -> np.ndarray:
    """``w``, one entry per contribution of ``layer``, times each one's
    factor, in place; ``cut`` says which form the layer has."""
    w[slice(layer.n_quiet, layer.n_base) if cut else layer.src] *= cos_t
    w[layer.n_base:] *= layer.sign * sin_t
    return w


def _bincount(rows: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """The sum of ``weights`` at each row 0..n-1, added in list order from
    +0.0; float64 also with no weights, where ``np.bincount`` gives int64."""
    if len(rows) == 0:
        return np.zeros(n)
    return np.bincount(rows, weights, n)


def _y_count(n_qubits: int, key: tuple) -> np.ndarray:
    """popcount(x & z) of each row of a key from ``_key``."""
    x = key[0] >> np.uint64(n_qubits) if len(key) == 1 else key[0]
    return np.bitwise_count(x & key[-1])


def plan_chain(p: PackedSum, generators, max_terms: int | None = None) -> DressPlan:
    """Sort each layer of the chain once: the plan ``run_plan`` replays.

    Every layer works on the input's ``_key``, built once, and groups its
    input and spawned rows with one ``_group``, whose slots are the layer's
    ``dest`` as they come; the last layer's table is split into masks once.
    No row is dropped along the way, so every layer holds all keys that some
    amplitudes reach; base and spawned keys are each unique, so a key gets
    at most one of each.  A layer whose input and spawned rows number more
    than ``max_terms`` raises :class:`CapacityError` before they are
    concatenated.
    """
    n = p.n_qubits
    key = _key(n, p.x, p.z)
    layers = []
    for gen in generators:
        tx, tz = np.uint64(gen.x), np.uint64(gen.z)
        word = _key(n, tx, tz)
        # the rows anticommuting with the generator: popcount(x & tz) +
        # popcount(z & tx) is odd, the key & the generator's swapped key; a
        # uint8 of 0 or 1 is a valid bool, which ``flatnonzero`` scans faster
        meet = reduce(np.bitwise_xor, map(np.bitwise_and, key, _key(n, tz, tx)))
        odd = np.bitwise_count(meet) & 1
        del meet
        rows = np.flatnonzero(odd.view(bool))
        n_in = len(odd)
        if max_terms is not None and n_in + len(rows) > max_terms:
            raise CapacityError(
                f"a dressing layer of {n_in + len(rows)} terms exceeds the budget of {max_terms}"
            )
        parents = tuple(col[rows] for col in key)
        spawned = tuple(col ^ w for col, w in zip(parents, word))
        # a spawned row gets +sin(t) of its parent's coefficient where k == 1,
        # -sin(t) where k == 3, so its sign is 2 - k, an int8; uint8 wraps mod
        # 256, which keeps k right mod 4 and makes 2 - 3 the int8 -1; the last
        # column holds z in its low bits, so & tx reads z & tx
        k = (
            _y_count(n, parents)
            + np.uint8(gen.y_count())
            - _y_count(n, spawned)
            + 2 * np.bitwise_count(parents[-1] & tx)
        ) & 3
        sign = (np.uint8(2) - k).view(np.int8)
        del parents
        slot, key = _group(tuple(np.concatenate(pair) for pair in zip(key, spawned)))
        del spawned
        layers.append(PlanLayer(rows, slot, sign, n_in - len(rows), n_in, len(key[0])))
    return DressPlan(n, p.c, tuple(layers), *_masks(n, key))


def live_plan(plan: DressPlan, ref: ReferenceState) -> DressPlan:
    """``plan``, a plan from ``plan_chain``, cut to the rows an optimizer
    evaluation in ``ref`` reads; a plan already cut raises ``ValueError``,
    and a reference over another qubit count :class:`DimensionError`.

    A last-layer row is read if it is diagonal: only those carry the energy
    and only those start the reverse pass of ``energy_and_gradient``.  An
    earlier row is live if its base row or its spawned row is.  One backward
    sweep masks each layer's contributions by ``live[dest]`` and numbers its
    live input rows in order, which is the output numbering of the layer
    before, so ``run_plan`` gives the diagonal rows in the same order and
    with the same values as from ``plan``, and the rows the cut drops add
    only zeros to the gradient.  The cut lists its base rows quiet first,
    so that each factor covers one slice.  The reference signs of the
    diagonal rows are taken here, once per cut, not once per evaluation.
    """
    if plan.cut:
        raise ValueError("live_plan cuts a plan from plan_chain, not a cut plan")
    if plan.n_qubits != ref.n_qubits:
        raise DimensionError("sum and reference state qubit counts differ")
    live = diagonal = plan.x == 0
    row_out = np.cumsum(live, dtype=np.intp) - 1
    n_out = int(np.count_nonzero(live))
    layers = []
    for layer in reversed(plan.layers):
        n_in = layer.n_base
        keep = live[layer.dest]
        base = keep[:n_in]  # the kept base rows, by input row
        cos = layer.src[base[layer.src]]
        spawned = np.flatnonzero(keep[n_in:])
        spawn_src = layer.src[spawned]
        live = base.copy()
        live[spawn_src] = True
        base[layer.src] = False  # now the kept quiet rows
        quiet = np.flatnonzero(base)
        row_in = np.cumsum(live, dtype=np.intp) - 1
        layers.append(PlanLayer(
            row_in[np.concatenate((quiet, cos, spawn_src))],
            row_out[layer.dest[np.concatenate((quiet, cos, n_in + spawned))]],
            layer.sign[spawned].astype(np.float64),
            len(quiet),
            len(quiet) + len(cos),
            n_out,
        ))
        row_out, n_out = row_in, int(np.count_nonzero(live))
    z = plan.z[diagonal]
    d = _reference_sign(z, ref)
    d.flags.writeable = False
    return replace(
        plan, c=plan.c[live], layers=tuple(reversed(layers)), x=plan.x[diagonal], z=z, d=d
    )


def _trig(plan: DressPlan, amplitudes) -> list:
    """(cos(t), sin(t)) of each amplitude, one per layer of ``plan``, else
    ``ValueError``."""
    if len(amplitudes) != len(plan.layers):
        raise ValueError(f"{len(amplitudes)} amplitudes for {len(plan.layers)} plan layers")
    return [(np.cos(t), np.sin(t)) for t in amplitudes]


def _replay(plan: DressPlan, trig):
    """The coefficients of each layer of ``plan`` at the amplitudes of
    ``trig``, the input first: per layer one gather, one multiply and one
    bincount.  -(c*s) and c*(-s) are the same double, so the sign rides on s.
    """
    c, cut = plan.c, plan.cut
    yield c
    for layer, (cos_t, sin_t) in zip(plan.layers, trig):
        # a plan_chain layer's base rows are its input rows, in order
        w = c[layer.src] if cut else np.concatenate((c, c[layer.src]))
        c = _bincount(layer.dest, _scale(layer, w, cut, cos_t, sin_t), layer.n_out)
        yield c


def run_plan(plan: DressPlan, amplitudes) -> PackedSum:
    """The sum of ``plan`` dressed at ``amplitudes``.

    Bit for bit what ``dress_packed`` gives one generator at a time: a key's
    base and spawn contributions are the same two floats, summed in the same
    order, and an exact zero kept between layers only ever adds zero to
    another key.  Only the layer being built and its input are alive at a
    time.
    """
    for c in _replay(plan, _trig(plan, amplitudes)):
        pass
    keep = c != 0.0
    return PackedSum(plan.n_qubits, plan.x[keep], plan.z[keep], c[keep])


def _sum(a: np.ndarray) -> float:
    """Left-to-right sum.  An exact zero leaves a non-zero partial sum as it
    is, so a ``live_plan`` cut, which drops only zero products, gives the sum
    of the full plan; ``np.sum`` and ``np.dot`` block by length instead."""
    return float(a.cumsum()[-1]) if len(a) else 0.0


def energy_and_gradient(cut: DressPlan, amplitudes) -> tuple[float, list[float]]:
    """<0|H_L|0> and its derivative in each amplitude, in the reference state
    ``cut`` was made for.

    ``cut`` is a ``live_plan`` cut with one amplitude per layer, else
    ``ValueError``.  E = d . c_L with d the signed indicator of the diagonal
    rows, the cut's ``d``: the energy sums d * c_L over the non-zero diagonal
    rows in key order, the array that ``expectation_packed`` sums for
    ``run_plan``'s sum.  lambda = dE/dc pulls back from d through each
    layer: one gather of lambda at the contributions' output rows, times
    their factors, summed at their source rows.  With c a layer's input,
    dE/dt is cos(t) times the sum of sign * lambda * c over the spawned
    rows, minus sin(t) times the sum of lambda * c over the anticommuting
    base rows, each left to right in source order.
    """
    if not cut.cut:
        raise ValueError("energy_and_gradient evaluates a live_plan cut, not a full plan")
    trig = _trig(cut, amplitudes)
    cs = list(_replay(cut, trig))
    c = cs[-1]
    lam = cut.d  # every row of a cut is diagonal
    energy = float(np.sum((lam * c)[c != 0.0]))
    grad = [0.0] * len(cut.layers)
    for k in reversed(range(len(cut.layers))):
        layer, (cos_t, sin_t), c = cut.layers[k], trig[k], cs[k]
        lam = lam[layer.dest]
        # the anticommuting base rows, then the spawned ones
        at_anti = lam[layer.n_quiet:layer.n_base]
        c_anti = c[layer.src[layer.n_quiet:]]
        c_anti, c_spawn = c_anti[:len(at_anti)], c_anti[len(at_anti):]
        grad[k] = float(
            cos_t * _sum(lam[layer.n_base:] * c_spawn * layer.sign)
            - sin_t * _sum(at_anti * c_anti)
        )
        if k == 0:
            break  # no amplitude reads the input rows' lambda
        lam = _bincount(layer.src, _scale(layer, lam, True, cos_t, sin_t), len(c))
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
    return float(np.sum(_reference_sign(p.z[:n_diag], ref) * p.c[:n_diag]))


def x_group_slice(p: PackedSum, wx: int) -> tuple[int, int]:
    """Index range of terms with the given x mask (x-groups are contiguous)."""
    wx = np.uint64(wx)
    lo = int(np.searchsorted(p.x, wx, side="left"))
    hi = int(np.searchsorted(p.x, wx, side="right"))
    return lo, hi


def check_finite(x: np.ndarray, z: np.ndarray, c: np.ndarray) -> None:
    """Raise ValueError on the first row (x, z, c) whose coefficient is inf
    or NaN, naming its word."""
    bad = np.flatnonzero(~np.isfinite(c))
    if len(bad):
        word = render_masks(int(x[bad[0]]), int(z[bad[0]]))
        raise ValueError(f"non-finite coefficient {float(c[bad[0]])!r} on {word}")


def check_even_y(p: PackedSum) -> None:
    """Raise :class:`HermiticityError` on the first odd-y word of ``p``: its
    matrix is imaginary, and the engine treats real Hamiltonians only."""
    odd_y = np.flatnonzero(np.bitwise_count(p.x & p.z) & 1)
    if len(odd_y):
        word = render_masks(int(p.x[odd_y[0]]), int(p.z[odd_y[0]]))
        raise HermiticityError(f"odd y-count word {word} in operator")


def block_statistics(
    p: PackedSum, ref: ReferenceState
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per distinct off-diagonal x-support: (x, omega_signed, D).

    omega_signed = <0|I_k|0> times the reference z-eigenvalue at the lowest
    x position (the sign of dE/dt at t=0 for the canonical generator), and
    D = <0|T H T - H|0> = -2 * sum of diagonal terms anticommuting with the
    generator, left to right in key order: one sum down each block's column
    of a diagonal-rows x blocks array, in chunks of ``_D_CHUNK_ENTRIES``, not
    a matmul, whose order BLAS picks by thread count.  Raises on odd-y words
    (non-hermitian input).
    """
    check_even_y(p)
    occ = np.uint64(ref.occupation)
    n_diag = _n_diagonal(p)
    diag_z = p.z[:n_diag]
    minus_2v = -2.0 * (_reference_sign(diag_z, ref) * p.c[:n_diag])
    ox, oz, oc = p.x[n_diag:], p.z[n_diag:], p.c[n_diag:]
    # <0|I_k|0> contributions: the coefficient negated once for a y-count of
    # 2 mod 4 and once for an odd reference parity (the y-count is even)
    neg = ((np.bitwise_count(ox & oz) >> 1) ^ np.bitwise_count(oz & occ)) & 1
    vals = np.where(neg.view(bool), -oc, oc)
    starts = np.flatnonzero(np.diff(ox, prepend=np.uint64(0)))  # x > 0 off the diagonal
    xs = ox[starts]
    omega = np.add.reduceat(vals, starts)
    # sign of the reference z-eigenvalue at the substituted (lowest-x) qubit
    jmin_bit = xs & (~xs + np.uint64(1))
    omega_signed = np.where((jmin_bit & occ) != 0, -omega, omega)

    d_values = np.zeros(len(xs))
    if n_diag:
        step = max(1, _D_CHUNK_ENTRIES // n_diag)
        for lo in range(0, len(xs), step):
            # numpy sums down the rows of two or more columns left to right,
            # and a lone column pairwise: a zero x, which meets no row, pads
            # the chunk.  A uint8 of 0 or 1 is a valid bool: a view, not a compare.
            x_cols = np.append(xs[lo:lo + step], np.uint64(0))
            odd = (np.bitwise_count(diag_z[:, None] & x_cols) & 1).view(bool)
            d_values[lo:lo + step] = np.where(odd, minus_2v[:, None], 0.0).sum(axis=0)[:-1]
    return xs, omega_signed, d_values
