"""The per-iteration dressing plan and the coset filter against one-shot dressing."""

import numpy as np
import pytest

from iqcc import _packed
from iqcc._packed import pack
from iqcc.engine import Ansatz, coset_plan, qcc_energy, qcc_energy_and_gradient
from iqcc.errors import CapacityError
from iqcc.pauli import PauliWord, parse_word
from iqcc.pauli_sum import ReferenceState, dress_sequence

from helpers import (
    assert_same,
    chain_gradient,
    drawn_sum,
    random_generator,
    random_hermitian_sum,
    reference_dress,
    reference_plan_chain,
    spy_sort,
)


def _reference_chain(h: _packed.PackedSum, gens, ts) -> _packed.PackedSum:
    for gen, t in zip(gens, ts):
        h = reference_dress(h, gen, t)
    return h


def _cases(seed: int, zero_amplitude: bool):
    rng = np.random.default_rng(seed)
    for n_layers in range(1, 9):
        for _ in range(4):
            n = int(rng.integers(2, 9))
            h = random_hermitian_sum(n, int(rng.integers(1, 50)), rng)
            gens = [random_generator(n, rng) for _ in range(n_layers)]
            ts = [float(rng.normal()) for _ in range(n_layers)]
            if zero_amplitude:
                ts[int(rng.integers(n_layers))] = 0.0
            yield h, gens, ts


class TestRunPlan:
    @pytest.mark.parametrize("zero_amplitude", [False, True])
    def test_bit_equal_to_one_shot_dressing(self, zero_amplitude):
        for h, gens, ts in _cases(31 + zero_amplitude, zero_amplitude):
            planned = _packed.run_plan(_packed.plan_chain(h, gens), ts)
            assert_same(planned, _reference_chain(h, gens, ts))

    def test_exact_cancellation_on_64_qubits(self):
        n = 64
        gen = parse_word("Y0 X63", n)
        words = ("Z0", "Z63", "X0", "X63")  # the last two lie outside the span
        h = pack([(parse_word(w, n), 1.0) for w in words], n)
        in_span = pack([(parse_word(w, n), 1.0) for w in words[:2]], n)
        kept, rest = _packed.span_split(h, [gen])
        assert sorted(kept.x.tolist()) == [0, 0]
        assert sorted(rest.x.tolist()) == [1, 1 << 63]
        plan = _packed.plan_chain(kept, [gen, gen])
        assert len(plan) == 2 and len(plan.x) == 4
        ts = [0.3, -0.3]
        out = _packed.run_plan(plan, ts)
        assert len(out) == 2  # the spawned X0 X63 and Y0 Y63 cancel exactly
        assert_same(out, _reference_chain(in_span, [gen, gen], ts))

    def test_destinations_unique_per_layer(self):
        for h, gens, _ts in _cases(33, False):
            plan = _packed.plan_chain(h, gens)
            for layer in plan.layers:
                assert len(np.unique(layer.base_dest)) == len(layer.base_dest)
                assert len(np.unique(layer.spawn_dest)) == len(layer.spawn_dest)
                assert len(layer.spawn_dest) == len(layer.anti) == len(layer.pos)

    def test_amplitude_count_must_match(self):
        rng = np.random.default_rng(34)
        plan = _packed.plan_chain(random_hermitian_sum(3, 10, rng),
                                  [random_generator(3, rng)])
        with pytest.raises(ValueError):
            _packed.run_plan(plan, [0.1, 0.2])


def _wide_generator(n: int, rng) -> PauliWord:
    """An odd-y word over up to 64 qubits: z flipped at the lowest x bit
    when the y-count came out even."""
    x = int(rng.integers(1, 1 << n, dtype=np.uint64))
    z = int(rng.integers(0, 1 << n, dtype=np.uint64))
    if (x & z).bit_count() % 2 == 0:
        z ^= x & -x
    return PauliWord(x, z, n)


def _commuting_rows(p: _packed.PackedSum, gen: PauliWord) -> _packed.PackedSum:
    keep = np.bitwise_count((p.x & np.uint64(gen.z)) ^ (p.z & np.uint64(gen.x))) % 2 == 0
    return _packed.PackedSum(p.n_qubits, p.x[keep], p.z[keep], p.c[keep])


class TestPlanIdentity:
    """``plan_chain`` takes rows by index where the mask form
    (``reference_plan_chain``) compresses by mask: every array of the plan
    is the same, index arrays intp."""

    @staticmethod
    def _assert_same_plan(p, gens):
        got, want = _packed.plan_chain(p, gens), reference_plan_chain(p, gens)
        assert got.generators == want.generators and got.c is p.c
        assert np.array_equal(got.x, want.x) and np.array_equal(got.z, want.z)
        for a, b in zip(got.layers, want.layers, strict=True):
            assert a.src == b.src == slice(None) and a.n_out == b.n_out
            for field in ("base_dest", "anti", "anti_dest", "spawn_src", "spawn_dest"):
                u, v = getattr(a, field), getattr(b, field)
                assert u.dtype == v.dtype == np.intp and np.array_equal(u, v), field
            assert a.pos.dtype == b.pos.dtype == bool and np.array_equal(a.pos, b.pos)
        return got

    @pytest.mark.parametrize("n", [1, 5, 12, 32, 33, 64])
    def test_same_plan_as_mask_form(self, n):
        rng = np.random.default_rng(70 + n)
        for _ in range(6):
            p = drawn_sum(n, int(rng.integers(0, 40)), int(rng.integers(1, 300)), rng)
            gens = [_wide_generator(n, rng) for _ in range(int(rng.integers(1, 6)))]
            # a repeated generator: the second pass spawns back onto rows
            self._assert_same_plan(p, gens + [gens[0], gens[0]])
            # a generator that anticommutes with no row of its input
            quiet = _commuting_rows(p, gens[0])
            plan = self._assert_same_plan(quiet, gens)
            assert len(plan.layers[0].anti) == 0 and plan.layers[0].n_out == len(quiet)
        empty = np.array([], dtype=np.uint64)
        plan = self._assert_same_plan(_packed.PackedSum(n, empty, empty, np.array([])),
                                      [_wide_generator(n, rng)])
        assert plan.layers[0].n_out == 0


class TestTermBudget:
    """A layer over budget raises before its rows are concatenated and sorted."""

    def test_plan_raises_before_the_sort(self, monkeypatch):
        rng = np.random.default_rng(80)
        p = random_hermitian_sum(6, 60, rng)
        gen = random_generator(6, rng)
        n_layer = len(p) + len(_packed.plan_chain(p, [gen]).layers[0].anti)
        sizes = spy_sort(monkeypatch)
        for over in (
            lambda: _packed.plan_chain(p, [gen], n_layer - 1),
            lambda: _packed.dress_packed(p, gen, 0.3, n_layer - 1),
            lambda: dress_sequence(p, [(gen, 0.3)], n_layer - 1),
        ):
            with pytest.raises(CapacityError):
                over()
        assert sizes == []
        _packed.plan_chain(p, [gen], n_layer)
        assert sizes == [n_layer]


class TestSpanFilter:
    def test_keeps_exactly_the_span(self):
        rng = np.random.default_rng(35)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            p = random_hermitian_sum(n, 60, rng)
            gens = [random_generator(n, rng) for _ in range(int(rng.integers(1, 5)))]
            span = {0}
            for gen in gens:
                span |= {s ^ gen.x for s in span}
            kept, rest = _packed.span_split(p, gens)
            want = np.array([x in span for x in p.x.tolist()], dtype=bool)
            assert_same(kept, _packed.PackedSum(n, p.x[want], p.z[want], p.c[want]))
            assert_same(rest, _packed.PackedSum(n, p.x[~want], p.z[~want], p.c[~want]))


class TestFilteredEvaluation:
    def _check(self, p, gens, ts, ref):
        ansatz = Ansatz(list(zip(gens, ts)))
        plan, _ = coset_plan(p, gens)
        filtered = qcc_energy_and_gradient(plan, ansatz, ref)
        unfiltered = qcc_energy_and_gradient(_packed.plan_chain(p, gens), ansatz, ref)
        assert filtered == unfiltered

    def test_energy_and_gradient_equal_unfiltered(self):
        rng = np.random.default_rng(36)
        for _ in range(30):
            n = int(rng.integers(3, 9))
            h = random_hermitian_sum(n, 50, rng)
            ref = ReferenceState(int(rng.integers(1 << n)), n)
            n_layers = int(rng.integers(1, 6))
            gens = [random_generator(n, rng) for _ in range(n_layers)]
            self._check(h, gens, [float(rng.normal()) for _ in gens], ref)

    def test_span_of_every_mask_keeps_every_row(self):
        rng = np.random.default_rng(37)
        n = 5
        p = random_hermitian_sum(n, 60, rng)
        gens = [parse_word(f"Y{j}", n) for j in range(n)]
        plan, rest = coset_plan(p, gens)
        assert len(plan) == len(p) and len(rest) == 0
        self._check(p, gens, [float(rng.normal()) for _ in gens], ReferenceState(0b00111, n))

    def test_generator_mismatch_rejected(self):
        rng = np.random.default_rng(38)
        n = 4
        p = random_hermitian_sum(n, 20, rng)
        gens = [parse_word("Y0 X1", n), parse_word("X2 Y3", n)]
        plan, _ = coset_plan(p, gens)
        ref = ReferenceState(0b0011, n)
        qcc_energy_and_gradient(plan, Ansatz([(g, 0.2) for g in gens]), ref)
        with pytest.raises(ValueError):
            qcc_energy_and_gradient(plan, Ansatz([(g, 0.2) for g in reversed(gens)]), ref)
        with pytest.raises(ValueError):
            qcc_energy_and_gradient(plan, Ansatz([(gens[0], 0.2)]), ref)

    def test_evaluation_sorts_nothing(self, monkeypatch):
        # the Hamiltonian is planned by coset_plan and cut by live_plan; an
        # evaluation only replays the plan, forward and in reverse
        rng = np.random.default_rng(39)
        n = 6
        gens = [random_generator(n, rng) for _ in range(4)]
        plan, _ = coset_plan(random_hermitian_sum(n, 60, rng), gens)
        live = _packed.live_plan(plan)

        def no_sort(*args):
            raise AssertionError("an evaluation sorted keys")

        monkeypatch.setattr(_packed, "_sort", no_sort)
        ansatz = Ansatz([(g, float(rng.normal())) for g in gens])
        for evaluated in (plan, live):
            _, grad = qcc_energy_and_gradient(evaluated, ansatz, ReferenceState(0b000111, n))
            assert len(grad) == len(gens)


class TestReversePass:
    """The gradient by one reverse pass of the diagonal through the plan."""

    @pytest.mark.parametrize("zero_amplitude", [False, True])
    def test_gradient_matches_chain_reference(self, zero_amplitude):
        # reference: H_L and every T~_j dressed term by term by the scalar
        # reference, contracted x-group by x-group (helpers.chain_gradient)
        rng = np.random.default_rng(40 + zero_amplitude)
        for h, gens, ts in _cases(41 + zero_amplitude, zero_amplitude):
            n = h.n_qubits
            ref = ReferenceState(int(rng.integers(1 << n)), n)
            plan, _ = coset_plan(h, gens)
            _, grad = qcc_energy_and_gradient(plan, Ansatz(list(zip(gens, ts))), ref)
            tildes = [_reference_chain(pack([(g, 1.0)], n), gens[j + 1 :], ts[j + 1 :])
                      for j, g in enumerate(gens)]
            want = np.array(chain_gradient(_reference_chain(h, gens, ts), tildes, ref))
            assert len(grad) == len(gens)
            assert np.max(np.abs(np.array(grad) - want)) <= 1e-13 * max(
                np.max(np.abs(want)), 1.0
            )

    def test_gradient_matches_central_differences(self):
        step = 1e-5
        rng = np.random.default_rng(48)
        for h, gens, ts in _cases(49, False):
            n = h.n_qubits
            ref = ReferenceState(int(rng.integers(1 << n)), n)
            ansatz = Ansatz(list(zip(gens, ts)))
            plan, _ = coset_plan(h, gens)
            _, grad = qcc_energy_and_gradient(_packed.live_plan(plan), ansatz, ref)
            for j, g in enumerate(grad):
                up, dn = list(ts), list(ts)
                up[j] += step
                dn[j] -= step
                fd = (qcc_energy(h, ansatz.with_amplitudes(up), ref)
                      - qcc_energy(h, ansatz.with_amplitudes(dn), ref)) / (2 * step)
                assert abs(g - fd) <= 1e-8 * max(abs(fd), 1.0)

    @pytest.mark.parametrize("zero_amplitude", [False, True])
    def test_energy_equals_replay(self, zero_amplitude):
        rng = np.random.default_rng(50 + zero_amplitude)
        for h, gens, ts in _cases(51 + zero_amplitude, zero_amplitude):
            n = h.n_qubits
            ref = ReferenceState(int(rng.integers(1 << n)), n)
            plan, _ = coset_plan(h, gens)
            want = _packed.expectation_packed(_packed.run_plan(plan, ts), ref)
            for evaluated in (plan, _packed.live_plan(plan)):
                energy, _ = _packed.energy_and_gradient(evaluated, ts, ref)
                assert energy == want


class TestLivePlan:
    @pytest.mark.parametrize("zero_amplitude", [False, True])
    def test_energy_and_gradient_equal_full_plan(self, zero_amplitude):
        rng = np.random.default_rng(42 + zero_amplitude)
        full_rows = live_rows = 0
        for h, gens, ts in _cases(43 + zero_amplitude, zero_amplitude):
            n = h.n_qubits
            ref = ReferenceState(int(rng.integers(1 << n)), n)
            ansatz = Ansatz(list(zip(gens, ts)))
            plan, _ = coset_plan(h, gens)
            live = _packed.live_plan(plan)
            assert qcc_energy_and_gradient(live, ansatz, ref) == qcc_energy_and_gradient(
                plan, ansatz, ref
            )
            assert len(live) <= len(plan) and len(live.x) <= len(plan.x)
            for cut, layer in zip(live.layers, plan.layers, strict=True):
                assert cut.n_out <= layer.n_out
                assert len(cut.base_dest) <= len(layer.base_dest)
                assert len(cut.anti) <= len(layer.anti)
                assert len(cut.spawn_src) == len(cut.spawn_dest) == len(cut.pos)
                assert len(cut.spawn_dest) <= len(layer.spawn_dest)
            full_rows += sum(layer.n_out for layer in plan.layers)
            live_rows += sum(layer.n_out for layer in live.layers)
        assert live_rows < full_rows  # the cut drops rows on these sums

    def test_cut_of_a_cut_is_the_same(self):
        for h, gens, ts in _cases(44, False):
            plan, _ = coset_plan(h, gens)
            live = _packed.live_plan(plan)
            again = _packed.live_plan(live)
            assert len(again) == len(live)
            assert_same(_packed.run_plan(again, ts), _packed.run_plan(live, ts))


class TestSplitDressing:
    """The coset plan replayed, merged with the dressing of the other rows,
    is the dressing of the whole sum."""

    def _check(self, p: _packed.PackedSum, gens, ts):
        pairs = list(zip(gens, ts))
        plan, rest = coset_plan(p, gens)
        split = _packed.merge(_packed.run_plan(plan, ts), dress_sequence(rest, pairs))
        assert_same(split, dress_sequence(p, pairs))
        assert_same(split, _reference_chain(p, gens, ts))
        return plan, rest

    @pytest.mark.parametrize("zero_amplitude", [False, True])
    def test_random_sums(self, zero_amplitude):
        for h, gens, ts in _cases(45 + zero_amplitude, zero_amplitude):
            self._check(h, gens, ts)

    def test_exact_cancellation_on_64_qubits(self):
        n = 64
        gen = parse_word("Y0 X63", n)
        h = pack([(parse_word(w, n), 1.0) for w in ("Z0", "Z63", "X0", "X63")], n)
        plan, rest = self._check(h, [gen, gen], [0.3, -0.3])
        assert len(plan) == 2 and len(rest) == 2

    def test_span_keeps_every_row(self):
        rng = np.random.default_rng(47)
        n = 5
        h = random_hermitian_sum(n, 60, rng)
        gens = [parse_word(f"Y{j}", n) for j in range(n)]
        plan, rest = self._check(h, gens, [float(rng.normal()) for _ in gens])
        assert len(rest) == 0 and len(plan) == len(h)

    def test_no_row_in_span(self):
        n = 4
        words = ("X1", "Z0 X1", "X0 X1", "X1 Y2 Y3")  # x masks outside {0, 1}
        h = pack([(parse_word(w, n), 0.25 * (k + 1)) for k, w in enumerate(words)], n)
        gens = [parse_word("Y0", n), parse_word("Y0 Z2", n)]
        plan, rest = self._check(h, gens, [0.7, -0.4])
        assert len(plan) == 0 and len(rest) == len(h)
        assert len(_packed.live_plan(plan)) == 0


class TestSortedKeys:
    @pytest.mark.parametrize("n", [1, 5, 12, 31, 32, 33, 63, 64])
    def test_same_permutation_as_lexsort(self, n):
        rng = np.random.default_rng(n)
        top = np.uint64(1 << (n - 1))
        full = np.uint64((1 << n) - 1)

        def masks(m):
            # seeded masks over n bits, with the top bit set in about half
            low = rng.integers(0, 1 << 64, size=m, dtype=np.uint64) & full
            return np.where(rng.random(m) < 0.5, low | top, low & ~top)

        edge = np.array([full, full, 0, top, full, 0], dtype=np.uint64)
        x = np.concatenate([masks(200), edge])
        z = np.concatenate([masks(200), edge[::-1]])
        dup = rng.integers(0, len(x), size=150)  # exact duplicates of (x, z) rows
        x = np.concatenate([x, x[dup], x[:50]])
        z = np.concatenate([z, z[dup], masks(50)])  # same x, other z
        perm = rng.permutation(len(x))
        x, z = x[perm], z[perm]
        want = np.lexsort((z, x))
        order, xs, zs = _packed._sort(n, x, z)
        assert np.array_equal(order, want)
        assert np.array_equal(xs, x[want]) and np.array_equal(zs, z[want])
        # the distinct keys in lexsort order, each row's slot its key's rank
        slot, kx, kz = _packed._sorted_keys(n, x, z)
        keys = list(dict.fromkeys(zip(x[want].tolist(), z[want].tolist())))
        assert list(zip(kx.tolist(), kz.tolist())) == keys
        rank = {key: i for i, key in enumerate(keys)}
        assert slot.dtype == np.intp
        assert slot.tolist() == [rank[key] for key in zip(x.tolist(), z.tolist())]
        assert len(keys) < len(x)  # duplicates share a slot
