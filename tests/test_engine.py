import numpy as np
import pytest

from iqcc import ReferenceState, _packed
from iqcc._packed import expectation_packed, pack
from iqcc.errors import CapacityError, HermiticityError
from iqcc.engine import estimate_amplitude, qcc_energy_and_gradient, rank_generators
from iqcc.pauli import PauliWord, parse_word, render_word
from iqcc.pauli_sum import dress_sequence

from helpers import (
    ansatz_unitary,
    coset_plan,
    drawn_sum,
    random_generator,
    random_hermitian_sum,
    rank_sum,
    reference_block_statistics,
    reference_expectation,
    reference_rank_generators,
    reference_vector,
    to_matrix,
)


class TestCanonicalGenerator:
    """``rank_generators`` builds each block's generator from its x: the
    lowest-index x becomes y."""

    @staticmethod
    def generators(word, n):
        h = pack([(parse_word(word, n), 0.5)], n)
        return [r.generator for r in rank_sum(h, ReferenceState(0, n), 1)[0]]

    def test_single_x(self):
        assert self.generators("X0", 1) == [parse_word("Y0", 1)]

    def test_lowest_index_substituted(self):
        (gen,) = self.generators("X2 X5 X7", 8)
        assert gen == parse_word("Y2 X5 X7", 8)
        assert gen.y_count() == 1

    def test_offset_single(self):
        assert self.generators("X3", 4) == [parse_word("Y3", 4)]

    def test_rejects_non_x_string(self):
        # a word with z factors gives its block's x-string generator, and
        # the identity gives none
        assert self.generators("X0 Z1", 2) == [parse_word("Y0", 2)]
        assert self.generators("I", 2) == []


def _blocks(h, ref):
    """{x-support: (omega_signed, D)} from the ranking statistics."""
    xs, omegas, d_values = _packed.block_statistics(h, ref)
    return {x: (w, d) for x, w, d in zip(xs.tolist(), omegas.tolist(), d_values.tolist())}


class TestOmega:
    def test_identity_factor_sign_convention(self):
        # block (X0, c * identity): omega_signed = sign(qubit 0) * c
        c = 0.7
        h = pack([(parse_word("X0", 1), c)], 1)
        for occ, sign in ((0b0, 1.0), (0b1, -1.0)):
            omega_signed, _ = _blocks(h, ReferenceState(occ, 1))[0b1]
            assert abs(omega_signed) == abs(c)
            assert omega_signed == sign * c

    def test_cancelling_factor_gives_zero(self):
        # two words in one x-block whose diagonal factors cancel at this ref:
        # X0X1 contributes +1, Y0Y1 folds to -<Z0Z1> = -1 on |00>
        h = pack(
            [
                (parse_word("X0 X1", 2), 1.0),
                (PauliWord(0b11, 0b11, 2), 1.0),  # Y0 Y1, same x-support
            ],
            2,
        )
        omega_signed, _ = _blocks(h, ReferenceState(0b00, 2))[0b11]
        assert omega_signed == 0.0

    def test_matches_dense_matrix_element(self, h2_problem):
        _, h2, ref2 = h2_problem
        rng = np.random.default_rng(3)
        h5 = random_hermitian_sum(5, 25, rng)
        for h, ref in ((h2, ref2), (h5, ReferenceState(int(rng.integers(32)), 5))):
            xs, omegas, _ = _packed.block_statistics(h, ref)
            # one entry per distinct non-empty x-support, none twice
            assert xs.tolist() == sorted(set(h.x[h.x != 0].tolist()))
            hm = to_matrix(h)
            v = reference_vector(ref)
            for x, omega_signed in zip(xs.tolist(), omegas.tolist()):
                gen = PauliWord(x, x & -x, h.n_qubits)
                tm = to_matrix(pack([(gen, 1.0)], h.n_qubits))
                bracket = np.vdot(v, hm @ tm @ v)
                assert abs(abs(omega_signed) - abs(bracket)) < 1e-12
                assert abs(omega_signed - bracket.imag) < 1e-12


class TestComputeD:
    """D = <0|T H T - H|0> for each block's canonical generator T."""

    def test_commuting_diagonal_gives_zero(self):
        # Z1 commutes with the canonical generator Y0 of the X0 block
        h = pack([(parse_word("Z1", 2), 0.8), (parse_word("X0", 2), 0.3)], 2)
        _, d = _blocks(h, ReferenceState(0, 2))[0b01]
        assert d == 0.0

    def test_single_anticommuting_term(self):
        # h = c Z0 (+ the X0 block), T = Y0, qubit 0 occupied: D = (+c) - (-c) = 2c
        c = 0.45
        h = pack([(parse_word("Z0", 1), c), (parse_word("X0", 1), 0.2)], 1)
        _, d = _blocks(h, ReferenceState(0b1, 1))[0b1]
        assert abs(d - 2 * c) < 1e-15

    def test_random_vs_dense(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            h = random_hermitian_sum(6, 30, rng)
            ref = ReferenceState(int(rng.integers(64)), 6)
            hm = to_matrix(h)
            v = reference_vector(ref)
            for x, (_, d) in _blocks(h, ref).items():
                gen = PauliWord(x, x & -x, 6)
                tm = to_matrix(pack([(gen, 1.0)], 6))
                dense = np.vdot(v, (tm @ hm @ tm - hm) @ v).real
                assert abs(d - dense) < 1e-12


class TestDiagonalPrefix:
    """The diagonal rows of a canonical sum are its first rows: the slices
    ``block_statistics`` and ``expectation_packed`` take give the numbers of
    the boolean-mask form, bit for bit."""

    @staticmethod
    def _check(h, ref):
        got, want = _packed.block_statistics(h, ref), reference_block_statistics(h, ref)
        assert got[0].dtype == want[0].dtype and np.array_equal(got[0], want[0])
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2].tobytes() == want[2].tobytes()
        assert expectation_packed(h, ref).hex() == reference_expectation(h, ref).hex()
        return len(got[0])

    def test_edge_sums(self):
        rng = np.random.default_rng(60)
        n = 6
        ref = ReferenceState(0b000111, n)
        empty = np.array([], dtype=np.uint64)
        assert self._check(_packed.PackedSum(n, empty, empty, np.array([])), ref) == 0
        assert self._check(drawn_sum(n, 40, 0, rng), ref) == 0
        no_diagonal = drawn_sum(n, 0, 80, rng)
        assert not np.any(no_diagonal.x == 0)
        assert self._check(no_diagonal, ref) > 0

    def test_seeded_sums(self):
        # fewer diagonal rows than blocks, and more
        rng = np.random.default_rng(61)
        branches = set()
        for _ in range(60):
            n = int(rng.integers(2, 11))
            h = drawn_sum(n, int(rng.integers(0, 200)), int(rng.integers(0, 200)), rng)
            ref = ReferenceState(int(rng.integers(1 << n)), n)
            n_blocks = self._check(h, ref)
            if n_blocks:
                branches.add(int(np.count_nonzero(h.x == 0)) <= n_blocks)
        assert branches == {True, False}


class TestDOnePass:
    """D is one left-to-right sum over the diagonal rows in key order,
    whatever the row and block counts and the block chunking: the numbers of
    the scalar per-block loop, bit for bit."""

    @staticmethod
    def _check_d(h, ref):
        got, want = _packed.block_statistics(h, ref)[2], reference_block_statistics(h, ref)[2]
        assert got.tobytes() == want.tobytes()
        return int(np.count_nonzero(h.x == 0)), len(got)

    @pytest.mark.parametrize(
        "n_diag, n_off, fewer",
        [(20, 400, True), (300, 40, False), (0, 300, True)],
        ids=["fewer_diagonal_rows", "more_diagonal_rows", "no_diagonal_row"],
    )
    def test_row_and_block_counts(self, n_diag, n_off, fewer):
        rng = np.random.default_rng(62)
        for _ in range(10):
            n = int(rng.integers(6, 13))
            h = drawn_sum(n, n_diag, n_off, rng)
            rows, blocks = self._check_d(h, ReferenceState(int(rng.integers(1 << n)), n))
            assert blocks > 0 and (rows < blocks) == fewer and (rows == 0) == (n_diag == 0)

    @pytest.mark.parametrize("blocks_per_chunk", [1, 3, None], ids=["one", "three", "all"])
    def test_chunking(self, monkeypatch, blocks_per_chunk):
        rng = np.random.default_rng(63)
        h = drawn_sum(10, 150, 300, rng)
        n_diag = int(np.count_nonzero(h.x == 0))
        n_blocks = len(np.unique(h.x[n_diag:]))
        assert n_blocks % 3  # the last chunk of three is a partial one
        entries = n_diag * (blocks_per_chunk or n_blocks)
        monkeypatch.setattr(_packed, "_D_CHUNK_ENTRIES", entries)
        assert self._check_d(h, ReferenceState(0b0000011111, 10)) == (n_diag, n_blocks)


class TestEstimateAmplitude:
    def test_zero_omega(self):
        assert estimate_amplitude(0.0, 1.3) == (0.0, 0.0)
        assert estimate_amplitude(0.0, -1.3) == (0.0, 0.0)

    def test_zero_d(self):
        t, de = estimate_amplitude(0.5, 0.0)
        assert abs(abs(t) - np.pi / 2) < 1e-15
        assert abs(de + 0.5) < 1e-15

    def test_global_minimizer_scan(self):
        rng = np.random.default_rng(8)
        grid = np.linspace(-np.pi, np.pi, 1000)
        for _ in range(200):
            w = float(rng.normal())
            d = float(rng.normal())
            if w == 0.0:
                continue
            t, de = estimate_amplitude(w, d)

            def energy(tt):
                return w * np.sin(tt) + d * (1 - np.cos(tt)) / 2

            assert energy(t) <= energy(grid).min() + 1e-12
            assert abs(de - energy(t)) < 1e-12
            assert de <= 0.0


class TestRanking:
    def test_rejects_odd_y(self):
        h = pack([(parse_word("Y0", 2), 1.0)], 2)
        with pytest.raises(HermiticityError):
            rank_sum(h, ReferenceState(0, 2), 4)

    def test_diagonal_hamiltonian(self):
        h = pack([(parse_word("Z0 Z2", 3), 1.0)], 3)
        selected, remainder = rank_sum(h, ReferenceState(0, 3), 4)
        assert selected == [] and len(remainder) == 0 and remainder.dtype == np.uint64

    def test_single_block(self):
        h = pack([(parse_word("X0 X1", 2), 0.5), (parse_word("Z0", 2), 1.0)], 2)
        selected, remainder = rank_sum(h, ReferenceState(0b11, 2), 4)
        assert len(selected) == 1 and len(remainder) == 0
        assert selected[0].generator == parse_word("Y0 X1", 2)

    def test_h2_top_generator_has_best_lowering(self, h2_problem):
        _, h, ref = h2_problem
        selected, remainder = rank_sum(h, ref, 1)
        top = selected[0]
        assert render_word(top.generator) == "Y0 X1 X2 X3"
        # the remainder's statistics are read from the blocks by x-support
        blocks = _blocks(h, ref)
        rest = [blocks[x] for x in remainder.tolist()]
        assert all(top.importance >= abs(estimate_amplitude(w, d)[0]) for w, d in rest)
        # the top importance also carries the deepest exact lowering here
        lowerings = [estimate_amplitude(w, d)[1] for w, d in rest]
        top_low = estimate_amplitude(top.omega_signed, top.d_value)[1]
        assert all(top_low <= low + 1e-15 for low in lowerings)

    def test_lowering_nonpositive_iff_omega_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            h = random_hermitian_sum(6, 40, rng)
            ref = ReferenceState(int(rng.integers(64)), 6)
            sel, _ = rank_sum(h, ref, 16)
            for r in sel:
                assert r.importance >= 0.0
                assert r.omega == abs(r.omega_signed)
            # every block, selected or not, from the ranking statistics
            for omega_signed, d in _blocks(h, ref).values():
                _, de = estimate_amplitude(omega_signed, d)
                assert de <= 0.0
                assert (de == 0.0) == (omega_signed == 0.0)

    def test_determinism(self, h4_problem):
        _, h, ref = h4_problem
        a = rank_sum(h, ref, 8)
        b = rank_sum(h, ref, 8)
        assert a[0] == b[0] and np.array_equal(a[1], b[1])

    def test_top_l_capacity(self, h2_problem):
        _, h, ref = h2_problem
        with pytest.raises(CapacityError):
            rank_sum(h, ref, 17)


class TestRankingReference:
    """``rank_generators`` against the object sort it replaces: a
    ``RankedGenerator`` for every block, sorted by (-importance, weight,
    x)."""

    def test_selected_and_remainder_order(self):
        rng = np.random.default_rng(70)
        ties = 0
        for _ in range(80):
            n = int(rng.integers(1, 11))
            # coefficients from a small set: blocks share omega, D and importance
            h = drawn_sum(n, int(rng.integers(0, 40)), int(rng.integers(1, 80)), rng,
                          values=(-1.0, -0.5, 0.5, 1.0))
            ref = ReferenceState(int(rng.integers(1 << n)), n)
            blocks = _packed.block_statistics(h, ref)
            top_l = int(rng.integers(1, 17))
            selected, remainder = rank_generators(blocks, n, top_l)
            want_sel, want_rest = reference_rank_generators(blocks, n, top_l)
            assert selected == want_sel
            for got, want in zip(selected, want_sel):  # the same bits, as Python floats
                for name in ("omega", "omega_signed", "d_value", "t_estimate", "importance"):
                    assert type(getattr(got, name)) is float
                    assert getattr(got, name).hex() == getattr(want, name).hex()
            assert remainder.dtype == np.uint64
            assert remainder.tolist() == [r.generator.x for r in want_rest]
            importances = [r.importance for r in want_sel + want_rest]
            ties += len(importances) - len(set(importances))
        assert ties > 0  # equal importances break on the generator order


class TestQccEnergy:
    """The QCC energy <0| U^dag H U |0>: ``h`` dressed, then projected."""

    def test_zero_amplitudes(self, h2_problem):
        _, h, ref = h2_problem
        sel, _ = rank_sum(h, ref, 2)
        pairs = [(r.generator, 0.0) for r in sel]
        e = expectation_packed(dress_sequence(h, pairs), ref)
        assert abs(e - expectation_packed(h, ref)) < 1e-14

    def test_single_generator_closed_form(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            h = random_hermitian_sum(5, 20, rng)
            ref = ReferenceState(int(rng.integers(32)), 5)
            sel, _ = rank_sum(h, ref, 1)
            if not sel:
                continue
            r = sel[0]
            e0 = expectation_packed(h, ref)
            for t in rng.normal(size=3):
                pairs = [(r.generator, float(t))]
                closed = (
                    e0
                    + r.omega_signed * np.sin(t)
                    + r.d_value * (1 - np.cos(t)) / 2
                )
                assert abs(expectation_packed(dress_sequence(h, pairs), ref) - closed) < 1e-12

    def test_top_one_at_estimate_realizes_lowering(self):
        # E(t_estimate) == <0|H|0> + delta_e, exactly
        rng = np.random.default_rng(20)
        for _ in range(10):
            h = random_hermitian_sum(6, 30, rng)
            ref = ReferenceState(int(rng.integers(64)), 6)
            sel, _ = rank_sum(h, ref, 1)
            if not sel or sel[0].omega == 0.0:
                continue
            r = sel[0]
            _, delta_e = estimate_amplitude(r.omega_signed, r.d_value)
            e = expectation_packed(dress_sequence(h, [(r.generator, r.t_estimate)]), ref)
            assert abs(e - (expectation_packed(h, ref) + delta_e)) < 1e-12

    def test_matches_dense_conjugation(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            h = random_hermitian_sum(6, 25, rng)
            ref = ReferenceState(int(rng.integers(64)), 6)
            pairs = [(random_generator(6, rng), float(rng.normal())) for _ in range(3)]
            u = ansatz_unitary(pairs, 6)
            v = u @ reference_vector(ref)
            dense = float(np.real(np.vdot(v, to_matrix(h) @ v)))
            assert abs(expectation_packed(dress_sequence(h, pairs), ref) - dense) < 1e-10


class TestQccGradient:
    def test_zero_amplitude_equals_signed_omega(self, h2_problem):
        # dE/dt_j at t=0 is +omega_signed under the documented convention
        _, h, ref = h2_problem
        sel, _ = rank_sum(h, ref, 3)
        live = _packed.live_plan(coset_plan(h, [r.generator for r in sel])[0], ref)
        _, grad = qcc_energy_and_gradient(live, [0.0] * len(sel))
        for g, r in zip(grad, sel):
            assert abs(g - r.omega_signed) < 1e-12

    def test_commuting_generator_zero_component(self):
        h = pack([(parse_word("Z0", 2), 1.0)], 2)
        gen = parse_word("Y1", 2)  # disjoint support: commutes with h
        ref = ReferenceState(0b01, 2)
        live = _packed.live_plan(coset_plan(h, [gen])[0], ref)
        for t in (0.0, 0.3, -1.2):
            _, grad = qcc_energy_and_gradient(live, [t])
            assert abs(grad[0]) < 1e-14

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(12)
        step = 1e-5
        for _ in range(20):
            n = int(rng.integers(3, 8))
            h = random_hermitian_sum(n, 25, rng)
            ref = ReferenceState(int(rng.integers(1 << n)), n)
            L = int(rng.integers(1, 5))
            pairs = [(random_generator(n, rng), float(rng.normal() * 0.8)) for _ in range(L)]
            gens, ts = zip(*pairs)
            live = _packed.live_plan(coset_plan(h, gens)[0], ref)
            energy, grad = qcc_energy_and_gradient(live, ts)
            fd = []
            for j in range(L):
                up = list(ts)
                dn = list(ts)
                up[j] += step
                dn[j] -= step
                fd.append(
                    (expectation_packed(dress_sequence(h, zip(gens, up)), ref)
                     - expectation_packed(dress_sequence(h, zip(gens, dn)), ref)) / (2 * step)
                )
            ga, fa = np.asarray(grad), np.asarray(fd)
            denom = max(float(np.linalg.norm(ga)), 1e-9)
            assert float(np.linalg.norm(ga - fa)) / denom < 1e-6
