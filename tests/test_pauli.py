import numpy as np
import pytest
from hypothesis import given, strategies as st

from iqcc import pauli
from iqcc._packed import pack
from iqcc.errors import DimensionError
from iqcc.pauli import PauliWord, parse_word, render_masks, render_word, render_words
from iqcc.pauli_sum import _sorted_terms

from helpers import raw_multiply, word_matrix


def words_strategy(n_qubits=6):
    masks = st.integers(min_value=0, max_value=(1 << n_qubits) - 1)
    return st.builds(lambda x, z: PauliWord(x, z, n_qubits), masks, masks)


def all_words(n):
    return [PauliWord(x, z, n) for x in range(1 << n) for z in range(1 << n)]


def product(a, b):
    """a * b == i**k * c as (c, k), by the reference ``raw_multiply``."""
    cx, cz, k = raw_multiply(a.x, a.z, b.x, b.z)
    return PauliWord(cx, cz, a.n_qubits), k


def commutes(a, b):
    """ab == ba by the reference product: same word, same phase."""
    return product(a, b)[1] == product(b, a)[1]


class TestMultiply:
    """The word product of ``tests/helpers.py``: the phase reference of the
    scalar dressing and of the dense product check in ``test_oracle``."""

    def test_single_qubit_table(self):
        x0, y0, z0 = (parse_word(f"{a}0", 1) for a in "XYZ")
        assert product(x0, y0) == (z0, 1)

    @given(words_strategy())
    def test_involution(self, w):
        assert product(w, w) == (PauliWord(0, 0, w.n_qubits), 0)

    def test_two_qubit_matrix_oracle(self):
        # X0 Z1 times Z0 Z1: frozen from the dense 4x4 product
        a = parse_word("X0 Z1", 2)
        b = parse_word("Z0 Z1", 2)
        c, k = product(a, b)
        assert c == parse_word("Y0", 2)
        lhs = word_matrix(a) @ word_matrix(b)
        assert np.allclose(lhs, 1j**k * word_matrix(c))
        assert k == 3

    def test_exhaustive_matrix_agreement_two_qubits(self):
        for a in all_words(2):
            for b in all_words(2):
                c, k = product(a, b)
                assert np.allclose(
                    word_matrix(a) @ word_matrix(b), 1j**k * word_matrix(c), atol=1e-12
                )

    def test_associativity_sampled(self):
        rng = np.random.default_rng(5)
        ws = all_words(3)
        for _ in range(200):
            a, b, c = (ws[rng.integers(len(ws))] for _ in range(3))
            ab, k1 = product(a, b)
            ab_c, k2 = product(ab, c)
            bc, k3 = product(b, c)
            a_bc, k4 = product(a, bc)
            assert ab_c == a_bc
            assert (k1 + k2) % 4 == (k3 + k4) % 4


class TestCommutes:
    """Commutation as the kernels test it, by the parity of the symplectic
    form <a.x, b.z> + <a.z, b.x>, against the reference product."""

    def test_anticommuting_pair(self):
        assert not commutes(parse_word("X0", 2), parse_word("Z0", 2))

    def test_disjoint_supports(self):
        assert commutes(parse_word("X0", 2), parse_word("Z1", 2))

    def test_two_overlaps_cancel(self):
        assert commutes(parse_word("X0 Y1", 2), parse_word("Z0 X1", 2))

    def test_exhaustive_vs_phase_symmetry(self):
        # ab and ba give the same word; commuting iff equal phases (N <= 3)
        for n in (1, 2, 3):
            for a in all_words(n):
                for b in all_words(n):
                    odd = ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) % 2
                    assert product(a, b)[0] == product(b, a)[0]
                    assert commutes(a, b) == (odd == 0)


class TestYCount:
    def test_identity(self):
        assert PauliWord(0, 0, 4).y_count() == 0

    def test_two_ys(self):
        assert parse_word("Y0 Y1", 2).y_count() == 2

    def test_one_overlap_bit(self):
        assert parse_word("Y0 X1 Z2", 3).y_count() == 1


class TestWordOrder:
    """The order of a sum's JSON terms (``pauli_sum._sorted_terms``): by
    weight, then by the x and z masks."""

    @staticmethod
    def listed(*words):
        """The distinct ``words`` in JSON order, and sorted by that key."""
        h = pack([(w, 1.0) for w in words], words[0].n_qubits)
        got = [parse_word(w, h.n_qubits) for w in _sorted_terms(h)[0]]
        return got, sorted(set(words), key=lambda w: (w.weight(), w.x, w.z))

    @given(words_strategy(), words_strategy())
    def test_total_and_antisymmetric(self, a, b):
        got, want = self.listed(a, b)
        assert got == want == self.listed(b, a)[0]

    @given(words_strategy(), words_strategy(), words_strategy())
    def test_transitive(self, a, b, c):
        got, want = self.listed(c, a, b)
        assert got == want

    def test_weight_primary(self):
        got, want = self.listed(parse_word("X0 X1", 6), parse_word("Z5", 6))
        assert got == want == [parse_word("Z5", 6), parse_word("X0 X1", 6)]


class TestTextFormat:
    def test_render(self):
        assert render_word(parse_word("X0 Z3 Y7", 8)) == "X0 Z3 Y7"

    def test_identity(self):
        assert render_word(PauliWord(0, 0, 3)) == "I"
        assert parse_word("I", 3) == PauliWord(0, 0, 3)
        assert parse_word("", 3) == PauliWord(0, 0, 3)

    @given(words_strategy())
    def test_roundtrip(self, w):
        assert parse_word(render_word(w), w.n_qubits) == w

    def test_rejects_duplicate_qubit(self):
        with pytest.raises(ValueError):
            parse_word("X0 Z0", 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(DimensionError):
            parse_word("X5", 2)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_word("Q3", 4)


class TestRenderWords:
    @pytest.mark.parametrize("n", [1, 10, 11, 31, 32, 33, 63, 64])
    def test_equals_render_masks(self, monkeypatch, n):
        # seeded masks, an identity row, one on the highest qubit and one on
        # every qubit (one- and two-digit indices); a block of 7 rows puts 25
        # rows across three block boundaries
        monkeypatch.setattr(pauli, "_RENDER_BLOCK", 7)
        rng = np.random.default_rng(n)
        x, z = rng.integers(0, 1 << n, size=(2, 25), dtype=np.uint64)
        top, full = 1 << (n - 1), (1 << n) - 1
        x[:4], z[:4] = [0, top, 0, full], [0, top, top, 0]
        x[10] = z[10] = 0
        expected = [render_masks(a, b) for a, b in zip(x.tolist(), z.tolist())]
        for rows in (0, 1, 7, 14, 25):
            assert render_words(x[:rows], z[:rows], n) == expected[:rows]
        assert expected[:4] == ["I", f"Y{n - 1}", f"Z{n - 1}", " ".join(f"X{q}" for q in range(n))]

    def test_default_block_boundary(self):
        # more rows than one default block
        rows = pauli._RENDER_BLOCK + 3
        rng = np.random.default_rng(24)
        x, z = rng.integers(0, 1 << 12, size=(2, rows), dtype=np.uint64)
        z[::5] = x[::5] = 0
        expected = [render_masks(a, b) for a, b in zip(x.tolist(), z.tolist())]
        assert render_words(x, z, 12) == expected
