import numpy as np
import pytest
from hypothesis import given, strategies as st

from iqcc.errors import DimensionError
from iqcc.pauli import PauliWord, commutes, multiply, parse_word, render_word

from helpers import word_matrix


def words_strategy(n_qubits=6):
    masks = st.integers(min_value=0, max_value=(1 << n_qubits) - 1)
    return st.builds(lambda x, z: PauliWord(x, z, n_qubits), masks, masks)


def all_words(n):
    return [PauliWord(x, z, n) for x in range(1 << n) for z in range(1 << n)]


class TestMultiply:
    def test_single_qubit_table(self):
        x0 = PauliWord.single("X", 0, 1)
        y0 = PauliWord.single("Y", 0, 1)
        z0 = PauliWord.single("Z", 0, 1)
        assert multiply(x0, y0) == (z0, 1)

    @given(words_strategy())
    def test_involution(self, w):
        c, k = multiply(w, w)
        assert c.is_identity() and k == 0

    def test_two_qubit_matrix_oracle(self):
        # X0 Z1 times Z0 Z1: frozen from the dense 4x4 product
        a = parse_word("X0 Z1", 2)
        b = parse_word("Z0 Z1", 2)
        c, k = multiply(a, b)
        assert c == parse_word("Y0", 2)
        lhs = word_matrix(a) @ word_matrix(b)
        assert np.allclose(lhs, 1j**k * word_matrix(c))
        assert k == 3

    def test_exhaustive_matrix_agreement_two_qubits(self):
        for a in all_words(2):
            for b in all_words(2):
                c, k = multiply(a, b)
                assert np.allclose(
                    word_matrix(a) @ word_matrix(b), 1j**k * word_matrix(c), atol=1e-12
                )

    def test_associativity_sampled(self):
        rng = np.random.default_rng(5)
        ws = all_words(3)
        for _ in range(200):
            a, b, c = (ws[rng.integers(len(ws))] for _ in range(3))
            ab, k1 = multiply(a, b)
            ab_c, k2 = multiply(ab, c)
            bc, k3 = multiply(b, c)
            a_bc, k4 = multiply(a, bc)
            assert ab_c == a_bc
            assert (k1 + k2) % 4 == (k3 + k4) % 4

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            multiply(PauliWord.identity(2), PauliWord.identity(3))


class TestCommutes:
    def test_anticommuting_pair(self):
        assert not commutes(PauliWord.single("X", 0, 2), PauliWord.single("Z", 0, 2))

    def test_disjoint_supports(self):
        assert commutes(PauliWord.single("X", 0, 2), PauliWord.single("Z", 1, 2))

    def test_two_overlaps_cancel(self):
        assert commutes(parse_word("X0 Y1", 2), parse_word("Z0 X1", 2))

    def test_exhaustive_vs_phase_symmetry(self):
        # ab and ba give the same word; commuting iff equal phases (N <= 3)
        for n in (1, 2, 3):
            for a in all_words(n):
                for b in all_words(n):
                    _, kab = multiply(a, b)
                    _, kba = multiply(b, a)
                    assert commutes(a, b) == (kab == kba)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            commutes(PauliWord.identity(2), PauliWord.identity(3))


class TestYCount:
    def test_identity(self):
        assert PauliWord.identity(4).y_count() == 0

    def test_two_ys(self):
        assert parse_word("Y0 Y1", 2).y_count() == 2

    def test_one_overlap_bit(self):
        assert parse_word("Y0 X1 Z2", 3).y_count() == 1


class TestIsXString:
    def test_pure_x(self):
        assert parse_word("X0 X3", 4).is_x_string()

    def test_with_y(self):
        assert not parse_word("X0 Y3", 4).is_x_string()

    def test_identity_excluded(self):
        assert not PauliWord.identity(4).is_x_string()


class TestWordOrder:
    @given(words_strategy(), words_strategy())
    def test_total_and_antisymmetric(self, a, b):
        ka, kb = a.sort_key(), b.sort_key()
        assert (ka < kb) or (kb < ka) or (ka == kb and a == b)

    @given(words_strategy(), words_strategy(), words_strategy())
    def test_transitive(self, a, b, c):
        if a.sort_key() <= b.sort_key() <= c.sort_key():
            assert a.sort_key() <= c.sort_key()

    def test_weight_primary(self):
        assert PauliWord.single("Z", 5, 6).sort_key() < parse_word("X0 X1", 6).sort_key()


class TestTextFormat:
    def test_render(self):
        assert render_word(parse_word("X0 Z3 Y7", 8)) == "X0 Z3 Y7"

    def test_identity(self):
        assert render_word(PauliWord.identity(3)) == "I"
        assert parse_word("I", 3).is_identity()
        assert parse_word("", 3).is_identity()

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
