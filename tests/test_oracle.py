import numpy as np
import pytest

from iqcc._packed import expectation_packed, pack, unpack
from iqcc.errors import CapacityError, IqccError
from iqcc.mapping import spin_operators
from iqcc.oracle import (
    ansatz_unitary,
    ground_state,
    reference_vector,
    spin_resolved_spectrum,
    to_matrix,
    to_sparse,
    word_matrix,
)
from iqcc.pauli import PauliWord, multiply, parse_word
from iqcc.pauli_sum import ReferenceState, dress_sequence

from helpers import random_generator, random_hermitian_sum

PAULI_1Q = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}


class TestToMatrix:
    def test_identity(self):
        assert np.allclose(to_matrix(pack([(PauliWord.identity(3), 1.0)], 3)), np.eye(8))

    def test_z0_basis_order(self):
        # documented convention: index 0 unoccupied (+1), index 1 occupied (-1)
        m = to_matrix(pack([(parse_word("Z0", 1), 1.0)], 1))
        assert np.allclose(m, np.diag([1.0, -1.0]))

    def test_linearity(self):
        rng = np.random.default_rng(0)
        a = random_hermitian_sum(4, 12, rng)
        b = random_hermitian_sum(4, 12, rng)
        total = pack(unpack(a) + unpack(b), 4)
        assert np.allclose(to_matrix(total), to_matrix(a) + to_matrix(b))

    def test_kron_realization(self):
        # qubit 0 is the least significant bit = rightmost Kronecker factor
        rng = np.random.default_rng(1)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            x, z = int(rng.integers(1 << n)), int(rng.integers(1 << n))
            w = PauliWord(x, z, n)
            kron = np.eye(1)
            for q in reversed(range(n)):
                kron = np.kron(kron, PAULI_1Q[w.axis(q)])
            assert np.allclose(word_matrix(w), kron, atol=1e-12)

    def test_multiplication_homomorphism_exhaustive(self):
        words = [PauliWord(x, z, 2) for x in range(4) for z in range(4)]
        for a in words:
            for b in words:
                # matrix(a) @ matrix(b) == i^k matrix(c) with (c, k) = multiply(a, b)
                c, k = multiply(a, b)
                rhs = (1, 1j, -1, -1j)[k] * word_matrix(c)
                assert np.allclose(word_matrix(a) @ word_matrix(b), rhs, atol=1e-12)

    def test_sparse_matches_dense(self):
        rng = np.random.default_rng(2)
        h = random_hermitian_sum(5, 20, rng)
        assert np.allclose(to_sparse(h).toarray(), to_matrix(h))

    def test_capacity(self):
        with pytest.raises(CapacityError):
            to_matrix(pack([], 20))
        with pytest.raises(CapacityError):
            ground_state(pack([], 20))


class TestGroundState:
    def test_constant(self):
        e, _ = ground_state(pack([(PauliWord.identity(2), -0.75)], 2))
        assert abs(e + 0.75) < 1e-12

    def test_h2_fci(self, h2_problem, reference_values):
        _, h, _ = h2_problem
        e, vec = ground_state(h)
        assert abs(e - reference_values["h2"]["fci_energy"]) < 1e-9
        # residual sanity
        m = to_matrix(h)
        assert np.linalg.norm(m @ vec - e * vec) < 1e-10

    def test_dressing_invariance(self, h2_problem):
        _, h, _ = h2_problem
        rng = np.random.default_rng(3)
        hd = dress_sequence(h, [(random_generator(4, rng), 0.4)])
        e0, _ = ground_state(h)
        e1, _ = ground_state(hd)
        assert abs(e0 - e1) < 1e-10

    def test_sparse_path_matches_dense(self):
        rng = np.random.default_rng(4)
        h = random_hermitian_sum(11, 40, rng)
        e_sparse, vec = ground_state(h)  # 11 qubits goes through Lanczos
        dense_vals = np.linalg.eigvalsh(to_matrix(h))
        assert abs(e_sparse - dense_vals[0]) < 1e-9

    def test_variational_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            h = random_hermitian_sum(5, 20, rng)
            ref = ReferenceState(int(rng.integers(32)), 5)
            e, _ = ground_state(h)
            assert e <= expectation_packed(h, ref) + 1e-12

    def test_non_finite_coefficient_fails_residual_check(self):
        # the eigenpair of a matrix with an inf entry is NaN, and so is its
        # residual; NaN must fail the tolerance, not pass it
        h = pack([(parse_word("Z0", 2), np.inf), (parse_word("X0", 2), 0.5)], 2)
        with np.errstate(invalid="ignore"), pytest.raises(IqccError, match="eigen-residual nan"):
            ground_state(h)


class TestSpinResolved:
    def test_h2_singlet_is_ground(self, h2_problem, reference_values):
        _, h, _ = h2_problem
        s2, sz = spin_operators(4)
        e_s = spin_resolved_spectrum(h, s2, sz, (0.0, 0.0))
        e0, _ = ground_state(h)
        assert abs(e_s - e0) < 1e-10

    def test_h2_triplet_above_singlet(self, h2_problem, reference_values):
        _, h, _ = h2_problem
        s2, sz = spin_operators(4)
        e_t = spin_resolved_spectrum(h, s2, sz, (1.0, 1.0))
        assert e_t > reference_values["h2"]["fci_singlet"]
        assert abs(e_t - reference_values["h2"]["fci_triplet"]) < 1e-9

    def test_triplet_degenerate_in_ms(self, h2_problem):
        _, h, _ = h2_problem
        s2, sz = spin_operators(4)
        energies = [
            spin_resolved_spectrum(h, s2, sz, (1.0, m)) for m in (-1.0, 0.0, 1.0)
        ]
        assert max(energies) - min(energies) < 1e-9

    def test_empty_sector(self, h2_problem):
        _, h, _ = h2_problem
        s2, sz = spin_operators(4)
        with pytest.raises(IqccError):
            spin_resolved_spectrum(h, s2, sz, (5.0, 5.0))


class TestAnsatzUnitary:
    def test_is_unitary_and_ordered(self):
        rng = np.random.default_rng(6)
        pairs = [(random_generator(3, rng), 0.3), (random_generator(3, rng), -0.8)]
        u = ansatz_unitary(pairs, 3)
        assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-12)
        u1 = ansatz_unitary(pairs[:1], 3)
        u2 = ansatz_unitary(pairs[1:], 3)
        assert np.allclose(u, u1 @ u2, atol=1e-12)

    def test_reference_vector(self):
        ref = ReferenceState(0b101, 3)
        v = reference_vector(ref)
        assert v[0b101] == 1.0 and np.sum(np.abs(v)) == 1.0
