import numpy as np
import pytest

from iqcc import ReferenceState, oracle
from iqcc._packed import expectation_packed, pack, unpack
from iqcc.errors import CapacityError, IqccError
from iqcc.fcidump import MolecularIntegrals
from iqcc.mapping import jordan_wigner, spin_operators
from iqcc.oracle import ground_state, spin_resolved_spectrum, to_sparse
from iqcc.pauli import PauliWord, parse_word
from iqcc.pauli_sum import dress_sequence

from helpers import (
    ansatz_unitary,
    random_generator,
    random_hermitian_sum,
    random_symmetric_integrals,
    raw_multiply,
    reference_spin_resolved_spectrum,
    reference_vector,
    to_matrix,
    word_matrix,
)

SECTORS = [(0.0, 0.0), (1.0, -1.0), (1.0, 0.0), (1.0, 1.0)]

PAULI_1Q = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}


class TestToMatrix:
    def test_identity(self):
        assert np.allclose(to_matrix(pack([(PauliWord(0, 0, 3), 1.0)], 3)), np.eye(8))

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
                kron = np.kron(kron, PAULI_1Q["IXZY"[(x >> q & 1) + 2 * (z >> q & 1)]])
            assert np.allclose(word_matrix(w), kron, atol=1e-12)

    def test_multiplication_homomorphism_exhaustive(self):
        words = [PauliWord(x, z, 2) for x in range(4) for z in range(4)]
        for a in words:
            for b in words:
                # matrix(a) @ matrix(b) == i^k matrix(c), (c, k) the reference product
                cx, cz, k = raw_multiply(a.x, a.z, b.x, b.z)
                rhs = (1, 1j, -1, -1j)[k] * word_matrix(PauliWord(cx, cz, 2))
                assert np.allclose(word_matrix(a) @ word_matrix(b), rhs, atol=1e-12)

    def test_sparse_matches_dense(self):
        rng = np.random.default_rng(2)
        h = random_hermitian_sum(5, 20, rng)
        words = sum(c * word_matrix(PauliWord(x, z, 5)) for x, z, c in
                    zip(h.x.tolist(), h.z.tolist(), h.c.tolist()))
        assert np.allclose(to_sparse(h).toarray(), words)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            to_sparse(pack([], 20))
        with pytest.raises(CapacityError):
            ground_state(pack([], 20))
        s2, sz = spin_operators(18)
        with pytest.raises(CapacityError):
            spin_resolved_spectrum(pack([], 17), s2, sz, (0.0, 0.0))


class TestGroundState:
    def test_constant(self):
        e, _ = ground_state(pack([(PauliWord(0, 0, 2), -0.75)], 2))
        assert abs(e + 0.75) < 1e-12

    @pytest.mark.parametrize("n", [10, 11])
    def test_empty_sum(self, n):
        # ARPACK cannot start on the zero matrix of the 11-qubit path
        e, vec = ground_state(pack([], n))
        assert e == 0.0 and vec.shape == (1 << n,) and np.linalg.norm(vec) == 1.0

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

    def test_solver_failure_is_domain_error(self):
        # eigh itself fails on an infinite off-diagonal entry
        h = pack([(parse_word("X0 X1", 2), np.inf), (parse_word("Z0", 2), 1.0)], 2)
        with np.errstate(invalid="ignore"), pytest.raises(IqccError, match="eigensolver failed"):
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

    @pytest.mark.parametrize(
        "sector", [(-1.0, 0.0), (-2.0, 1.0), (0.0, 1.0), (1.0, -2.0), (float("nan"), 0.0)],
        ids=["s_minus_one", "s_minus_two", "ms_above_s", "ms_below_minus_s", "s_nan"],
    )
    def test_sector_outside_spin_range(self, h2_problem, sector):
        # s(s+1) is the same for s and -s-1: (-1, 0) and (-2, 1) would alias
        # the singlet and the triplet
        _, h, _ = h2_problem
        s2, sz = spin_operators(4)
        with pytest.raises(IqccError, match=r"needs s >= 0 and \|m_s\| <= s"):
            spin_resolved_spectrum(h, s2, sz, sector)

    @pytest.mark.parametrize("name", ["h2", "h2_stretched", "h4", "seed0", "seed1", "seed2"])
    def test_blocks_match_whole_space(self, request, name):
        if name.startswith("seed"):
            # seeded random integrals over 2, 3 and 4 spatial orbitals
            seed = int(name[4:])
            h = jordan_wigner(random_symmetric_integrals(seed + 2, np.random.default_rng(seed)))
        else:
            _, h, _ = request.getfixturevalue(f"{name}_problem")
        s2, sz = spin_operators(h.n_qubits)
        for sector in SECTORS:
            e_blocks = spin_resolved_spectrum(h, s2, sz, sector)
            e_whole = reference_spin_resolved_spectrum(h, s2, sz, sector)
            assert abs(e_blocks - e_whole) < 1e-12, (sector, e_blocks, e_whole)

    @pytest.mark.parametrize("name", ["h2", "h2_stretched", "h4", "lih"])
    def test_stored_singlet_and_triplet(self, request, reference_values, name):
        _, h, _ = request.getfixturevalue(f"{name}_problem")
        s2, sz = spin_operators(h.n_qubits)
        stored = reference_values[name]
        assert abs(spin_resolved_spectrum(h, s2, sz, (0.0, 0.0)) - stored["fci_singlet"]) < 1e-12
        assert abs(spin_resolved_spectrum(h, s2, sz, (1.0, 1.0)) - stored["fci_triplet"]) < 1e-12

    def test_number_breaking_hamiltonian_rejected(self, h2_problem):
        # commutes with neither N nor the block structure: an error, not a number
        _, h, _ = h2_problem
        s2, sz = spin_operators(4)
        bad = pack(unpack(h) + [(parse_word("X0", 4), 0.1)], 4)
        with pytest.raises(IqccError, match="leaves the sector block"):
            spin_resolved_spectrum(bad, s2, sz, (0.0, 0.0))

    def test_off_diagonal_s_z_rejected(self, h2_problem):
        _, h, _ = h2_problem
        s2, sz = spin_operators(4)
        bad = pack(unpack(sz) + [(parse_word("X0 X2", 4), 0.1)], 4)
        with pytest.raises(IqccError, match="off-diagonal"):
            spin_resolved_spectrum(h, s2, bad, (0.0, 0.0))

    def test_non_finite_block_rejected(self):
        # an infinite diagonal entry: eigh returns -inf or NaN there, no error
        hop = [(parse_word("X0 Z1 X2", 4), 0.5), (parse_word("Y0 Z1 Y2", 4), 0.5)]
        h = pack([(parse_word("Z0", 4), np.inf)] + hop, 4)
        s2, sz = spin_operators(4)
        with np.errstate(invalid="ignore"), pytest.raises(IqccError, match="not finite"):
            spin_resolved_spectrum(h, s2, sz, (0.0, 0.0))

    def test_block_solver_failure_is_domain_error(self, h2_problem, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        _, h, _ = h2_problem
        s2, sz = spin_operators(4)
        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(IqccError, match="eigensolver failed"):
            spin_resolved_spectrum(h, s2, sz, (0.0, 0.0))

    def test_entries_independent_of_chunk_size(self, monkeypatch):
        # words with one x mask share a row: each x-group's entries are summed
        # in key order, so no number depends on how the states are chunked
        h = jordan_wigner(random_symmetric_integrals(4, np.random.default_rng(3)))
        assert len(np.unique(h.x)) < len(h)
        s2, sz = spin_operators(h.n_qubits)
        seen = []
        for chunk in (oracle._CHUNK_ENTRIES, 7, 3 * len(h), 10_000):
            monkeypatch.setattr(oracle, "_CHUNK_ENTRIES", chunk)
            seen.append((
                to_sparse(h).toarray().tobytes(),
                [spin_resolved_spectrum(h, s2, sz, sector).hex() for sector in SECTORS],
            ))
        assert all(got == seen[0] for got in seen[1:])

    def test_fourteen_qubits(self):
        # a 7-site Hubbard ring, beyond the dense limit: its triplet is
        # degenerate in m_s
        n_sites = 7
        ring = np.roll(np.eye(n_sites), 1, axis=1)
        site = np.arange(n_sites)
        g2 = np.zeros((n_sites,) * 4)
        g2[site, site, site, site] = 4.0  # on-site repulsion U = 4 |t|
        h = jordan_wigner(MolecularIntegrals(0.0, -(ring + ring.T), g2, n_sites, n_sites, 1))
        s2, sz = spin_operators(14)
        e_up, e_down = (spin_resolved_spectrum(h, s2, sz, (1.0, m)) for m in (1.0, -1.0))
        assert np.isfinite(e_up) and abs(e_up - e_down) < 1e-9


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
