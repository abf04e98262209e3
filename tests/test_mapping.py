import numpy as np
import pytest

from iqcc import mapping
from iqcc._packed import expectation_packed, pack, unpack
from iqcc.driver import IqccConfig
from iqcc.errors import CapacityError, HermiticityError
from iqcc.fcidump import MolecularIntegrals, load_fcidump, select_cas
from iqcc.mapping import (
    jordan_wigner,
    occupation_ms2,
    penalize,
    reference_state,
    spin_operators,
)
from iqcc.oracle import ground_state, to_sparse
from iqcc.pauli import PauliWord, parse_word

from helpers import (
    assert_same,
    dense_fermionic_hamiltonian,
    random_symmetric_integrals,
    reference_jordan_wigner,
    reference_penalize,
    reference_spin_operators,
    spy_sort,
    synth_fcidump,
    terms_dict,
    to_matrix,
    traced_peak,
)


def sparse_wide_integrals(n_spatial: int) -> MolecularIntegrals:
    """A few symmetric integrals reaching the last orbital: wide, cheap masks."""
    h1 = np.diag(-1.0 + 0.01 * np.arange(n_spatial))
    top = n_spatial - 1
    for p, q, v in ((0, top, 0.125), (3, top - 2, -0.0625)):
        h1[p, q] = h1[q, p] = v
    g2 = np.zeros((n_spatial,) * 4)
    for (p, q, r, s), v in (((0, top, 1, top - 1), 0.03125), ((2, 2, top, top), 0.5)):
        for a, b, c, d in ((p, q, r, s), (r, s, p, q)):
            g2[a, b, c, d] = g2[b, a, c, d] = g2[a, b, d, c] = g2[b, a, d, c] = v
    return MolecularIntegrals(0.75, h1, g2, 2, n_spatial)


class TestJordanWigner:
    def test_core_only(self):
        mi = MolecularIntegrals(0.5, np.zeros((1, 1)), np.zeros((1, 1, 1, 1)), 0, 1)
        h = jordan_wigner(mi)
        assert len(h) == 1
        assert terms_dict(h)[(0, 0)] == 0.5

    def test_number_operator_form(self):
        mi = MolecularIntegrals(0.0, np.array([[0.3]]), np.zeros((1, 1, 1, 1)), 2, 1)
        h = jordan_wigner(mi)
        assert abs(expectation_packed(h, reference_state(2, 2, 0)) - 0.6) < 1e-14

    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(0)
        for n_spatial in (1, 2, 3):
            mi = random_symmetric_integrals(n_spatial, rng, core=0.21)
            dense = dense_fermionic_hamiltonian(mi)
            symbolic = to_matrix(jordan_wigner(mi))
            assert np.max(np.abs(dense - symbolic)) < 1e-12

    def test_h2_fci_matches_oracle_reference(self, h2_problem, reference_values):
        _, h, _ = h2_problem
        e, _ = ground_state(h)
        assert abs(e - reference_values["h2"]["fci_energy"]) < 1e-12

    def test_number_conservation(self, h2_problem):
        _, h, _ = h2_problem
        n_op = pack(
            [(PauliWord(0, 0, 4), 2.0)] + [(parse_word(f"Z{q}", 4), -0.5) for q in range(4)],
            4,
        )
        hm, nm = to_matrix(h), to_matrix(n_op)
        assert np.max(np.abs(hm @ nm - nm @ hm)) < 1e-10

    def test_spin_symmetry(self, h2_problem):
        _, h, _ = h2_problem
        s2, sz = spin_operators(4)
        hm = to_matrix(h)
        for om in (to_matrix(s2), to_matrix(sz)):
            assert np.max(np.abs(hm @ om - om @ hm)) < 1e-10

    def test_capacity(self):
        mi = MolecularIntegrals(0.0, np.zeros((33, 33)), np.zeros((33,) * 4), 2, 33)
        with pytest.raises(CapacityError):
            jordan_wigner(mi)

    def test_overflow_rejected(self):
        # finite integrals whose identity coefficient overflows to inf: a
        # domain error, raised before the odd-y check, where inf - inf would
        # hide as NaN
        mi = MolecularIntegrals(0.0, np.diag([1.7e308, 1.7e308]), np.zeros((2,) * 4), 2, 2)
        with pytest.raises(ValueError, match="^non-finite coefficient inf on I$"):
            jordan_wigner(mi)

    def test_all_coefficients_real_even_y(self, lih_problem):
        _, h, _ = lih_problem
        assert h.c.dtype == np.float64
        for w, c in unpack(h):
            assert w.y_count() % 2 == 0
            assert isinstance(c, float)


class TestAgainstScalarReference:
    """The blocked numpy expansion against the scalar one, bit for bit."""

    @pytest.mark.parametrize("name", ["h2", "h2_stretched", "h4", "lih"])
    def test_fixtures(self, fixture_dir, name):
        mi = load_fcidump(fixture_dir / f"{name}.fcidump")
        assert_same(jordan_wigner(mi), reference_jordan_wigner(mi))

    @pytest.mark.parametrize("n_spatial", [1, 2, 3, 4, 5, 6])
    def test_random_integrals(self, n_spatial):
        # dense g2: every index coincidence, and at 5 and 6 orbitals many blocks
        mi = random_symmetric_integrals(n_spatial, np.random.default_rng(n_spatial), core=-0.3)
        assert_same(jordan_wigner(mi), reference_jordan_wigner(mi))

    def test_wider_than_32_qubits(self):
        # 36 qubits: keys no longer fit one composite sort word (lexsort path)
        mi = sparse_wide_integrals(18)
        h = jordan_wigner(mi)
        assert int(np.max(h.x | h.z)) >> 32
        assert_same(h, reference_jordan_wigner(mi))

    @pytest.mark.parametrize("block", [1, 3, 1 << 20])
    def test_block_size_invariance(self, fixture_dir, monkeypatch, block):
        mi = load_fcidump(fixture_dir / "h4.fcidump")
        expected = reference_jordan_wigner(mi)
        s2_expected = reference_spin_operators(8)[0]
        monkeypatch.setattr(mapping, "_BLOCK", block)
        assert_same(jordan_wigner(mi), expected)
        assert_same(spin_operators(8)[0], s2_expected)

    @pytest.mark.parametrize("n_qubits", [4, 8, 12, 24])
    def test_spin_operators(self, n_qubits):
        s2, sz = spin_operators(n_qubits)
        s2_ref, sz_ref = reference_spin_operators(n_qubits)
        assert_same(s2, s2_ref)
        assert_same(sz, sz_ref)


class TestSyntheticInput:
    """The ``synth_transform`` benchmark's 24-qubit input, seed 1: 336,721
    Pauli rows of 21,108 ladder products and the core energy, reduced to
    7,537 terms."""

    @pytest.fixture(scope="class")
    def mi(self, tmp_path_factory):
        return load_fcidump(synth_fcidump(tmp_path_factory.mktemp("synth"), 1))

    def test_two_sorts(self, mi, monkeypatch):
        # the products' signatures (21,108 ladder products and the core
        # energy), then the 28,025 keys they imply; the table of 24,533
        # distinct keys is never re-sorted per block of rows
        sizes = spy_sort(monkeypatch)
        assert len(jordan_wigner(mi)) == 7537
        assert sizes == [21_109, 28_025]

    def test_peak_memory(self, mi):
        # the row temporaries stay bounded by the block: holding every row's
        # slot and coefficient would peak at ~17 MB
        assert traced_peak(jordan_wigner, mi) < 4_000_000


class TestHermiticityErrors:
    def test_asymmetric_h1_leaves_odd_y_word(self):
        mi = MolecularIntegrals(0.0, np.array([[0.0, 0.1], [0.1, 0.0]]), np.zeros((2,) * 4), 2, 2)
        mi.h1.setflags(write=True)  # the instance's own copy, read-only after its check
        mi.h1[1, 0] = 0.3  # past the constructor's symmetry check
        with pytest.raises(HermiticityError, match="odd y-count word Y0 Z1 X2 ") as err:
            jordan_wigner(mi)
        with pytest.raises(HermiticityError) as ref_err:
            reference_jordan_wigner(mi)
        assert str(err.value) == str(ref_err.value)

    @pytest.mark.parametrize("tensor, n_rejected", [("h1", 300), ("g2", 247)])
    def test_first_bad_word_in_key_order(self, tensor, n_rejected):
        # seeds 0-299, 2-3 orbitals, one asymmetric entry on symmetric
        # integrals: both name the first bad word in key order.  With an
        # asymmetric h1 entry the bad words all come from one orbital pair,
        # whose first word is first in either order; an asymmetric g2 entry
        # leaves words whose generation order differs from key order
        rejected = 0
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 4))
            h1 = rng.normal(size=(n, n))
            mi = MolecularIntegrals(0.0, 0.5 * (h1 + h1.T), np.zeros((n,) * 4), n, n, n % 2)
            getattr(mi, tensor).setflags(write=True)  # the instance's own copy
            if tensor == "h1":
                p, q = (int(v) for v in rng.choice(n, size=2, replace=False))
                mi.h1[p, q] += 0.25  # past the constructor's symmetry check
            else:  # (pq|rs) with p != q, whose partner (qp|rs) stays 0
                p, q = (int(v) for v in rng.choice(n, size=2, replace=False))
                r, s = (int(v) for v in rng.integers(0, n, size=2))
                mi.g2[p, q, r, s] = 1.0 + rng.random()
            messages = []
            for expand in (jordan_wigner, reference_jordan_wigner):
                try:
                    expand(mi)
                    messages.append(None)
                except HermiticityError as err:
                    messages.append(str(err))
            assert messages[0] == messages[1], seed
            rejected += messages[0] is not None
        assert rejected == n_rejected  # the rest leave no odd-y word

    def test_odd_y_tolerance_scales_with_the_largest_coefficient(self):
        # an odd-y coefficient above 1e-10 of the largest magnitude is a
        # hermiticity violation; one below it is cancellation dust, dropped
        x = z = np.array([0b00, 0b01], dtype=np.uint64)  # I and Y0
        scale = 4.0
        with pytest.raises(HermiticityError, match="odd y-count word Y0"):
            mapping._collapse(2, x, z, np.array([scale, 1e-8 * scale]))
        out = mapping._collapse(2, x, z, np.array([scale, 1e-11 * scale]))
        assert out.x.tolist() == [0] and out.c.tolist() == [scale]

    def test_complex_h1_leaves_imaginary_coefficient(self):
        # real integrals give every even-y word a real coefficient, term by
        # term, so the expansion carries one float per row and complex input
        # is rejected before it; the scalar reference finds the imaginary
        # coefficient it would leave
        mi = MolecularIntegrals(0.0, np.array([[0.3j]]), np.zeros((1,) * 4), 1, 1, 1)
        with pytest.raises(HermiticityError, match="^complex integral values$"):
            jordan_wigner(mi)
        with pytest.raises(HermiticityError, match="imaginary coefficient .* on I$"):
            reference_jordan_wigner(mi)


class TestReferenceState:
    def test_empty(self):
        assert reference_state(0, 4, 0).occupation == 0

    def test_full(self):
        assert reference_state(4, 4, 0).occupation == 0b1111

    def test_h2_matches_scf(self, h2_problem, reference_values):
        _, h, _ = h2_problem
        e = expectation_packed(h, reference_state(2, 4, 0))
        assert abs(e - reference_values["h2"]["scf_energy"]) < 1e-10

    def test_open_shell_ms2(self):
        # two alpha electrons in the lowest two orbitals
        ref = reference_state(2, 8, ms2=2)
        assert ref.occupation == 0b0101

    def test_default_is_contiguous(self):
        # the lowest MS2 fills the first n_e qubits under the interleaved convention
        assert reference_state(3, 6, 1).occupation == 0b111
        assert reference_state(4, 6, 0).occupation == 0b1111

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            reference_state(5, 4, 1)
        with pytest.raises(ValueError, match="^ms2=1 inconsistent with 2 electrons$"):
            reference_state(2, 8, ms2=1)  # parity mismatch
        with pytest.raises(ValueError, match="^ms2=-2 must be >= 0$"):
            reference_state(2, 8, ms2=-2)  # the alpha electrons are the majority


class TestSpinOperators:
    def test_closed_shell_expectations(self):
        s2, sz = spin_operators(4)
        ref = reference_state(2, 4, 0)
        assert abs(expectation_packed(s2, ref)) < 1e-14
        assert abs(expectation_packed(sz, ref)) < 1e-14

    def test_single_unpaired_alpha(self):
        s2, sz = spin_operators(4)
        ref = reference_state(1, 4, ms2=1)
        assert abs(expectation_packed(sz, ref) - 0.5) < 1e-14
        assert abs(expectation_packed(s2, ref) - 0.75) < 1e-14

    def test_commute_with_each_other_and_hamiltonian(self):
        rng = np.random.default_rng(1)
        mi = random_symmetric_integrals(2, rng)
        hm = to_matrix(jordan_wigner(mi))
        s2, sz = spin_operators(4)
        s2m, szm = to_matrix(s2), to_matrix(sz)
        assert np.max(np.abs(s2m @ szm - szm @ s2m)) < 1e-12
        assert np.max(np.abs(s2m @ hm - hm @ s2m)) < 1e-10
        assert np.max(np.abs(szm @ hm - hm @ szm)) < 1e-10

    def test_odd_qubits_rejected(self):
        with pytest.raises(ValueError):
            spin_operators(5)

    @pytest.mark.parametrize("n_qubits", range(2, 13, 2))
    def test_occupation_ms2_is_twice_s_z(self, n_qubits):
        # the MS2 the oracle and the penalty read off the bits, on every basis
        # state, as an array and as one int each
        diag = to_sparse(spin_operators(n_qubits)[1]).diagonal()
        states = np.arange(1 << n_qubits)
        ms2 = occupation_ms2(states)
        assert not diag.imag.any() and np.array_equal(ms2, 2 * diag.real)
        assert [occupation_ms2(b) for b in states.tolist()] == ms2.tolist()

    @pytest.mark.parametrize("n_e, ms2", [(64, 0), (33, 1), (34, 2), (32, 32)])
    def test_occupation_ms2_of_64_qubit_references(self, n_e, ms2):
        # the top qubit (beta) is bit 63
        assert occupation_ms2(reference_state(n_e, 64, ms2).occupation) == ms2

    def test_hermitian_real(self):
        s2, sz = spin_operators(6)
        for op in (s2, sz):
            assert op.c.dtype == np.float64
            for w, c in unpack(op):
                assert w.y_count() % 2 == 0
                assert isinstance(c, float)


class TestPenalize:
    def test_mu_zero_unchanged(self, h2_problem):
        _, h, _ = h2_problem
        # nothing but mu is read: not even a reference the penalty rejects
        assert penalize(h, 0.0, reference_state(1, 4, 1)) is h

    def test_s_zero_is_pure_s_squared(self, h2_problem):
        _, h, ref = h2_problem
        s2, _ = spin_operators(4)
        want = terms_dict(h)
        for key, c in terms_dict(s2).items():
            want[key] = want.get(key, 0.0) + 0.3 * c
        got = penalize(h, 0.3, ref)
        assert terms_dict(got) == {key: c for key, c in want.items() if c != 0.0}

    @pytest.mark.parametrize("name", ["h2", "h2_stretched", "h4", "lih"])
    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
    def test_bit_equal_to_dict_order_add(self, fixture_dir, name, s):
        # the target is the reference's s = MS2/2: the singlet and the triplet
        # are today's operators; MS2 1 (one electron fewer) is rejected
        mi = load_fcidump(fixture_dir / f"{name}.fcidump")
        h = jordan_wigner(mi)
        ms2 = int(2 * s)
        ref = reference_state(mi.n_electrons - ms2 % 2, h.n_qubits, ms2)
        for mu in (0.25, 0.3, 0.5):
            if s == 0.5:
                with pytest.raises(ValueError, match="not the reference's MS2 1$"):
                    penalize(h, mu, ref)
            else:
                assert_same(penalize(h, mu, ref), reference_penalize(h, mu, s))

    # the config checks the penalty's mu
    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError, match="penalty strength must be finite and >= 0"):
            IqccConfig(mu=-0.1)

    @pytest.mark.parametrize("mu", [0.0, 0.25])
    @pytest.mark.parametrize("s", [-1.0, -2.0, -0.5])
    def test_negative_spin_rejected(self, h2_problem, mu, s):
        # s(s+1) is the same for s and -s-1, so -1 and -2 would alias s = 0
        # and 1; the target is the reference's MS2/2, and no reference has a
        # negative MS2
        _, h, _ = h2_problem
        with pytest.raises(ValueError, match=f"^ms2={int(2 * s)} must be >= 0$"):
            penalize(h, mu, reference_state(2, 4, int(2 * s)))

    def test_stretched_h2_sector_ground_is_triplet(self, h2_stretched_problem):
        # within the S_z = +1 sector the penalized ground state is a pure
        # triplet (the penalty removes higher-spin contamination there)
        _, h, _ = h2_stretched_problem
        hp = penalize(h, 0.25, reference_state(2, 4, 2))
        s2m = to_matrix(spin_operators(4)[0])
        szm = to_matrix(spin_operators(4)[1])
        hm = to_matrix(hp)
        evals, evecs = np.linalg.eigh(hm)
        best = None
        for i in range(len(evals)):
            v = evecs[:, i]
            msz = np.real(np.vdot(v, szm @ v))
            if abs(msz - 1.0) < 1e-6:
                best = v
                break
        assert best is not None
        s2val = np.real(np.vdot(best, s2m @ best))
        assert abs(s2val - 2.0) < 0.01


class TestFrozenCore:
    def test_cas_equals_projected_sector(self, fixture_dir):
        # folding then mapping == mapping then exact projection onto the
        # frozen-core sector, elementwise (LiH, 1s frozen)
        mi = load_fcidump(fixture_dir / "lih.fcidump")
        folded = jordan_wigner(select_cas(mi, 1, mi.n_spatial - 2))
        full = to_matrix(jordan_wigner(select_cas(mi, 2, 4)))

        n_act = 2 * (mi.n_spatial - 1)
        dim = 1 << n_act
        # basis states of the projected sector: qubits 0,1 occupied
        idx = (np.arange(dim) << 2) | 0b11
        projected = full[np.ix_(idx, idx)]
        assert np.max(np.abs(projected - to_matrix(folded))) < 1e-10

    def test_folded_fci_matches_projected_fci(self, fixture_dir, reference_values):
        mi = load_fcidump(fixture_dir / "lih.fcidump")
        folded = jordan_wigner(select_cas(mi, 1, mi.n_spatial - 2))
        e_folded, _ = ground_state(folded)

        full = to_matrix(jordan_wigner(mi))
        dim = 1 << (2 * (mi.n_spatial - 1))
        idx = (np.arange(dim) << 2) | 0b11
        e_projected = float(np.linalg.eigvalsh(full[np.ix_(idx, idx)])[0])
        assert abs(e_folded - e_projected) < 1e-10
        # frozen-core energy sits just above the full FCI minimum
        assert e_folded >= reference_values["lih"]["fci_energy"] - 1e-10
