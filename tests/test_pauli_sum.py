import json
import math

import numpy as np
import pytest

from iqcc.errors import (
    CapacityError,
    DimensionError,
    InvalidGeneratorError,
)
from iqcc.pauli import PauliWord, parse_word
from iqcc.pauli_sum import (
    PauliSum,
    ReferenceState,
    dress,
    dress_sequence,
    expectation,
    from_json_dict,
    prune,
    sum_add,
    sum_scale,
    to_json_dict,
)
from iqcc import _packed
from iqcc.oracle import ansatz_unitary, to_matrix

from helpers import random_generator, random_hermitian_sum, reference_dress


class TestArithmetic:
    def test_cancellation(self):
        a = PauliSum(2, [(parse_word("Z0", 2), 1.0), (parse_word("X0 X1", 2), 0.5)])
        assert len(sum_add(a, sum_scale(a, -1.0))) == 0

    def test_collision_merge(self):
        z0 = parse_word("Z0", 1)
        merged = sum_add(PauliSum(1, [(z0, 1.0)]), PauliSum(1, [(z0, 0.5)]))
        assert dict(merged.raw_items())[(z0.x, z0.z)] == 1.5 and len(merged) == 1

    def test_matrix_linearity(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = random_hermitian_sum(4, 10, rng)
            b = random_hermitian_sum(4, 10, rng)
            assert np.allclose(to_matrix(sum_add(a, b)), to_matrix(a) + to_matrix(b))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            sum_add(PauliSum(2), PauliSum(3))

    def test_rejects_phase_carrying_words(self):
        with pytest.raises(ValueError):
            PauliSum(2, [(PauliWord(1, 0, 2, phase_exp=1), 1.0)])


class TestExpectations:
    def test_z_on_occupied(self):
        ref = ReferenceState(0b1, 1)
        assert expectation(PauliSum(1, [(parse_word("Z0", 1), 1.0)]), ref) == -1.0

    def test_identity(self):
        ref = ReferenceState(0b10, 2)
        assert expectation(PauliSum.identity(2, 0.25), ref) == 0.25

    def test_x_strings_vanish(self):
        ref = ReferenceState(0b01, 2)
        h = PauliSum(2, [(parse_word("X0 X1", 2), 2.0), (parse_word("Z0", 2), 0.5)])
        assert expectation(h, ref) == expectation(
            PauliSum(2, [(parse_word("Z0", 2), 0.5)]), ref
        )

    def test_matches_matrix_element(self):
        rng = np.random.default_rng(2)
        for n in (5, 5, 5, 8, 10):
            h = random_hermitian_sum(n, 20, rng)
            occ = int(rng.integers(1 << n))
            ref = ReferenceState(occ, n)
            mat = to_matrix(h)
            assert abs(expectation(h, ref) - mat[occ, occ].real) < 1e-12


class TestDress:
    def test_all_commuting_unchanged(self):
        # diagonal h, generator with full overlap on z-free qubits
        h = PauliSum(3, [(parse_word("Z0 Z1", 3), 1.0), (PauliWord.identity(3), 0.3)])
        gen = parse_word("Y2", 3)
        assert dress(h, gen, 0.7) == h

    def test_zero_amplitude(self):
        rng = np.random.default_rng(3)
        h = random_hermitian_sum(4, 10, rng)
        assert dress(h, random_generator(4, rng), 0.0) == h

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            h = random_hermitian_sum(6, 30, rng)
            gen = random_generator(6, rng)
            t = float(rng.normal())
            e0 = np.linalg.eigvalsh(to_matrix(h))
            e1 = np.linalg.eigvalsh(to_matrix(dress(h, gen, t)))
            assert np.max(np.abs(e0 - e1)) < 1e-10

    def test_matches_dense_conjugation(self):
        rng = np.random.default_rng(5)
        h = random_hermitian_sum(5, 20, rng)
        gen = random_generator(5, rng)
        t = 0.37
        u = ansatz_unitary([(gen, t)], 5)
        assert np.allclose(
            to_matrix(dress(h, gen, t)), u.conj().T @ to_matrix(h) @ u, atol=1e-12
        )

    def test_growth_bound_and_reality(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            h = random_hermitian_sum(6, 25, rng)
            gen = random_generator(6, rng)
            out = dress(h, gen, 0.3)
            assert len(out) <= 2 * len(h)
            for w, c in out.items():
                assert w.y_count() % 2 == 0
                assert isinstance(c, float)

    def test_doubling_iff_all_anticommute(self):
        # single qubit: h = Z0, generator Y0 anticommutes -> exactly 2 terms
        h = PauliSum(1, [(parse_word("Z0", 1), 1.0)])
        out = dress(h, parse_word("Y0", 1), 0.3)
        assert len(out) == 2 * len(h)
        coeffs = dict(out.raw_items())
        z0, x0 = parse_word("Z0", 1), parse_word("X0", 1)
        assert abs(coeffs[(z0.x, z0.z)] - math.cos(0.3)) < 1e-15
        assert abs(abs(coeffs[(x0.x, x0.z)]) - math.sin(0.3)) < 1e-15

    def test_rejects_even_y_generator(self):
        h = PauliSum(2, [(parse_word("Z0", 2), 1.0)])
        with pytest.raises(InvalidGeneratorError):
            dress(h, parse_word("X0 X1", 2), 0.1)

    def test_rejects_non_finite_amplitude(self):
        h = PauliSum(1, [(parse_word("Z0", 1), 1.0)])
        with pytest.raises(ValueError):
            dress(h, parse_word("Y0", 1), float("nan"))


def _dress_sequence(h, pairs):
    """dress_sequence on the packed form of a PauliSum, unpacked again."""
    return _packed.unpack(dress_sequence(_packed.pack(h), pairs))


def _prune(h, threshold):
    """prune on the packed form of a PauliSum; the kept terms unpacked."""
    out, dropped = prune(_packed.pack(h), threshold)
    return _packed.unpack(out), dropped


class TestDressSequence:
    def test_empty(self):
        rng = np.random.default_rng(7)
        p = _packed.pack(random_hermitian_sum(4, 10, rng))
        assert dress_sequence(p, []) is p

    def test_single_equals_dress(self):
        rng = np.random.default_rng(8)
        h = random_hermitian_sum(4, 10, rng)
        gen = random_generator(4, rng)
        assert _dress_sequence(h, [(gen, 0.21)]) == dress(h, gen, 0.21)

    def test_two_step_spectrum(self):
        rng = np.random.default_rng(9)
        h = random_hermitian_sum(6, 30, rng)
        pairs = [(random_generator(6, rng), 0.4), (random_generator(6, rng), -0.2)]
        e0 = np.linalg.eigvalsh(to_matrix(h))
        e1 = np.linalg.eigvalsh(to_matrix(_dress_sequence(h, pairs)))
        assert np.max(np.abs(e0 - e1)) < 1e-10

    def test_matches_dense_product_order(self):
        rng = np.random.default_rng(10)
        h = random_hermitian_sum(5, 20, rng)
        pairs = [(random_generator(5, rng), 0.3), (random_generator(5, rng), 0.5)]
        u = ansatz_unitary(pairs, 5)
        assert np.allclose(
            to_matrix(_dress_sequence(h, pairs)), u.conj().T @ to_matrix(h) @ u, atol=1e-11
        )


class TestPackedEquivalence:
    def test_dress_bitwise_identical(self):
        # every size from 1 to 80 terms, small sums included
        rng = np.random.default_rng(11)
        for n_terms in range(1, 81):
            n = int(rng.integers(max(3, n_terms.bit_length()), 9))
            h = random_hermitian_sum(n, n_terms, rng)
            assert len(h) == n_terms
            gen = random_generator(n, rng)
            t = float(rng.normal())
            assert dress(h, gen, t) == reference_dress(h, gen, t)

    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(12)
        h = random_hermitian_sum(7, 60, rng)
        assert _packed.unpack(_packed.pack(h)) == h


class TestPrune:
    def test_zero_threshold(self):
        rng = np.random.default_rng(13)
        h = random_hermitian_sum(4, 12, rng)
        out, dropped = _prune(h, 0.0)
        assert out == h and dropped == 0.0

    def test_all_above(self):
        h = PauliSum(2, [(parse_word("Z0", 2), 1.0), (parse_word("X0 X1", 2), 0.5)])
        out, dropped = _prune(h, 0.1)
        assert out == h and dropped == 0.0

    def test_dropped_weight_accounting(self):
        h = PauliSum(
            2,
            [
                (parse_word("Z0", 2), 1.0),
                (parse_word("Z1", 2), 1e-12),
                (parse_word("X0 X1", 2), -2e-12),
            ],
        )
        out, dropped = _prune(h, 1e-10)
        assert len(out) == 1
        assert abs(dropped - 3e-12) < 1e-25

    def test_spectral_norm_bound(self):
        rng = np.random.default_rng(14)
        h = random_hermitian_sum(5, 25, rng)
        out, dropped = _prune(h, 0.5)
        diff = to_matrix(h) - to_matrix(out)
        norm = np.linalg.norm(diff, ord=2)
        assert norm <= dropped + 1e-12

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            _prune(PauliSum(1), -1.0)

    def test_dropped_weight_summed_left_to_right(self):
        # more than 8 dropped terms: a pairwise np.sum would group them
        # differently and change the last bits of the weight
        rng = np.random.default_rng(16)
        p = _packed.pack(random_hermitian_sum(7, 40, rng))
        out, dropped = prune(p, 0.5)
        expected = 0.0
        for _, c in _packed.unpack(p).items():
            if abs(c) < 0.5:
                expected += abs(c)
        assert len(p) - len(out) > 8
        assert dropped == expected


class TestQubitEnvelope:
    def test_pack_rejects_65_qubits(self):
        h = PauliSum(65, [(parse_word("Z64", 65), 1.0)])
        with pytest.raises(CapacityError):
            _packed.pack(h)

    def test_json_bound_checked_before_terms(self):
        with pytest.raises(CapacityError):
            from_json_dict({"n_qubits": 65, "terms": [{"word": "not a word"}]})

    def test_64_qubit_json_loads(self):
        h = PauliSum(64, [(parse_word("X0 Z63", 64), 0.5), (parse_word("Y1 Y63", 64), -0.25)])
        loaded = from_json_dict(json.loads(json.dumps(to_json_dict(h))))
        assert loaded == h
        assert _packed.unpack(_packed.pack(loaded)) == h


class TestJson:
    def test_roundtrip_lossless(self):
        rng = np.random.default_rng(15)
        h = random_hermitian_sum(6, 40, rng)
        assert from_json_dict(json.loads(json.dumps(to_json_dict(h)))) == h

    def test_schema(self):
        h = PauliSum(8, [(parse_word("X0 Z3", 8), -0.0123)])
        data = to_json_dict(h)
        assert data["n_qubits"] == 8
        assert data["terms"] == [{"word": "X0 Z3", "coeff": -0.0123}]

    def test_deterministic_ordering(self):
        a = PauliSum(2, [(parse_word("Z1", 2), 1.0), (parse_word("Z0", 2), 2.0)])
        b = PauliSum(2, [(parse_word("Z0", 2), 2.0), (parse_word("Z1", 2), 1.0)])
        assert to_json_dict(a) == to_json_dict(b)
