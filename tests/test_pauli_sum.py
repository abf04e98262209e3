import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from iqcc.errors import (
    CapacityError,
    DimensionError,
    InvalidGeneratorError,
)
from iqcc.pauli import PauliWord, parse_word
from iqcc.pauli_sum import (
    ReferenceState,
    dress_sequence,
    from_json_dict,
    prune,
    to_json_dict,
)
from iqcc import _packed
from iqcc._packed import expectation_packed, pack, unpack
from iqcc.fcidump import load_fcidump
from iqcc.mapping import jordan_wigner
from iqcc.oracle import ansatz_unitary, to_matrix

from helpers import (
    assert_same,
    random_generator,
    random_hermitian_sum,
    reference_dress,
    reference_to_json_dict,
    terms_dict,
)


def _dress(h, gen, t):
    return dress_sequence(h, [(gen, t)])


class TestArithmetic:
    """``pack`` sums the rows of each word; ``_canonical`` does the adding."""

    def test_cancellation(self):
        a = [(parse_word("Z0", 2), 1.0), (parse_word("X0 X1", 2), 0.5)]
        assert len(pack(a + [(w, -c) for w, c in a], 2)) == 0

    def test_collision_merge(self):
        z0 = parse_word("Z0", 1)
        merged = pack([(z0, 1.0), (z0, 0.5)], 1)
        assert terms_dict(merged)[(z0.x, z0.z)] == 1.5 and len(merged) == 1

    def test_matrix_linearity(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = random_hermitian_sum(4, 10, rng)
            b = random_hermitian_sum(4, 10, rng)
            total = pack(unpack(a) + unpack(b), 4)
            assert np.allclose(to_matrix(total), to_matrix(a) + to_matrix(b))

    def test_repeated_word_summed_left_to_right(self):
        # np.add.reduceat would sum a run of three or more rows pairwise
        rng = np.random.default_rng(17)
        word = parse_word("X0 X1 Z2", 3)
        for k in range(3, 41):
            coeffs = rng.normal(size=k).tolist()
            ((_, total),) = unpack(pack([(word, c) for c in coeffs], 3))
            assert total == sum(coeffs)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            pack([(parse_word("Z0", 3), 1.0)], 2)

    def test_rejects_phase_carrying_words(self):
        with pytest.raises(ValueError):
            pack([(PauliWord(1, 0, 2, phase_exp=1), 1.0)], 2)


class TestExpectations:
    def test_z_on_occupied(self):
        ref = ReferenceState(0b1, 1)
        assert expectation_packed(pack([(parse_word("Z0", 1), 1.0)], 1), ref) == -1.0

    def test_identity(self):
        ref = ReferenceState(0b10, 2)
        assert expectation_packed(pack([(PauliWord.identity(2), 0.25)], 2), ref) == 0.25

    def test_x_strings_vanish(self):
        ref = ReferenceState(0b01, 2)
        h = pack([(parse_word("X0 X1", 2), 2.0), (parse_word("Z0", 2), 0.5)], 2)
        assert expectation_packed(h, ref) == expectation_packed(
            pack([(parse_word("Z0", 2), 0.5)], 2), ref
        )

    def test_matches_matrix_element(self):
        rng = np.random.default_rng(2)
        for n in (5, 5, 5, 8, 10):
            h = random_hermitian_sum(n, 20, rng)
            occ = int(rng.integers(1 << n))
            ref = ReferenceState(occ, n)
            mat = to_matrix(h)
            assert abs(expectation_packed(h, ref) - mat[occ, occ].real) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            expectation_packed(pack([(parse_word("Z0", 2), 1.0)], 2), ReferenceState(0, 3))


class TestDress:
    def test_all_commuting_unchanged(self):
        # diagonal h, generator with full overlap on z-free qubits
        h = pack([(parse_word("Z0 Z1", 3), 1.0), (PauliWord.identity(3), 0.3)], 3)
        gen = parse_word("Y2", 3)
        assert_same(_dress(h, gen, 0.7), h)

    def test_zero_amplitude(self):
        rng = np.random.default_rng(3)
        h = random_hermitian_sum(4, 10, rng)
        assert_same(_dress(h, random_generator(4, rng), 0.0), h)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            h = random_hermitian_sum(6, 30, rng)
            gen = random_generator(6, rng)
            t = float(rng.normal())
            e0 = np.linalg.eigvalsh(to_matrix(h))
            e1 = np.linalg.eigvalsh(to_matrix(_dress(h, gen, t)))
            assert np.max(np.abs(e0 - e1)) < 1e-10

    def test_matches_dense_conjugation(self):
        rng = np.random.default_rng(5)
        h = random_hermitian_sum(5, 20, rng)
        gen = random_generator(5, rng)
        t = 0.37
        u = ansatz_unitary([(gen, t)], 5)
        assert np.allclose(
            to_matrix(_dress(h, gen, t)), u.conj().T @ to_matrix(h) @ u, atol=1e-12
        )

    def test_growth_bound_and_reality(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            h = random_hermitian_sum(6, 25, rng)
            gen = random_generator(6, rng)
            out = _dress(h, gen, 0.3)
            assert len(out) <= 2 * len(h)
            assert out.c.dtype == np.float64
            for w, c in unpack(out):
                assert w.y_count() % 2 == 0
                assert isinstance(c, float)

    def test_doubling_iff_all_anticommute(self):
        # single qubit: h = Z0, generator Y0 anticommutes -> exactly 2 terms
        h = pack([(parse_word("Z0", 1), 1.0)], 1)
        out = _dress(h, parse_word("Y0", 1), 0.3)
        assert len(out) == 2 * len(h)
        coeffs = terms_dict(out)
        z0, x0 = parse_word("Z0", 1), parse_word("X0", 1)
        assert abs(coeffs[(z0.x, z0.z)] - math.cos(0.3)) < 1e-15
        assert abs(abs(coeffs[(x0.x, x0.z)]) - math.sin(0.3)) < 1e-15

    def test_rejects_even_y_generator(self):
        h = pack([(parse_word("Z0", 2), 1.0)], 2)
        with pytest.raises(InvalidGeneratorError):
            _dress(h, parse_word("X0 X1", 2), 0.1)

    def test_rejects_non_finite_amplitude(self):
        h = pack([(parse_word("Z0", 1), 1.0)], 1)
        with pytest.raises(ValueError):
            _dress(h, parse_word("Y0", 1), float("nan"))


class TestDressSequence:
    def test_empty(self):
        rng = np.random.default_rng(7)
        p = random_hermitian_sum(4, 10, rng)
        assert dress_sequence(p, []) is p

    def test_single_equals_dress(self):
        rng = np.random.default_rng(8)
        h = random_hermitian_sum(4, 10, rng)
        gen = random_generator(4, rng)
        assert_same(dress_sequence(h, [(gen, 0.21)]), _packed.dress_packed(h, gen, 0.21))

    def test_two_step_spectrum(self):
        rng = np.random.default_rng(9)
        h = random_hermitian_sum(6, 30, rng)
        pairs = [(random_generator(6, rng), 0.4), (random_generator(6, rng), -0.2)]
        e0 = np.linalg.eigvalsh(to_matrix(h))
        e1 = np.linalg.eigvalsh(to_matrix(dress_sequence(h, pairs)))
        assert np.max(np.abs(e0 - e1)) < 1e-10

    def test_matches_dense_product_order(self):
        rng = np.random.default_rng(10)
        h = random_hermitian_sum(5, 20, rng)
        pairs = [(random_generator(5, rng), 0.3), (random_generator(5, rng), 0.5)]
        u = ansatz_unitary(pairs, 5)
        assert np.allclose(
            to_matrix(dress_sequence(h, pairs)), u.conj().T @ to_matrix(h) @ u, atol=1e-11
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
            assert_same(_dress(h, gen, t), reference_dress(h, gen, t))

    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(12)
        h = random_hermitian_sum(7, 60, rng)
        assert_same(pack(unpack(h), 7), h)


class TestPrune:
    def test_zero_threshold(self):
        rng = np.random.default_rng(13)
        h = random_hermitian_sum(4, 12, rng)
        out, dropped = prune(h, 0.0)
        assert_same(out, h)
        assert dropped == 0.0

    def test_all_above(self):
        h = pack([(parse_word("Z0", 2), 1.0), (parse_word("X0 X1", 2), 0.5)], 2)
        out, dropped = prune(h, 0.1)
        assert_same(out, h)
        assert dropped == 0.0

    def test_dropped_weight_accounting(self):
        h = pack(
            [
                (parse_word("Z0", 2), 1.0),
                (parse_word("Z1", 2), 1e-12),
                (parse_word("X0 X1", 2), -2e-12),
            ],
            2,
        )
        out, dropped = prune(h, 1e-10)
        assert len(out) == 1
        assert abs(dropped - 3e-12) < 1e-25

    def test_spectral_norm_bound(self):
        rng = np.random.default_rng(14)
        h = random_hermitian_sum(5, 25, rng)
        out, dropped = prune(h, 0.5)
        diff = to_matrix(h) - to_matrix(out)
        norm = np.linalg.norm(diff, ord=2)
        assert norm <= dropped + 1e-12

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            prune(pack([], 1), -1.0)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, h2_problem, threshold):
        _, h, _ = h2_problem
        with pytest.raises(ValueError, match="finite"):
            prune(h, threshold)

    def test_dropped_weight_summed_left_to_right(self):
        # more than 8 dropped terms: a pairwise np.sum would group them
        # differently and change the last bits of the weight
        rng = np.random.default_rng(16)
        p = random_hermitian_sum(7, 40, rng)
        out, dropped = prune(p, 0.5)
        expected = 0.0
        for _, c in unpack(p):
            if abs(c) < 0.5:
                expected += abs(c)
        assert len(p) - len(out) > 8
        assert dropped == expected

    def test_dropped_weight_equals_loop_on_seeded_arrays(self):
        # the cumsum is the loop's left-to-right sum, bit for bit; some draws
        # drop nothing and report 0.0
        rng = np.random.default_rng(17)
        empty = 0
        for _ in range(200):
            m = int(rng.integers(0, 300))
            c = rng.normal(size=m) * 10.0 ** rng.integers(-14, 1, size=m)
            p = _packed.PackedSum(
                20, np.arange(m, dtype=np.uint64), np.zeros(m, dtype=np.uint64), c
            )
            threshold = float(10.0 ** rng.integers(-16, 0))
            out, dropped = prune(p, threshold)
            expected = 0.0
            for m_i in np.abs(c).tolist():
                if m_i < threshold:
                    expected += m_i
            empty += len(out) == len(p)
            assert len(out) == np.count_nonzero(np.abs(c) >= threshold)
            assert type(dropped) is float and dropped.hex() == expected.hex()
        assert empty > 0


class TestQubitEnvelope:
    def test_pack_rejects_65_qubits(self):
        with pytest.raises(CapacityError):
            pack([(parse_word("Z64", 65), 1.0)], 65)

    def test_json_bound_checked_before_terms(self):
        with pytest.raises(CapacityError):
            from_json_dict({"n_qubits": 65, "terms": [{"word": "not a word"}]})

    def test_64_qubit_json_loads(self):
        pairs = [(parse_word("X0 Z63", 64), 0.5), (parse_word("Y1 Y63", 64), -0.25)]
        h = pack(pairs, 64)
        loaded = from_json_dict(json.loads(json.dumps(to_json_dict(h))))
        assert_same(loaded, h)
        assert sorted(unpack(loaded), key=lambda wc: wc[0].sort_key()) == pairs


class TestJson:
    def test_roundtrip_lossless(self):
        rng = np.random.default_rng(15)
        h = random_hermitian_sum(6, 40, rng)
        assert_same(from_json_dict(json.loads(json.dumps(to_json_dict(h)))), h)

    def test_schema(self):
        h = pack([(parse_word("X0 Z3", 8), -0.0123)], 8)
        data = to_json_dict(h)
        assert data["n_qubits"] == 8
        assert data["terms"] == [{"word": "X0 Z3", "coeff": -0.0123}]

    def test_deterministic_ordering(self):
        a = pack([(parse_word("Z1", 2), 1.0), (parse_word("Z0", 2), 2.0)], 2)
        b = pack([(parse_word("Z0", 2), 2.0), (parse_word("Z1", 2), 1.0)], 2)
        assert to_json_dict(a) == to_json_dict(b)

    def test_duplicate_words_summed(self):
        data = {"n_qubits": 2, "terms": [
            {"word": "Z0", "coeff": 0.5},
            {"word": "X0 X1", "coeff": 0.25},
            {"word": "Z0", "coeff": 0.125},
            {"word": "X0 X1", "coeff": -0.25},
        ]}
        h = from_json_dict(data)
        assert terms_dict(h) == {(0, 1): 0.625}

    def test_same_bytes_as_word_by_word_rendering(self):
        # random words over up to 64 qubits, including the 63rd bit
        rng = np.random.default_rng(18)
        for n in (1, 5, 12, 33, 64):
            x, z = rng.integers(0, 1 << n, size=(2, 200), dtype=np.uint64, endpoint=False)
            h = _packed._canonical(n, x, z, rng.normal(size=200))
            assert json.dumps(to_json_dict(h)) == json.dumps(reference_to_json_dict(h))

    @pytest.mark.parametrize("name", ["h2", "h2_stretched", "h4", "lih"])
    def test_fixture_bytes_as_word_by_word_rendering(self, fixture_dir, name):
        h = jordan_wigner(load_fcidump(fixture_dir / f"{name}.fcidump"))
        assert json.dumps(to_json_dict(h)) == json.dumps(reference_to_json_dict(h))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_synth_bytes_as_word_by_word_rendering(self, tmp_path, seed):
        # the benchmark's 12-orbital synthetic FCIDUMP, 7.5k terms
        spec = importlib.util.spec_from_file_location(
            "bench_synth", Path(__file__).resolve().parents[1] / "bench" / "synth.py"
        )
        synth = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(synth)
        path = tmp_path / "synth.fcidump"
        synth.write_fcidump(path, 12, 8, seed)
        h = jordan_wigner(load_fcidump(path))
        text = json.dumps(to_json_dict(h))
        assert text == json.dumps(reference_to_json_dict(h))
        assert_same(from_json_dict(json.loads(text)), h)
