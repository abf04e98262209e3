import json
import math
from dataclasses import replace

import numpy as np
import pytest

from iqcc.errors import (
    CapacityError,
    DimensionError,
    HermiticityError,
    InvalidGeneratorError,
)
from iqcc.pauli import PauliWord, parse_word
from iqcc.pauli_sum import (
    dress_sequence,
    from_json_dict,
    prune,
    terms_json,
    to_json_dict,
)
from iqcc import ReferenceState, _packed
from iqcc._packed import expectation_packed, pack, unpack
from iqcc.fcidump import load_fcidump
from iqcc.mapping import jordan_wigner

from helpers import (
    ansatz_unitary,
    assert_same,
    drawn_sum,
    random_generator,
    random_hermitian_sum,
    reference_dress,
    reference_to_json_dict,
    synth_fcidump,
    terms_dict,
    to_matrix,
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


class TestExpectations:
    def test_z_on_occupied(self):
        ref = ReferenceState(0b1, 1)
        assert expectation_packed(pack([(parse_word("Z0", 1), 1.0)], 1), ref) == -1.0

    def test_identity(self):
        ref = ReferenceState(0b10, 2)
        assert expectation_packed(pack([(PauliWord(0, 0, 2), 0.25)], 2), ref) == 0.25

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
        h = pack([(parse_word("Z0 Z1", 3), 1.0), (PauliWord(0, 0, 3), 0.3)], 3)
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


def _boundary_masks(n: int, size: int, rng) -> np.ndarray:
    """Masks over the two lowest, the middle and the two highest of ``n``
    qubits: few distinct words, so rows collide, and the top bit set in
    about half of them."""
    bits = np.array([0, 1, n // 2, n - 2, n - 1], dtype=np.uint64)
    pick = rng.random((size, len(bits))) < 0.5
    return np.bitwise_or.reduce(np.where(pick, np.uint64(1) << bits, np.uint64(0)), axis=1)


class TestWidthBoundary:
    """Either side of 32 qubits, where the sort key stops fitting one uint64
    word, and up to the 64-qubit envelope: dressing, ``merge`` and
    ``_canonical`` against references that sort and sum in Python."""

    WIDTHS = [31, 32, 33, 63, 64]

    @staticmethod
    def _generator(n: int, rng) -> PauliWord:
        while True:
            x, z = (int(m) for m in _boundary_masks(n, 2, rng))
            if x:
                if (x & z).bit_count() % 2 == 0:
                    z ^= x & -x
                return PauliWord(x, z, n)

    @pytest.mark.parametrize("n", WIDTHS)
    def test_dress_sequence_as_reference(self, n):
        rng = np.random.default_rng(90 + n)
        x, z = _boundary_masks(n, 120, rng), _boundary_masks(n, 120, rng)
        even = np.bitwise_count(x & z) % 2 == 0
        h = _packed._canonical(n, x[even], z[even], rng.normal(size=120)[even])
        pairs = [(self._generator(n, rng), float(rng.normal())) for _ in range(4)]
        pairs.append(pairs[0])  # a repeated generator spawns back onto rows
        want = h
        for gen, t in pairs:
            want = reference_dress(want, gen, t)
        assert_same(dress_sequence(h, pairs), want)

    @pytest.mark.parametrize("n", WIDTHS)
    def test_canonical_as_dict_sum(self, n):
        rng = np.random.default_rng(95 + n)
        x, z = _boundary_masks(n, 300, rng), _boundary_masks(n, 300, rng)
        c = rng.choice([0.5, -0.5, 0.25, 1.0, -1.0], size=300)  # some keys cancel
        summed: dict = {}
        for key, ci in zip(zip(x.tolist(), z.tolist()), c.tolist()):
            summed[key] = summed.get(key, 0.0) + ci
        want = sorted((key, ci) for key, ci in summed.items() if ci != 0.0)
        p = _packed._canonical(n, x, z, c)
        assert list(zip(zip(p.x.tolist(), p.z.tolist()), p.c.tolist())) == want
        assert len(want) < len(summed) < 300

    @pytest.mark.parametrize("n", WIDTHS)
    def test_merge_as_sorted_union(self, n):
        rng = np.random.default_rng(100 + n)
        x, z = _boundary_masks(n, 300, rng), _boundary_masks(n, 300, rng)
        p = _packed._canonical(n, x, z, rng.normal(size=300))
        side = rng.random(len(p)) < 0.5
        a, b = (_packed.PackedSum(n, p.x[m], p.z[m], p.c[m]) for m in (side, ~side))
        merged = _packed.merge(a, b)
        rows = sorted(zip(zip(p.x.tolist(), p.z.tolist()), p.c.tolist()))
        assert list(zip(zip(merged.x.tolist(), merged.z.tolist()), merged.c.tolist())) == rows
        assert_same(merged, p)


class TestMerge:
    """``merge`` places the rows of two canonical sums with no key in common
    at their indices in the sorted union, on either side of the 32-qubit key
    boundary, and sorts nothing."""

    @staticmethod
    def _splits(n: int, seed: int):
        """(a, b, their sorted union) for parts of a canonical sum over ``n``
        qubits: random sides, b wholly before or after a, an empty side, both
        empty."""
        rng = np.random.default_rng(seed)
        x, z = _boundary_masks(n, 300, rng), _boundary_masks(n, 300, rng)
        p = _packed._canonical(n, x, z, rng.normal(size=300))
        assert len(p) > 20

        def rows(mask):
            return _packed.PackedSum(n, p.x[mask], p.z[mask], p.c[mask])

        side = rng.random(len(p)) < 0.5
        low = np.arange(len(p)) < len(p) // 3
        none = np.zeros(len(p), dtype=bool)
        return [
            (rows(side), rows(~side), p),
            (rows(~low), rows(low), p),
            (rows(low), rows(~low), p),
            (rows(none), p, p),
            (p, rows(none), p),
            (rows(none), rows(none), rows(none)),
        ]

    @pytest.mark.parametrize("n", [4, 32, 33, 63, 64])
    def test_sorted_union(self, n):
        for a, b, union in self._splits(n, 110 + n):
            merged = _packed.merge(a, b)
            assert_same(merged, union)
            assert merged.x.dtype == merged.z.dtype == np.uint64 and merged.c.dtype == np.float64

    @pytest.mark.parametrize("n", [4, 33])
    def test_sorts_nothing(self, n, monkeypatch):
        splits = self._splits(n, 120 + n)

        def no_sort(*args, **kwargs):
            raise AssertionError("merge sorted keys")

        monkeypatch.setattr(_packed, "_sort", no_sort)
        monkeypatch.setattr(np, "argsort", no_sort)
        monkeypatch.setattr(np, "lexsort", no_sort)
        for a, b, _ in splits:
            _packed.merge(a, b)


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

    def test_coefficient_at_the_threshold_kept(self):
        # only |c| < threshold is dropped
        h = pack([(parse_word("Z0", 2), 0.5), (parse_word("X0 X1", 2), -0.25)], 2)
        out, dropped = prune(h, 0.25)
        assert_same(out, h)
        assert dropped == 0.0

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
        # the cumsum is the loop's left-to-right sum, bit for bit, and the
        # kept rows are the boolean mask's; some draws drop nothing and report
        # 0.0.  An empty sum and an all-dropped sum go first.
        rng = np.random.default_rng(17)
        cases = [(np.zeros(0), 1.0), (np.linspace(-5e-11, 5e-11, 50), 1e-10)]
        for _ in range(200):
            m = int(rng.integers(0, 300))
            c = rng.normal(size=m) * 10.0 ** rng.integers(-14, 1, size=m)
            cases.append((c, float(10.0 ** rng.integers(-16, 0))))
        empty = 0
        kept = []
        for c, threshold in cases:
            m = len(c)
            p = _packed.PackedSum(
                20, np.arange(m, dtype=np.uint64), np.arange(m, dtype=np.uint64)[::-1].copy(), c
            )
            out, dropped = prune(p, threshold)
            expected = 0.0
            for m_i in np.abs(c).tolist():
                if m_i < threshold:
                    expected += m_i
            empty += len(out) == len(p) > 0
            kept.append(len(out))
            keep = np.abs(c) >= threshold
            assert_same(out, _packed.PackedSum(20, p.x[keep], p.z[keep], c[keep]))
            assert type(dropped) is float and dropped.hex() == expected.hex()
        assert empty > 0 and kept[:2] == [0, 0]


class TestQubitEnvelope:
    def test_pack_rejects_65_qubits(self):
        with pytest.raises(CapacityError):
            pack([(parse_word("Z64", 65), 1.0)], 65)

    def test_json_bound_checked_before_terms(self):
        with pytest.raises(CapacityError):
            from_json_dict({"n_qubits": 65, "terms": [{"word": "not a word"}]})

    @pytest.mark.parametrize(
        "terms, n_qubits, error, message",
        [
            ([{"word": "I", "coeff": 1.0}], -1, DimensionError, "negative qubit count -1"),
            ([{"word": "Z0", "coeff": math.inf}], 2, ValueError, "non-finite coefficient inf on Z0"),
            ([{"word": "Z0", "coeff": math.inf}, {"word": "Z0", "coeff": -math.inf}], 2,
             ValueError, "non-finite coefficient nan on Z0"),
            ([{"word": "Z0", "coeff": 0.5}, {"word": "X0 Y1", "coeff": 0.1}], 2,
             HermiticityError, "odd y-count word X0 Y1"),
            ([{"word": "Z0", "coeff": 0.5}], 1.9, ValueError, "n_qubits needs a JSON integer: 1.9"),
            ([{"word": "Z0", "coeff": 0.5}], "1", ValueError, "n_qubits needs a JSON integer: '1'"),
            ([{"word": "Z0", "coeff": 0.5}], True, ValueError, "n_qubits needs a JSON integer: True"),
            ([{"word": "Z0", "coeff": "0.5"}], 1, ValueError,
             "coefficient of Z0 needs a JSON number: '0.5'"),
            ([{"word": "Z0", "coeff": True}], 1, ValueError,
             "coefficient of Z0 needs a JSON number: True"),
        ],
        ids=["negative_qubits", "inf", "inf_minus_inf", "odd_y", "float_qubits",
             "string_qubits", "bool_qubits", "string_coeff", "bool_coeff"],
    )
    def test_json_outside_envelope_rejected(self, terms, n_qubits, error, message):
        with pytest.raises(error, match=message):
            from_json_dict({"n_qubits": n_qubits, "terms": terms})

    @pytest.mark.parametrize(
        "data, message",
        [
            ([1, 2], "qubit JSON needs a JSON object with the key 'n_qubits'"),
            ({"terms": []}, "qubit JSON needs a JSON object with the key 'n_qubits'"),
            ({"n_qubits": 2}, "qubit JSON needs a JSON object with the key 'terms'"),
            ({"n_qubits": 2, "terms": {"Z0": 1.0}}, "'terms' needs a JSON list"),
            ({"n_qubits": 2, "terms": [3]}, "a term needs a JSON object with the key 'word'"),
            ({"n_qubits": 2, "terms": [{"coeff": 1.0}]},
             "a term needs a JSON object with the key 'word'"),
            ({"n_qubits": 2, "terms": [{"word": 5, "coeff": 1.0}]},
             "unparseable Pauli word 5: not a string"),
            ({"n_qubits": 2, "terms": [{"word": "Z0"}]},
             "term Z0 needs a JSON object with the key 'coeff'"),
        ],
        ids=["list", "no_qubits", "no_terms", "terms_object", "term_number", "no_word",
             "number_word", "no_coeff"],
    )
    def test_json_structure_rejected(self, data, message):
        with pytest.raises(ValueError) as err:
            from_json_dict(data)
        assert str(err.value).startswith(message)

    def test_json_integer_coefficient_loads(self):
        h = from_json_dict({"n_qubits": 1, "terms": [{"word": "Z0", "coeff": 2}]})
        assert terms_dict(h) == {(0, 1): 2.0} and h.c.dtype == np.float64

    def test_64_qubit_json_loads(self):
        pairs = [(parse_word("X0 Z63", 64), 0.5), (parse_word("Y1 Y63", 64), -0.25)]
        h = pack(pairs, 64)
        loaded = from_json_dict(json.loads(json.dumps(to_json_dict(h))))
        assert_same(loaded, h)
        assert sorted(unpack(loaded), key=lambda wc: (wc[0].weight(), wc[0].x, wc[0].z)) == pairs


class TestJson:
    # above 32 qubits the keys no longer fit one uint64 and _sort takes lexsort
    @pytest.mark.parametrize("n", [1, 6, 33, 64])
    def test_roundtrip_lossless(self, n):
        h = drawn_sum(n, 10, 40, np.random.default_rng(15))
        assert_same(from_json_dict(json.loads(json.dumps(to_json_dict(h)))), h)

    # the JSON load and parse_word share one grammar: "X0Z3" (adjacent tokens)
    # is accepted by both, and each rejects with the same error
    @pytest.mark.parametrize(
        "text, masks", [("I", (0, 0)), ("", (0, 0)), ("X0Z3", (1, 8))],
        ids=["identity", "empty", "adjacent"],
    )
    def test_grammar_accepted_as_parse_word(self, text, masks):
        assert parse_word(text, 4) == PauliWord(*masks, 4)
        h = from_json_dict({"n_qubits": 4, "terms": [{"word": text, "coeff": 0.5}]})
        assert terms_dict(h) == {masks: 0.5}

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("X1 Y1", ValueError, "qubit 1 appears twice in 'X1 Y1'"),
            ("Z4", DimensionError, "qubit 4 out of range for 4 qubits"),
            ("Q3", ValueError, "unparseable Pauli word 'Q3'"),
        ],
        ids=["repeated", "out_of_range", "garbage"],
    )
    def test_grammar_rejected_as_parse_word(self, text, error, message):
        data = {"n_qubits": 4, "terms": [{"word": text, "coeff": 0.5}]}
        for load in (lambda: parse_word(text, 4), lambda: from_json_dict(data)):
            with pytest.raises(error) as err:
                load()
            assert str(err.value) == message

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

    @pytest.mark.parametrize("case", ["drawn", "empty", "non_finite", "64_qubits"])
    def test_terms_text_as_indent_2_dump(self, case):
        # terms_json is the text json.dumps(..., indent=2) nests at depth 1,
        # with json's NaN and Infinity for the floats whose repr is not JSON
        n = 64 if case == "64_qubits" else 7
        h = drawn_sum(n, 10, 40, np.random.default_rng(24))
        if case == "empty":
            h = replace(h, x=h.x[:0], z=h.z[:0], c=h.c[:0])
        elif case == "non_finite":
            h = replace(h, c=np.concatenate([[np.nan, np.inf, -np.inf], h.c[3:]]))
        expected = json.dumps(to_json_dict(h), indent=2)
        assert expected == f'{{\n  "n_qubits": {n},\n  "terms": {terms_json(h)}\n}}'

    @pytest.mark.parametrize("name", ["h2", "h2_stretched", "h4", "lih"])
    def test_fixture_bytes_as_word_by_word_rendering(self, fixture_dir, name):
        h = jordan_wigner(load_fcidump(fixture_dir / f"{name}.fcidump"))
        assert json.dumps(to_json_dict(h)) == json.dumps(reference_to_json_dict(h))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_synth_bytes_as_word_by_word_rendering(self, tmp_path, seed):
        # the benchmark's 12-orbital synthetic FCIDUMP, 7.5k terms
        h = jordan_wigner(load_fcidump(synth_fcidump(tmp_path, seed)))
        text = json.dumps(to_json_dict(h))
        assert text == json.dumps(reference_to_json_dict(h))
        assert_same(from_json_dict(json.loads(text)), h)
