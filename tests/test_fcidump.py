from dataclasses import replace

import numpy as np
import pytest

from iqcc.errors import FcidumpError
from iqcc.fcidump import MolecularIntegrals, load_fcidump, parse_fcidump, select_cas

from helpers import random_symmetric_integrals

MINIMAL = """&FCI NORB=2,NELEC=2,MS2=0,
 ORBSYM=1,1,
 ISYM=1,
&END
  7.5000000000000000E-01    0    0    0    0
"""


class TestParse:
    def test_minimal_core_only(self):
        mi = parse_fcidump(MINIMAL)
        assert mi.core_energy == 0.75
        assert mi.n_spatial == 2 and mi.n_electrons == 2 and mi.ms2 == 0
        assert np.all(mi.h1 == 0.0) and np.all(mi.g2 == 0.0)

    def test_h2_fixture(self, fixture_dir):
        mi = load_fcidump(fixture_dir / "h2.fcidump")
        assert mi.n_spatial == 2 and mi.n_electrons == 2
        # the constructor checked h1's symmetry and g2's 8-fold symmetry
        assert np.max(np.abs(mi.h1 - mi.h1.T)) < 1e-12
        for axes in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
            assert np.max(np.abs(mi.g2 - mi.g2.transpose(axes))) < 1e-12

    def test_symmetry_expansion(self):
        text = MINIMAL + "  1.2300000000000000E-01    2    1    2    2\n"
        mi = parse_fcidump(text)
        for idx in [(1, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 0), (1, 1, 0, 1)]:
            assert mi.g2[idx] == 0.123

    def test_one_electron_symmetry(self):
        text = MINIMAL + "  4.0000000000000000E-01    2    1    0    0\n"
        mi = parse_fcidump(text)
        assert mi.h1[1, 0] == 0.4 and mi.h1[0, 1] == 0.4

    def test_integrals_read_only(self):
        # a checked symmetry cannot be broken afterwards, nor by the caller
        h1 = -np.eye(2)
        mi = MolecularIntegrals(0.0, h1, np.zeros((2,) * 4), 2, 2)
        with pytest.raises(ValueError, match="read-only"):
            mi.h1[0, 1] = 0.3
        h1[0, 1] = 0.3
        assert mi.h1[0, 1] == 0.0 and not mi.g2.flags.writeable

    # the first symmetry each tensor breaks, in the constructor's order:
    # (pq|rs) = (qp|rs), (pq|rs) = (pq|sr), and (pq|rs) = (rs|pq) with the
    # other two kept
    @pytest.mark.parametrize(
        "entries",
        [[(0, 1, 0, 0)], [(0, 0, 0, 1)], [(0, 0, 0, 1), (0, 0, 1, 0)]],
        ids=["qp_rs", "pq_sr", "rs_pq"],
    )
    def test_asymmetric_g2_rejected_at_construction(self, entries):
        g2 = np.zeros((2,) * 4)
        for idx in entries:
            g2[idx] = 0.3
        with pytest.raises(ValueError, match="g2 violates permutational symmetry"):
            MolecularIntegrals(0.0, -np.eye(2), g2, 2, 2)
        # within the 1e-12 tolerance the same tensor is accepted
        MolecularIntegrals(0.0, -np.eye(2), 1e-13 * g2, 2, 2)

    def test_fortran_d_exponent(self):
        text = MINIMAL.replace("7.5000000000000000E-01", "7.5D-01")
        assert parse_fcidump(text).core_energy == 0.75

    def test_orbital_energy_records_ignored(self):
        text = MINIMAL + " -5.0000000000000000E-01    1    0    0    0\n"
        mi = parse_fcidump(text)
        assert np.all(mi.h1 == 0.0)

    def test_index_out_of_range(self):
        text = MINIMAL + "  1.0000000000000000E-01    3    1    0    0\n"
        with pytest.raises(FcidumpError, match="line 6"):
            parse_fcidump(text)

    def test_conflicting_duplicate(self):
        text = (
            MINIMAL
            + "  1.0000000000000000E-01    1    1    0    0\n"
            + "  2.0000000000000000E-01    1    1    0    0\n"
        )
        with pytest.raises(FcidumpError, match="line 7"):
            parse_fcidump(text)

    def test_identical_duplicate_allowed(self):
        text = (
            MINIMAL
            + "  1.0000000000000000E-01    1    1    0    0\n"
            + "  1.0000000000000000E-01    1    1    0    0\n"
        )
        assert parse_fcidump(text).h1[0, 0] == 0.1

    def test_missing_header(self):
        with pytest.raises(FcidumpError):
            parse_fcidump("1.0 0 0 0 0\n")

    def test_missing_norb(self):
        with pytest.raises(FcidumpError, match="NORB"):
            parse_fcidump("&FCI NELEC=2,\n&END\n")

    def test_unterminated_header(self):
        with pytest.raises(FcidumpError):
            parse_fcidump("&FCI NORB=2,NELEC=2,\n")

    def test_bad_token_count(self):
        text = MINIMAL + "1.0 1 1 0\n"
        with pytest.raises(FcidumpError, match="line 6"):
            parse_fcidump(text)

    @pytest.mark.parametrize("nelec, ms2", [(3, 2), (2, 1), (1, 3), (2, -4), (0, 2)])
    def test_spin_inconsistent_with_electrons(self, nelec, ms2):
        text = f"&FCI NORB=2,NELEC={nelec},MS2={ms2},\n&END\n"
        with pytest.raises(FcidumpError, match=f"^MS2 {ms2} inconsistent with NELEC {nelec}$"):
            parse_fcidump(text)

    @pytest.mark.parametrize("nelec, ms2", [(3, 1), (3, 3), (2, 2), (0, 0)])
    def test_spin_consistent_with_electrons(self, nelec, ms2):
        mi = parse_fcidump(f"&FCI NORB=2,NELEC={nelec},MS2={ms2},\n&END\n")
        assert (mi.n_electrons, mi.ms2) == (nelec, ms2)

    @pytest.mark.parametrize("nelec, ms2", [(3, -1), (3, -3), (2, -2)])
    def test_negative_spin_rejected(self, nelec, ms2):
        # the reference puts the majority spin in the alpha orbitals
        with pytest.raises(FcidumpError, match=f"^MS2 {ms2} must be >= 0$"):
            parse_fcidump(f"&FCI NORB=2,NELEC={nelec},MS2={ms2},\n&END\n")

    @pytest.mark.parametrize(
        "nelec, ms2, message",
        [
            (2, -2, "MS2 -2 of 2 electrons must be >= 0"),
            (3, -1, "MS2 -1 of 3 electrons must be >= 0"),
            (2, 4, "MS2 4 exceeds the 2 electrons"),
            (0, 2, "MS2 2 exceeds the 0 electrons"),
            (3, 0, "MS2 0 and the 3 electrons differ in parity"),
            (2, 1, "MS2 1 and the 2 electrons differ in parity"),
        ],
    )
    def test_spin_rejected_at_construction(self, nelec, ms2, message):
        # parse_fcidump rejects these headers with its own messages; the
        # constructor rejects them for integrals built directly
        with pytest.raises(ValueError, match=f"^{message}$"):
            MolecularIntegrals(0.0, -np.eye(2), np.zeros((2,) * 4), nelec, 2, ms2)

    @pytest.mark.parametrize("nelec, ms2", [(0, 0), (1, 1), (3, 1), (3, 3), (4, 2)])
    def test_spin_accepted_at_construction(self, nelec, ms2):
        mi = MolecularIntegrals(0.0, -np.eye(2), np.zeros((2,) * 4), nelec, 2, ms2)
        assert (mi.n_electrons, mi.ms2) == (nelec, ms2)

    def test_slash_terminated_header(self):
        text = "&FCI NORB=1,NELEC=2,MS2=0,\n/\n  2.0000000000000000E-01    1    1    0    0\n"
        mi = parse_fcidump(text)
        assert mi.h1[0, 0] == 0.2


class TestCasWindow:
    def test_identity_window(self):
        rng = np.random.default_rng(0)
        mi = random_symmetric_integrals(4, rng, core=0.3)
        out = select_cas(mi, mi.n_electrons // 2, 4 - mi.n_electrons // 2)
        assert out.core_energy == mi.core_energy
        assert np.array_equal(out.h1, mi.h1)
        assert np.array_equal(out.g2, mi.g2)
        assert out.n_electrons == mi.n_electrons

    def test_inconsistent_electron_count_rejected(self, fixture_dir):
        # integrals that could give a window fewer active electrons than MS2
        # (NELEC and MS2 of different parity) or more than the header's (a
        # negative MS2) cannot be constructed, so no window is ever cut
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="^MS2 2 and the 3 electrons differ in parity$"):
            replace(random_symmetric_integrals(2, rng), n_electrons=3, ms2=2)
        mi = load_fcidump(fixture_dir / "lih.fcidump")
        with pytest.raises(ValueError, match="^MS2 -2 of 4 electrons must be >= 0$"):
            replace(mi, ms2=-2)
        assert select_cas(mi, 1, 2).n_electrons == 2

    def test_freeze_all_occupied_rejected(self, fixture_dir):
        mi = load_fcidump(fixture_dir / "h2.fcidump")
        with pytest.raises(ValueError):
            select_cas(mi, 0, 0)

    def test_lih_core_window(self, fixture_dir):
        mi = load_fcidump(fixture_dir / "lih.fcidump")
        # orbital 0 frozen, 1 and 2 active, 3 to 5 dropped
        out = select_cas(mi, 1, 1)
        assert out.n_spatial == 2 and out.n_electrons == 2
        assert np.array_equal(out.g2, mi.g2[1:3, 1:3, 1:3, 1:3])

    def test_lih_windows_load(self, fixture_dir):
        # every window of the 12-qubit fixture folds to integrals the
        # constructor accepts, g2 symmetry check included
        mi = load_fcidump(fixture_dir / "lih.fcidump")
        for n_occ in range(3):
            for n_virt in range(1, 5):
                out = select_cas(mi, n_occ, n_virt)
                assert out.n_spatial == n_occ + n_virt

    def test_empty_window_rejected(self):
        mi = random_symmetric_integrals(2, np.random.default_rng(3))
        with pytest.raises(ValueError, match="empty active space"):
            select_cas(mi, 0, 0)

    def test_folding_formulas_explicit(self):
        # one frozen orbital; compare against the mean-field formulas
        rng = np.random.default_rng(2)
        mi = replace(random_symmetric_integrals(3, rng, core=0.11), n_electrons=4, ms2=0)
        out = select_cas(mi, 1, 1)  # orbital 0 frozen, 1 and 2 active
        h1, g2 = mi.h1, mi.g2
        core_expect = 0.11 + 2 * h1[0, 0] + 2 * g2[0, 0, 0, 0] - g2[0, 0, 0, 0]
        assert abs(out.core_energy - core_expect) < 1e-12
        for a, p in enumerate((1, 2)):
            for b, q in enumerate((1, 2)):
                expect = h1[p, q] + 2 * g2[p, q, 0, 0] - g2[p, 0, 0, q]
                assert abs(out.h1[a, b] - expect) < 1e-12
        assert np.array_equal(out.g2, g2[1:3, 1:3, 1:3, 1:3])
