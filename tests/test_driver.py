import hashlib

import numpy as np
import pytest

from iqcc import _packed
from iqcc._packed import pack
from iqcc.driver import (
    HARTREE_TO_EV,
    IqccConfig,
    gap_from_runs,
    pt_correction,
    resource_estimate,
    run_iqcc,
    singlet_triplet_gap,
    trajectory_csv,
)
from iqcc.engine import Ansatz, block_ranking_data
from iqcc.errors import CapacityError, IterationAbort
from iqcc.mapping import SpinPenalty, reference_state, spin_operators
from iqcc.oracle import ansatz_unitary, reference_vector, spin_resolved_spectrum, to_matrix
from iqcc.pauli import parse_word
from iqcc.pauli_sum import ReferenceState

from helpers import random_hermitian_sum, rank_sum, spy_sort


class TestConfig:
    def test_protocol_defaults(self):
        cfg = IqccConfig()
        assert cfg.generators_per_iteration == 8
        assert cfg.energy_convergence == 1e-5
        assert cfg.prune_threshold == 1e-10
        assert cfg.max_iterations == 100
        assert cfg.penalty.mu == 0.0
        assert cfg.enable_pt is True

    def test_l_cap(self):
        with pytest.raises(CapacityError):
            IqccConfig(generators_per_iteration=17)
        with pytest.raises(CapacityError):
            IqccConfig(generators_per_iteration=0)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            IqccConfig(energy_convergence=0.0)
        with pytest.raises(ValueError):
            IqccConfig(prune_threshold=-1e-3)

    def test_unknown_importance_measure(self):
        with pytest.raises(ValueError, match="importance measure"):
            IqccConfig(importance_measure="foo")


class TestRunIqcc:
    def test_diagonal_hamiltonian_converges_immediately(self):
        h = pack([(parse_word("Z0 Z1", 3), -0.4)], 3)
        ref = ReferenceState(0b011, 3)
        res = run_iqcc(h, ref, IqccConfig())
        assert res.records == ()
        assert res.converged
        assert res.final_energy == _packed.expectation_packed(h, ref)

    def test_h2_converges_to_fci(self, h2_problem, reference_values):
        _, h, ref = h2_problem
        cfg = IqccConfig(generators_per_iteration=1, energy_convergence=1e-6)
        res = run_iqcc(h, ref, cfg)
        assert res.converged
        assert len(res.records) <= 5
        assert abs(res.final_energy - reference_values["h2"]["fci_energy"]) < 1e-6

    def test_records_bookkeeping(self, h2_problem):
        _, h, ref = h2_problem
        res = run_iqcc(h, ref, IqccConfig(generators_per_iteration=2))
        assert res.records[-1].term_count == len(res.final_hamiltonian)
        assert res.reference == ref  # fixed reference, bit-identical
        for rec in res.records:
            assert rec.wall_time >= 0.0
            assert len(rec.amplitudes) == len(rec.selected_generators)

    def test_energy_monotone_within_dropped_weight(self, h4_problem):
        _, h, ref = h4_problem
        cfg = IqccConfig(generators_per_iteration=4, energy_convergence=1e-7,
                         max_iterations=12)
        res = run_iqcc(h, ref, cfg)
        energies = [res.initial_energy] + [r.energy for r in res.records]
        drops = [0.0] + [r.dropped_weight for r in res.records]
        for i in range(1, len(energies)):
            assert energies[i] <= energies[i - 1] + drops[i - 1] + 1e-12

    def test_max_iterations_zero(self, h2_problem):
        _, h, ref = h2_problem
        res = run_iqcc(h, ref, IqccConfig(max_iterations=0))
        assert res.records == ()
        assert res.final_energy == res.initial_energy
        assert not res.converged

    def test_capacity_abort_carries_partial_records(self, h4_problem):
        _, h, ref = h4_problem
        cfg = IqccConfig(generators_per_iteration=4, memory_budget_terms=100)
        with pytest.raises(IterationAbort) as err:
            run_iqcc(h, ref, cfg)
        assert isinstance(err.value.records, list)

    @pytest.mark.parametrize("budget, n_records", [(146, 0), (1_000, 1)])
    def test_budget_aborts_before_the_sort(self, h4_problem, monkeypatch, budget, n_records):
        # H4 at L=4: the first coset layer holds 147 rows, and iteration 1's
        # largest layer 795; iteration 2 plans a layer of 1,002.  The abort
        # comes from the plan, before any sort of more rows than the budget.
        _, h, ref = h4_problem
        sizes = spy_sort(monkeypatch)
        cfg = IqccConfig(generators_per_iteration=4, max_iterations=3,
                         energy_convergence=1e-12, memory_budget_terms=budget)
        with pytest.raises(IterationAbort) as err:
            run_iqcc(h, ref, cfg)
        assert len(err.value.records) == n_records
        assert isinstance(err.value.__cause__, CapacityError)
        assert max(sizes, default=0) <= budget
        assert (sizes == []) == (n_records == 0)

    def test_merged_sum_over_budget_aborts(self, h4_problem):
        # every layer of iteration 1 fits in 500 rows; the merged sum (795) does not
        _, h, ref = h4_problem
        cfg = IqccConfig(generators_per_iteration=4, memory_budget_terms=500)
        with pytest.raises(IterationAbort, match="term count 795 exceeds budget 500") as err:
            run_iqcc(h, ref, cfg)
        assert err.value.records == []

    def test_dressed_state_matches_unitary_oracle(self, h2_problem):
        # the recorded ansatz history reproduces the final energy as
        # <0|U^dag H U|0> in the dense picture
        _, h, ref = h2_problem
        res = run_iqcc(h, ref, IqccConfig(generators_per_iteration=2))
        entanglers = [pair for ansatz in res.ansatz_history for pair in ansatz]
        u = ansatz_unitary(entanglers, 4)
        v = u @ reference_vector(ref)
        dense = float(np.real(np.vdot(v, to_matrix(h) @ v)))
        assert abs(dense - res.final_energy) < 1e-9


class TestFinalHamiltonianPinned:
    """The dressed sum itself, not only the energies: its length and a
    sha256 prefix of its x, z and c bytes."""

    @staticmethod
    def _digest(p: _packed.PackedSum) -> str:
        return hashlib.sha256(p.x.tobytes() + p.z.tobytes() + p.c.tobytes()).hexdigest()[:16]

    def test_lih_four_iterations(self, lih_problem):
        _, h, ref = lih_problem
        cfg = IqccConfig(generators_per_iteration=8, energy_convergence=1e-6,
                         max_iterations=4)
        res = run_iqcc(h, ref, cfg)
        assert len(res.records) == 4
        assert len(res.final_hamiltonian) == 109_371
        assert self._digest(res.final_hamiltonian) == "d26bbb873ac70e62"

    def test_h4_to_convergence(self, h4_problem):
        _, h, ref = h4_problem
        res = run_iqcc(h, ref, IqccConfig(generators_per_iteration=4,
                                          energy_convergence=1e-5))
        assert len(res.records) == 9
        assert len(res.final_hamiltonian) == 3_926
        assert self._digest(res.final_hamiltonian) == "b7f4a79e7e42741d"


class TestTrajectoryBound:
    """The per-iteration energies of the H4 run to convergence (L=4, 1e-5 Ha)
    as the chain-contraction gradient gave them.  The reverse-pass gradient
    differs from it in the last bits, which steer L-BFGS, so the energies
    are bounded, not pinned bit for bit."""

    CHAIN_GRADIENT_ENERGIES = (
        "-0x1.15452421e435ep+1",
        "-0x1.16c6f8c9e3871p+1",
        "-0x1.17093fc9b204bp+1",
        "-0x1.170cf40391ce6p+1",
        "-0x1.1710c82724082p+1",
        "-0x1.1712b972c8455p+1",
        "-0x1.1713b2e678193p+1",
        "-0x1.17142415c54d6p+1",
        "-0x1.17146a1fbabfap+1",
    )

    def test_h4_energies_within_1e10_ha(self, h4_problem):
        _, h, ref = h4_problem
        res = run_iqcc(h, ref, IqccConfig(generators_per_iteration=4,
                                          energy_convergence=1e-5))
        want = [float.fromhex(e) for e in self.CHAIN_GRADIENT_ENERGIES]
        assert len(res.records) == len(want)
        for record, energy in zip(res.records, want):
            assert abs(record.energy - energy) <= 1e-10


class TestOneRepresentation:
    @pytest.mark.parametrize(
        "penalty, rank_on_bare, sums",
        [(SpinPenalty(), False, 1), (SpinPenalty(mu=0.25), True, 2)],
    )
    def test_packed_once_never_unpacked(
        self, h4_problem, monkeypatch, penalty, rank_on_bare, sums
    ):
        # the Hamiltonian (and the bare copy ranked against) arrives packed
        # and stays packed through the penalty, every evaluation, dress and
        # prune: a run neither packs nor unpacks, and dresses each of its
        # ``sums`` once per iteration
        from iqcc import driver as driver_mod

        _, h, ref = h4_problem
        calls = {"pack": 0, "unpack": 0, "dress_sequence": 0}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(_packed, "pack")
        counted(_packed, "unpack")
        counted(driver_mod, "dress_sequence")
        cfg = IqccConfig(generators_per_iteration=4, max_iterations=3,
                         energy_convergence=1e-12, penalty=penalty,
                         rank_on_bare=rank_on_bare)
        res = run_iqcc(h, ref, cfg)
        assert len(res.records) == 3
        assert calls == {"pack": 0, "unpack": 0, "dress_sequence": 3 * sums}
        assert isinstance(res.final_hamiltonian, _packed.PackedSum)


class TestBlockStatisticsOncePerSum:
    """The block statistics of each Hamiltonian are computed once: PT of one
    iteration and the ranking of the next share them.  H4, L=4, three
    iterations; the energies and PT values are those of the run that
    computed the statistics for PT and ranking separately, as float.hex."""

    ENERGIES = {
        False: ("-0x1.15452421e435ep+1", "-0x1.16c6f8c9e3872p+1", "-0x1.17093fc9b204cp+1"),
        True: ("-0x1.14c8abe6f254dp+1", "-0x1.16a402254096dp+1", "-0x1.16fc7ac52cf12p+1"),
    }
    WITH_PT = {
        False: ("-0x1.16e5b11a061c4p+1", "-0x1.17104c9c67dc0p+1", "-0x1.1713c075c5726p+1"),
        True: ("-0x1.16759f685661dp+1", "-0x1.1712ee3747372p+1", "-0x1.170df912f00c4p+1"),
    }

    @pytest.mark.parametrize("enable_pt", [True, False])
    @pytest.mark.parametrize("rank_on_bare", [False, True])
    def test_calls_and_energies(self, h4_problem, monkeypatch, enable_pt, rank_on_bare):
        _, h, ref = h4_problem
        calls = []
        real = _packed.block_statistics

        def spy(p, r):
            calls.append(len(p))
            return real(p, r)

        monkeypatch.setattr(_packed, "block_statistics", spy)
        penalty = SpinPenalty(mu=0.25) if rank_on_bare else SpinPenalty()
        cfg = IqccConfig(generators_per_iteration=4, max_iterations=3,
                         energy_convergence=1e-12, penalty=penalty,
                         rank_on_bare=rank_on_bare, enable_pt=enable_pt)
        res = run_iqcc(h, ref, cfg)
        n = len(res.records)
        assert n == 3
        # PT on: the input, then each dressed sum; PT off: one per ranking
        assert len(calls) == (n + 1 if enable_pt else n)
        assert [r.energy.hex() for r in res.records] == list(self.ENERGIES[rank_on_bare])
        with_pt = self.WITH_PT[rank_on_bare] if enable_pt else self.ENERGIES[rank_on_bare]
        assert [r.energy_with_pt.hex() for r in res.records] == list(with_pt)


class TestPtCorrection:
    def test_empty_remainder(self, h2_problem):
        _, h, ref = h2_problem
        assert pt_correction(block_ranking_data(h, ref), []) == 0.0

    def test_zero_omega_contributes_nothing(self):
        rng = np.random.default_rng(0)
        h = random_hermitian_sum(5, 25, rng)
        ref = ReferenceState(0b00111, 5)
        _, remainder = rank_sum(h, ref, 1)
        # against a Hamiltonian with no off-diagonal blocks every omega is 0
        diag = pack([(parse_word("Z0", 5), 1.0)], 5)
        assert pt_correction(block_ranking_data(diag, ref), remainder) == 0.0

    def test_total_is_nonpositive(self, h4_problem):
        _, h, ref = h4_problem
        _, remainder = rank_sum(h, ref, 4)
        assert pt_correction(block_ranking_data(h, ref), remainder) <= 0.0

    def test_h4_pt_improves_final_energy(self, h4_problem, reference_values):
        # expected behavior for this system (not asserted as universal)
        _, h, ref = h4_problem
        cfg = IqccConfig(generators_per_iteration=4, energy_convergence=1e-6)
        res = run_iqcc(h, ref, cfg)
        e_fci = reference_values["h4"]["fci_energy"]
        assert abs(res.final_energy_with_pt - e_fci) <= abs(res.final_energy - e_fci)


class TestGap:
    def test_degenerate_runs_give_zero_gap(self, h2_problem):
        _, h, ref = h2_problem
        res = run_iqcc(h, ref, IqccConfig(generators_per_iteration=2))
        gap = gap_from_runs(res, res)
        assert gap.gap_ev == 0.0
        assert gap.gap_with_pt_ev == 0.0

    def test_gap_invariant(self, h2_problem):
        mi, _, _ = h2_problem
        cfg = IqccConfig(generators_per_iteration=2, penalty=SpinPenalty(mu=0.25))
        gap = singlet_triplet_gap(mi, None, cfg)
        assert abs(gap.gap_ev - (gap.e_triplet - gap.e_singlet) * HARTREE_TO_EV) < 1e-12
        assert len(gap.trajectories) == 2

    def test_h2_gap_matches_spin_resolved_oracle(self, h2_problem):
        mi, h, _ = h2_problem
        cfg = IqccConfig(generators_per_iteration=2, penalty=SpinPenalty(mu=0.25))
        gap = singlet_triplet_gap(mi, None, cfg)
        s2, sz = spin_operators(4)
        e_s = spin_resolved_spectrum(h, s2, sz, (0.0, 0.0))
        e_t = spin_resolved_spectrum(h, s2, sz, (1.0, 1.0))
        assert abs(gap.e_singlet - e_s) < 2e-5
        assert abs(gap.e_triplet - e_t) < 2e-5
        assert abs(gap.gap_ev / HARTREE_TO_EV - (e_t - e_s)) < 2e-5

    def test_odd_electron_count_rejected(self, h2_problem):
        mi, _, _ = h2_problem
        bad = type(mi)(mi.core_energy, mi.h1, mi.g2, 1, mi.n_spatial, 1)
        with pytest.raises(ValueError):
            singlet_triplet_gap(bad, None, IqccConfig())


class TestRankingSource:
    def test_bare_ranking_switch_converges(self, h2_stretched_problem, reference_values):
        # generators seeded from the bare Hamiltonian, objective stays penalized
        _, h, _ = h2_stretched_problem
        ref_t = reference_state(2, 4, ms2=2)
        cfg = IqccConfig(
            generators_per_iteration=2,
            penalty=SpinPenalty(mu=0.25, s=1.0),
            rank_on_bare=True,
        )
        res = run_iqcc(h, ref_t, cfg)
        e_oracle = reference_values["h2_stretched"]["fci_triplet"]
        assert abs(res.final_energy - e_oracle) < 2e-5

    def test_switch_defaults_to_penalized(self):
        assert IqccConfig().rank_on_bare is False


class TestWarmStartEfficiency:
    def test_median_evaluations_regression(self, h2_problem, h4_problem):
        # closed-form warm starts keep the optimizer cheap; the production
        # protocol sees ~15 evaluations, bounded here at a median of 30
        evals = []
        _, h2, ref2 = h2_problem
        res2 = run_iqcc(h2, ref2, IqccConfig(generators_per_iteration=1,
                                             energy_convergence=1e-6))
        evals += [r.optimizer_evaluations for r in res2.records]
        _, h4, ref4 = h4_problem
        res4 = run_iqcc(h4, ref4, IqccConfig(generators_per_iteration=4,
                                             energy_convergence=1e-7,
                                             max_iterations=30))
        evals += [r.optimizer_evaluations for r in res4.records]
        assert np.median(evals) <= 30


class TestResourceEstimate:
    def test_production_protocol_numbers(self):
        gen4 = parse_word("Y0 X1 X2 X3", 4)
        history = [Ansatz([(gen4, 0.1)] * 8)] * 75  # 600 weight-4 entanglers
        cnot, rz = resource_estimate(history)
        assert (cnot, rz) == (3600, 600)

    def test_single_weight_one(self):
        history = [Ansatz([(parse_word("Y0", 1), 0.3)])]
        assert resource_estimate(history) == (0, 1)

    def test_empty(self):
        assert resource_estimate([]) == (0, 0)

    def test_mixed_weights_hand_sum(self):
        history = [
            Ansatz(
                [
                    (parse_word("Y0 X1", 4), 0.1),        # weight 2 -> 2 CNOT
                    (parse_word("Y0 X1 X2 X3", 4), 0.1),  # weight 4 -> 6 CNOT
                    (parse_word("Y2", 4), 0.1),           # weight 1 -> 0 CNOT
                ]
            )
        ]
        assert resource_estimate(history) == (8, 3)


class TestTrajectoryCsv:
    def test_columns_and_rows(self, h2_problem):
        _, h, ref = h2_problem
        res = run_iqcc(h, ref, IqccConfig(generators_per_iteration=1))
        csv = trajectory_csv(res.records)
        lines = csv.strip().splitlines()
        assert lines[0] == "iteration,energy,energy_with_pt,term_count,dropped_weight"
        assert len(lines) == len(res.records) + 1
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == res.records[0].energy


class TestOptimizerFailureAbort:
    def test_partial_trajectory_carried(self, h2_problem, monkeypatch):
        from iqcc import driver as driver_mod
        from iqcc.errors import OptimizationError

        _, h, ref = h2_problem
        calls = {"n": 0}
        real_minimize = driver_mod.minimize

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise OptimizationError("synthetic failure", point=None)
            return real_minimize(*args, **kwargs)

        monkeypatch.setattr(driver_mod, "minimize", flaky)
        cfg = IqccConfig(generators_per_iteration=1, energy_convergence=1e-12,
                         max_iterations=10)
        with pytest.raises(IterationAbort) as err:
            run_iqcc(h, ref, cfg)
        assert len(err.value.records) == 1  # first iteration survived


class TestTripletStatePurity:
    def test_implied_state_spin_expectation(self, h2_stretched_problem):
        # rebuild the converged triplet state from the ansatz history and
        # measure <S^2> with the dense oracle
        _, h, _ = h2_stretched_problem
        ref_t = reference_state(2, 4, ms2=2)
        cfg = IqccConfig(generators_per_iteration=2, penalty=SpinPenalty(mu=0.25, s=1.0))
        res = run_iqcc(h, ref_t, cfg)
        entanglers = [pair for ansatz in res.ansatz_history for pair in ansatz]
        u = ansatz_unitary(entanglers, 4)
        state = u @ reference_vector(ref_t)
        s2m = to_matrix(spin_operators(4)[0])
        s2_val = float(np.real(np.vdot(state, s2m @ state)))
        assert abs(s2_val - 2.0) < 0.05
