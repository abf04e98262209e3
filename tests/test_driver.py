import hashlib
import math
import weakref
from dataclasses import fields

import numpy as np
import pytest

from iqcc import ReferenceState, _packed, driver
from iqcc._packed import pack
from iqcc.driver import (
    HARTREE_TO_EV,
    GapResult,
    IqccConfig,
    pt_correction,
    resource_estimate,
    run_iqcc,
    singlet_triplet_gap,
    trajectory_csv,
)
from iqcc.engine import estimate_amplitude
from iqcc.errors import CapacityError, IterationAbort
from iqcc.fcidump import select_cas
from iqcc.mapping import jordan_wigner, penalize, reference_state, spin_operators
from iqcc.oracle import ground_state, spin_resolved_spectrum
from iqcc.pauli import parse_word
from iqcc.pauli_sum import dress_sequence

from helpers import (
    ansatz_unitary,
    assert_same,
    random_hermitian_sum,
    rank_sum,
    reference_vector,
    spy_sort,
    to_matrix,
)


class TestConfig:
    def test_protocol_defaults(self):
        cfg = IqccConfig()
        assert cfg.generators_per_iteration == 8
        assert cfg.energy_convergence == 1e-5
        assert cfg.prune_threshold == 1e-10
        assert cfg.max_iterations == 100
        assert cfg.mu == 0.0

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

    def test_penalty_from_mu_and_spin(self, h2_problem, monkeypatch):
        # the strength is the config's, the target spin the reference's own
        _, h, _ = h2_problem
        ref_t = reference_state(2, 4, ms2=2)
        calls = []
        real = driver.penalize

        def spy(p, mu, ref):
            calls.append((p, mu, ref))
            return real(p, mu, ref)

        monkeypatch.setattr(driver, "penalize", spy)
        run_iqcc(h, ref_t, IqccConfig(mu=0.25, max_iterations=0))
        assert len(calls) == 1 and calls[0][0] is h and calls[0][1:] == (0.25, ref_t)
        with pytest.raises(ValueError, match="penalty strength"):
            IqccConfig(mu=-0.1)
        with pytest.raises(TypeError, match="spin"):
            IqccConfig(spin=1.0)


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
        assert res.final_energy == res.final_energy_with_pt == res.initial_energy
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

    def test_merge_over_budget_aborts_before_merging(self, h4_problem, monkeypatch):
        # the coset replay and the dressed outside rows each fit in 500 rows
        # and their sum does not: the budget is checked before merge allocates
        from iqcc import driver as driver_mod

        _, h, ref = h4_problem
        sizes = {}

        def spy(name, fn, first):
            def wrapper(*args):
                out = fn(*args)
                # the first run_plan is the coset's, dress_packed makes the
                # rest; the last dress_sequence gives the dressed outside rows
                if first:
                    sizes.setdefault(name, len(out))
                else:
                    sizes[name] = len(out)
                return out
            return wrapper

        def no_merge(*args):
            raise AssertionError("merge ran over budget")

        monkeypatch.setattr(_packed, "run_plan", spy("coset", _packed.run_plan, True))
        monkeypatch.setattr(driver_mod, "dress_sequence",
                            spy("outside", driver_mod.dress_sequence, False))
        monkeypatch.setattr(_packed, "merge", no_merge)
        cfg = IqccConfig(generators_per_iteration=4, memory_budget_terms=500)
        with pytest.raises(IterationAbort, match="term count 795 exceeds budget 500") as err:
            run_iqcc(h, ref, cfg)
        assert isinstance(err.value.__cause__, CapacityError)
        assert max(sizes.values()) <= 500 < sum(sizes.values()) == 795

    def test_dressed_state_matches_unitary_oracle(self, h2_problem):
        # the entanglers the records hold reproduce the final energy as
        # <0|U^dag H U|0> in the dense picture
        _, h, ref = h2_problem
        res = run_iqcc(h, ref, IqccConfig(generators_per_iteration=2))
        entanglers = [
            (g.generator, t)
            for r in res.records
            for g, t in zip(r.selected_generators, r.amplitudes)
        ]
        u = ansatz_unitary(entanglers, 4)
        v = u @ reference_vector(ref)
        dense = float(np.real(np.vdot(v, to_matrix(h) @ v)))
        assert abs(dense - res.final_energy) < 1e-9

    def test_input_sum_released_before_planning(self, lih_problem, monkeypatch):
        # an iteration drops the sum it split before it plans the coset: no
        # input sum the run made is alive while any plan is built (the coset
        # plan, then the outside rows' one-layer plans); the first
        # iteration's input is the caller's h, unpenalized
        _, h, ref = lih_problem
        inputs, seen = [], []
        split, plan_chain = _packed.span_split, _packed.plan_chain

        def spy_split(p, generators):
            if p is not h:
                inputs.append(weakref.ref(p))
            return split(p, generators)

        def spy_plan(*args):
            seen.append([r() is not None for r in inputs])
            return plan_chain(*args)

        monkeypatch.setattr(_packed, "span_split", spy_split)
        monkeypatch.setattr(_packed, "plan_chain", spy_plan)
        cfg = IqccConfig(generators_per_iteration=8, energy_convergence=1e-6, max_iterations=4)
        assert len(run_iqcc(h, ref, cfg).records) == 4
        assert len(inputs) == 3 and len(seen[-1]) == 3
        assert not any(any(alive) for alive in seen)

    def test_outside_rows_released_after_their_first_generator(self, lih_problem, monkeypatch):
        # the rows outside the coset are dressed one generator per call: the
        # iteration's undressed outside sum is freed once the first step has
        # built its successor, so no later step holds it
        _, h, ref = lih_problem
        split, dress = _packed.span_split, _packed.dress_packed
        outside, alive = [], []

        def spy_split(p, generators):
            parts = split(p, generators)
            outside.append(weakref.ref(parts[1]))
            alive.append([])
            return parts

        def spy_dress(*args):
            alive[-1].append(outside[-1]() is not None)
            return dress(*args)

        monkeypatch.setattr(_packed, "span_split", spy_split)
        monkeypatch.setattr(_packed, "dress_packed", spy_dress)
        cfg = IqccConfig(generators_per_iteration=8, energy_convergence=1e-6, max_iterations=4)
        assert len(run_iqcc(h, ref, cfg).records) == 4
        assert alive == [[True] + [False] * 7] * 4

    def test_stops_when_the_change_equals_the_tolerance(self, h4_problem):
        # a run stops once |E_k - E_(k-1)| <= energy_convergence: a tolerance
        # equal to the first iteration's change stops after it, and the next
        # double below it runs on
        _, h, ref = h4_problem
        first = run_iqcc(h, ref, IqccConfig(generators_per_iteration=4, max_iterations=1))
        change = abs(first.records[0].energy - first.initial_energy)
        for tolerance, n_records in ((change, 1), (math.nextafter(change, 0.0), 2)):
            cfg = IqccConfig(generators_per_iteration=4, energy_convergence=tolerance)
            res = run_iqcc(h, ref, cfg)
            assert res.converged and len(res.records) == n_records


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


def _six_iterations(problem, generators: int, mu: float, prune_threshold: float):
    """A run of six iterations (no convergence stop), its penalized input,
    and every entangler of its records in order."""
    _, h, ref = problem
    cfg = IqccConfig(generators_per_iteration=generators, energy_convergence=1e-12,
                     max_iterations=6, prune_threshold=prune_threshold, mu=mu)
    res = run_iqcc(h, ref, cfg)
    assert len(res.records) == 6
    pairs = [(g.generator, t) for r in res.records
             for g, t in zip(r.selected_generators, r.amplitudes)]
    return res, penalize(h, cfg.mu, ref), pairs


class TestWholeSumDressing:
    """Unpruned, a run's final Hamiltonian is its input dressed by all the
    run's entanglers in one chain, one generator at a time: the coset plans,
    the outside rows, the merges and the penalty give the same arrays."""

    @pytest.mark.parametrize("mu", [0.0, 0.25])
    @pytest.mark.parametrize("name, generators", [("h4", 4), ("lih", 8)])
    def test_final_hamiltonian_is_the_whole_chain(self, request, name, generators, mu):
        problem = request.getfixturevalue(f"{name}_problem")
        res, h_in, pairs = _six_iterations(problem, generators, mu, 0.0)
        assert res.total_dropped_weight == 0.0
        assert_same(res.final_hamiltonian, dress_sequence(h_in, pairs))


class TestIsospectral:
    """The dressing is a unitary similarity, so the final H4 Hamiltonian has
    the input's ground energy: FCI to 1e-12 Ha unpruned, and within the
    dropped weight pruned (Weyl's inequality: the sum of |c| bounds the
    spectral norm of the dropped part).  The generators do not conserve N,
    so the ground energy is the whole space's, not a sector's."""

    @pytest.mark.parametrize("mu", [0.0, 0.25])
    @pytest.mark.parametrize("prune_threshold", [0.0, 1e-10, 1e-6])
    def test_h4_ground_energy(self, h4_problem, reference_values, mu, prune_threshold):
        res, _, _ = _six_iterations(h4_problem, 4, mu, prune_threshold)
        energy, _ = ground_state(res.final_hamiltonian)
        error = abs(energy - reference_values["h4"]["fci_energy"])
        if prune_threshold == 0.0:
            assert error <= 1e-12
        else:
            assert 0.0 < res.total_dropped_weight and error <= res.total_dropped_weight + 1e-12


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
    @pytest.mark.parametrize("penalty", [{}, {"mu": 0.25}])
    def test_packed_once_never_unpacked(self, h4_problem, monkeypatch, penalty):
        # the Hamiltonian arrives packed and stays packed through the
        # penalty, every evaluation, dress and prune: a run neither packs nor
        # unpacks, and dresses its outside rows once per generator
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
                         energy_convergence=1e-12, **penalty)
        res = run_iqcc(h, ref, cfg)
        assert len(res.records) == 3
        n_gens = sum(len(r.amplitudes) for r in res.records)
        assert n_gens == 12 and calls == {"pack": 0, "unpack": 0, "dress_sequence": n_gens}
        assert isinstance(res.final_hamiltonian, _packed.PackedSum)


class TestBlockStatisticsOncePerSum:
    """The block statistics of each Hamiltonian are computed once: the input
    before the loop, then each dressed sum, whose PT and the next ranking
    share them.  H4, L=4, three iterations, unpenalized and with mu=0.25
    (ranked on the penalized sum); the energies and PT values are those of
    the run that computed the statistics for PT and ranking separately, as
    float.hex."""

    ENERGIES = {
        False: ("-0x1.15452421e435ep+1", "-0x1.16c6f8c9e3872p+1", "-0x1.17093fc9b204cp+1"),
        True: ("-0x1.1459f483cefb7p+1", "-0x1.169f6da68f965p+1", "-0x1.16f678701c9ddp+1"),
    }
    WITH_PT = {
        False: ("-0x1.16e5b11a061c4p+1", "-0x1.17104c9c67dc0p+1", "-0x1.1713c075c5726p+1"),
        True: ("-0x1.16b8baaa3b68bp+1", "-0x1.17045829a812dp+1", "-0x1.1713609207822p+1"),
    }

    @pytest.mark.parametrize("penalized", [False, True])
    def test_calls_and_energies(self, h4_problem, monkeypatch, penalized):
        _, h, ref = h4_problem
        calls = []
        real = _packed.block_statistics

        def spy(p, r):
            calls.append(len(p))
            return real(p, r)

        monkeypatch.setattr(_packed, "block_statistics", spy)
        cfg = IqccConfig(generators_per_iteration=4, max_iterations=3,
                         energy_convergence=1e-12, mu=0.25 if penalized else 0.0)
        res = run_iqcc(h, ref, cfg)
        n = len(res.records)
        assert n == 3
        assert len(calls) == n + 1
        # the first ranking reads the sum being minimized
        assert calls[0] == len(penalize(h, cfg.mu, ref))
        assert [r.energy.hex() for r in res.records] == list(self.ENERGIES[penalized])
        assert [r.energy_with_pt.hex() for r in res.records] == list(self.WITH_PT[penalized])


class TestPtCorrection:
    def test_empty_remainder(self, h2_problem):
        _, h, ref = h2_problem
        assert pt_correction(_packed.block_statistics(h, ref), np.array([], dtype=np.uint64)) == 0.0

    def test_zero_omega_contributes_nothing(self):
        rng = np.random.default_rng(0)
        h = random_hermitian_sum(5, 25, rng)
        ref = ReferenceState(0b00111, 5)
        _, remainder = rank_sum(h, ref, 1)
        # against a Hamiltonian with no off-diagonal blocks every omega is 0
        diag = pack([(parse_word("Z0", 5), 1.0)], 5)
        assert pt_correction(_packed.block_statistics(diag, ref), remainder) == 0.0

    def test_total_is_nonpositive(self, h4_problem):
        _, h, ref = h4_problem
        _, remainder = rank_sum(h, ref, 4)
        assert pt_correction(_packed.block_statistics(h, ref), remainder) <= 0.0

    def test_matches_lookup_by_support(self):
        # against the statistics of another sum, which has blocks for some
        # supports of the remainder and none for others: a dict lookup,
        # summed in rank order
        rng = np.random.default_rng(5)
        found = missing = 0
        for _ in range(40):
            n = int(rng.integers(2, 8))
            h = random_hermitian_sum(n, int(rng.integers(2, 40)), rng)
            ref = ReferenceState(int(rng.integers(1 << n)), n)
            _, remainder = rank_sum(h, ref, int(rng.integers(1, 4)))
            other = random_hermitian_sum(n, int(rng.integers(0, 40)), rng)
            blocks = _packed.block_statistics(other, ref)
            stats = dict(zip(blocks[0].tolist(), zip(blocks[1].tolist(), blocks[2].tolist())))
            want = 0.0
            for x in remainder.tolist():
                want += estimate_amplitude(*stats.get(x, (0.0, 0.0)))[1]
                found, missing = found + (x in stats), missing + (x not in stats)
            assert pt_correction(blocks, remainder).hex() == want.hex()
        assert found > 0 and missing > 0

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
        gap = GapResult(res, res)
        assert gap.gap_ev == 0.0
        assert gap.gap_with_pt_ev == 0.0

    def test_gap_invariant(self, h2_problem):
        mi, _, _ = h2_problem
        cfg = IqccConfig(generators_per_iteration=2, mu=0.25)
        gap = singlet_triplet_gap(mi, cfg)
        s, t = gap.singlet, gap.triplet
        assert gap.gap_ev == (t.final_energy - s.final_energy) * HARTREE_TO_EV
        assert gap.gap_with_pt_ev == (t.final_energy_with_pt - s.final_energy_with_pt) * HARTREE_TO_EV
        assert s.records and t.records
        # the energies are read off the runs, not stored beside them
        assert [f.name for f in fields(GapResult)] == ["singlet", "triplet"]
        assert s.final_energy == s.records[-1].energy
        assert s.final_energy_with_pt == s.records[-1].energy_with_pt
        assert not {"final_energy", "final_energy_with_pt"} & {f.name for f in fields(s)}

    def test_h2_gap_matches_spin_resolved_oracle(self, h2_problem):
        mi, h, _ = h2_problem
        cfg = IqccConfig(generators_per_iteration=2, mu=0.25)
        gap = singlet_triplet_gap(mi, cfg)
        e_s = spin_resolved_spectrum(h, (0.0, 0.0))
        e_t = spin_resolved_spectrum(h, (1.0, 1.0))
        assert abs(gap.singlet.final_energy - e_s) < 2e-5
        assert abs(gap.triplet.final_energy - e_t) < 2e-5
        assert abs(gap.gap_ev / HARTREE_TO_EV - (e_t - e_s)) < 2e-5

    # a window that freezes the core (6 qubits) and one that discards
    # virtuals (8 qubits), against the oracle on the same window
    @pytest.mark.parametrize("occ, virt, generators", [(1, 2, 4), (2, 2, 8)],
                             ids=["frozen_core", "no_virtuals"])
    def test_lih_cas_gap_matches_spin_resolved_oracle(self, lih_problem, occ, virt, generators):
        mi, _, _ = lih_problem
        cas = select_cas(mi, occ, virt)
        cfg = IqccConfig(generators_per_iteration=generators, mu=0.25)
        gap = singlet_triplet_gap(cas, cfg)
        h = jordan_wigner(cas)
        assert h.n_qubits == 2 * (occ + virt)
        e_s = spin_resolved_spectrum(h, (0.0, 0.0))
        e_t = spin_resolved_spectrum(h, (1.0, 1.0))
        assert abs(gap.singlet.final_energy - e_s) < 2e-5
        assert abs(gap.triplet.final_energy - e_t) < 2e-5
        assert abs(gap.gap_ev / HARTREE_TO_EV - (e_t - e_s)) < 2e-5

    def test_odd_electron_count_rejected(self, h2_problem):
        mi, _, _ = h2_problem
        bad = type(mi)(mi.core_energy, mi.h1, mi.g2, 1, mi.n_spatial, 1)
        with pytest.raises(ValueError):
            singlet_triplet_gap(bad, IqccConfig())


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
        cnot, rz = resource_estimate([gen4] * 600)  # 75 iterations of 8
        assert (cnot, rz) == (3600, 600)

    def test_single_weight_one(self):
        assert resource_estimate([parse_word("Y0", 1)]) == (0, 1)

    def test_empty(self):
        assert resource_estimate([]) == (0, 0)

    def test_mixed_weights_hand_sum(self):
        gens = (
            parse_word("Y0 X1", 4),        # weight 2 -> 2 CNOT
            parse_word("Y0 X1 X2 X3", 4),  # weight 4 -> 6 CNOT
            parse_word("Y2", 4),           # weight 1 -> 0 CNOT
        )
        assert resource_estimate(iter(gens)) == (8, 3)


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
        # rebuild the converged triplet state from the records' entanglers
        # and measure <S^2> with the dense oracle
        _, h, _ = h2_stretched_problem
        ref_t = reference_state(2, 4, ms2=2)
        cfg = IqccConfig(generators_per_iteration=2, mu=0.25)
        res = run_iqcc(h, ref_t, cfg)
        entanglers = [
            (g.generator, t)
            for r in res.records
            for g, t in zip(r.selected_generators, r.amplitudes)
        ]
        u = ansatz_unitary(entanglers, 4)
        state = u @ reference_vector(ref_t)
        s2m = to_matrix(spin_operators(4)[0])
        s2_val = float(np.real(np.vdot(state, s2m @ state)))
        assert abs(s2_val - 2.0) < 0.05
