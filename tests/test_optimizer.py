import numpy as np
import pytest

from iqcc import _packed, optimizer
from iqcc.driver import IqccConfig
from iqcc.engine import estimate_amplitude
from iqcc.errors import OptimizationError
from iqcc.optimizer import minimize

from helpers import coset_plan, rank_sum


def quadratic(v):
    return float(np.sum((v - 1.0) ** 2))


def quadratic_grad(v):
    return 2.0 * (v - 1.0)


class TestMinimize:
    def test_quadratic_bowl(self):
        res = minimize(lambda v: (quadratic(v), quadratic_grad(v)), np.zeros(3))
        assert res.converged
        assert np.max(np.abs(res.t_opt - 1.0)) < 1e-8
        assert res.energy < 1e-14

    def test_already_optimal(self):
        res = minimize(lambda v: (quadratic(v), quadratic_grad(v)), np.ones(2))
        assert res.converged
        assert res.evaluations <= 2
        assert np.array_equal(res.t_opt, np.ones(2))

    def test_monotone_accepted_iterates(self):
        # rebuild the accepted-iterate energy sequence and check descent
        seen = []

        def f(v):
            return float(np.sum((v - 2.0) ** 4 + 0.5 * v**2))

        def g(v):
            return 4.0 * (v - 2.0) ** 3 + v

        from scipy.optimize import minimize as sp_min

        res = sp_min(
            f, np.zeros(4), jac=g, method="L-BFGS-B",
            callback=lambda xk: seen.append(f(xk)),
        )
        energies = [f(np.zeros(4))] + seen
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
        ours = minimize(lambda v: (f(v), g(v)), np.zeros(4))
        assert ours.energy <= f(np.zeros(4))

    def test_returned_energy_not_above_start(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            t0 = rng.normal(size=3)
            res = minimize(lambda v: (quadratic(v), quadratic_grad(v)), t0)
            assert res.energy <= quadratic(t0) + 1e-12

    def test_non_finite_objective(self):
        def bad(v):
            return float("nan")

        def bad_grad(v):
            return np.zeros_like(v)

        with pytest.raises(OptimizationError) as err:
            minimize(lambda v: (bad(v), bad_grad(v)), np.zeros(2))
        assert err.value.point is not None

    def test_evaluation_budget_respected(self):
        calls = []

        def f(v):
            calls.append(1)
            return float(np.sum(np.cos(3 * v) + 0.01 * v**2))

        def g(v):
            return -3 * np.sin(3 * v) + 0.02 * v

        minimize(lambda v: (f(v), g(v)), np.full(4, 0.7), max_evaluations=5)
        assert len(calls) <= 7  # maxfun plus scipy's final polish evaluations

    def test_config_validation(self):
        # the evaluation cap is a run setting, checked where a run is configured
        with pytest.raises(ValueError, match="max_evaluations"):
            IqccConfig(max_evaluations=0)

    def test_fused_callable(self):
        def vag(v):
            return quadratic(v), quadratic_grad(v)

        res = minimize(vag, np.zeros(2))
        assert np.max(np.abs(res.t_opt - 1.0)) < 1e-8


class TestScipyReference:
    """``minimize`` is scipy's L-BFGS-B loop around scipy's own compiled
    kernel: it gives what ``scipy.optimize.minimize`` gives, bit for bit,
    but for the energy of a failed line search.  This is the one check of
    the kernel's calling convention."""

    @pytest.mark.parametrize("offset", [0.0, 0.3], ids=["exact", "offset_gradient"])
    @pytest.mark.parametrize("cap", [3, 10, 200])
    def test_same_as_scipy_minimize(self, cap, offset):
        # w . cos(A v + c) + 0.01 |v|^2; a gradient off by a constant makes
        # line searches fail, where the kernel hands back the last iterate
        from scipy.optimize import minimize as scipy_minimize

        rng = np.random.default_rng(cap + int(10 * offset))
        messages, moved = set(), 0
        for _ in range(25):
            n = int(rng.integers(1, 12))
            a, c, w = rng.normal(size=(n, n)), rng.normal(size=n), rng.normal(size=n)

            def vag(v):
                angle = a @ v + c
                value = float(w @ np.cos(angle) + 0.01 * v @ v)
                return value, 0.02 * v - a.T @ (w * np.sin(angle)) + offset

            t0 = rng.normal(size=n)
            ours = minimize(vag, t0, cap)
            ref = scipy_minimize(
                vag, t0, jac=True, method="L-BFGS-B",
                options={"maxcor": 10, "gtol": 1e-8, "ftol": 1e-15, "maxfun": cap},
            )
            assert np.array_equal(ours.t_opt, ref.x)
            # the objective at t_opt; scipy's is the last trial on an ABNORMAL stop
            assert ours.energy == vag(ours.t_opt)[0]
            assert ours.energy == ref.fun or ours.message.startswith("ABNORMAL")
            moved += ours.energy != ref.fun
            assert ours.evaluations == ref.nfev
            assert ours.message == ref.message
            assert ours.gradient_norm == np.max(np.abs(ref.jac))
            messages.add(ours.message.split(":")[0])
        assert messages >= ({"ABNORMAL"} if offset else {"STOP"} if cap < 200 else {"CONVERGENCE"})
        assert (moved > 0) == bool(offset)  # some line search failed away from t_opt

    def test_kernel_signature_checked(self, monkeypatch):
        monkeypatch.setattr(optimizer, "_SETULB", "setulb(m,x,l,u,nbd,f,g)")
        with pytest.raises(ImportError, match=r"scipy >= 1\.15"):
            optimizer._setulb.__wrapped__()


class TestOnQccProblem:
    def test_h2_single_amplitude_matches_closed_form(self, h2_problem):
        from iqcc.engine import qcc_energy_and_gradient

        _, h, ref = h2_problem
        sel, _ = rank_sum(h, ref, 1)
        r = sel[0]
        live = _packed.live_plan(coset_plan(h, [r.generator])[0], ref)

        def vag(v):
            e, g = qcc_energy_and_gradient(live, v)
            return e, np.asarray(g)

        res = minimize(vag, np.array([r.t_estimate]))
        t_closed, _ = estimate_amplitude(r.omega_signed, r.d_value)
        assert abs(res.t_opt[0] - t_closed) < 1e-8
        assert res.converged
