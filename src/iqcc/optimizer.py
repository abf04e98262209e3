"""Smooth unconstrained minimization of the amplitude objective.

A thin wrapper around scipy's limited-memory BFGS with our convergence
contract: converged means the gradient infinity-norm at the returned point is
at or below ``GRADIENT_TOLERANCE`` (1e-8), which is also L-BFGS's ``gtol``;
L-BFGS keeps 10 corrections and stops after ``max_evaluations`` objective
evaluations (``MAX_EVALUATIONS`` unless the caller sets it).  The objective
is smooth and 2*pi periodic per coordinate; no bounds are imposed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OptimizationError

GRADIENT_TOLERANCE = 1e-8
MAX_EVALUATIONS = 200


@dataclass(frozen=True)
class OptimizationResult:
    t_opt: np.ndarray
    energy: float
    evaluations: int
    converged: bool
    gradient_norm: float  # infinity-norm at t_opt
    message: str  # scipy's reason for stopping


def minimize(
    value_and_gradient, t0, max_evaluations: int = MAX_EVALUATIONS
) -> OptimizationResult:
    """L-BFGS from t0 on ``value_and_gradient(v) -> (float, array)``.

    One fused callable lets the objective and its gradient share work (the
    QCC energy and gradient come from the same dressed Hamiltonian).
    Non-finite objective values abort with the offending point attached.
    scipy is imported here, so that importing the package does not load it.
    """
    from scipy.optimize import minimize as scipy_minimize

    t0 = np.asarray(t0, dtype=float)
    if t0.size == 0:
        raise ValueError("empty amplitude vector")
    if not np.all(np.isfinite(t0)):
        raise OptimizationError("non-finite starting point", point=t0)

    def fused(v):
        e, g = value_and_gradient(v)
        if not np.isfinite(e) or not np.all(np.isfinite(g)):
            raise OptimizationError(f"non-finite objective at {v!r}", point=v.copy())
        return e, np.asarray(g, dtype=float)

    res = scipy_minimize(
        fused,
        t0,
        jac=True,
        method="L-BFGS-B",
        options={
            "maxfun": max_evaluations,
            # explicit, so that the iterates do not depend on scipy's default
            "maxcor": 10,
            "gtol": GRADIENT_TOLERANCE,
            "ftol": 1e-15,
        },
    )
    grad_norm = float(np.max(np.abs(res.jac))) if res.jac is not None else np.inf
    return OptimizationResult(
        t_opt=np.asarray(res.x, dtype=float),
        energy=float(res.fun),
        evaluations=int(res.nfev),
        converged=grad_norm <= GRADIENT_TOLERANCE,
        gradient_norm=grad_norm,
        message=str(res.message),
    )
