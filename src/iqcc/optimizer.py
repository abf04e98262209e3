"""Smooth unconstrained minimization of the amplitude objective.

scipy's compiled L-BFGS-B routine, ``setulb`` (scipy >= 1.15), driven
directly by the reverse-communication loop of scipy's own
``_minimize_lbfgsb``, with our convergence contract: converged means the
gradient infinity-norm at the returned point is at or below
``GRADIENT_TOLERANCE`` (1e-8), which is also L-BFGS's ``gtol``; L-BFGS keeps
10 corrections and stops after ``max_evaluations`` objective evaluations
(``MAX_EVALUATIONS`` unless the caller sets it).  The objective is smooth and
2*pi periodic per coordinate; no bounds are imposed.

``_setulb`` loads the one compiled module that holds the routine from
scipy's directory, after a plain ``import scipy``: ``scipy.optimize``'s
``__init__`` is not run, so a run loads no ``scipy.optimize``,
``scipy.linalg`` or ``scipy.sparse``.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from .errors import OptimizationError

GRADIENT_TOLERANCE = 1e-8
MAX_EVALUATIONS = 200
_CORRECTIONS = 10
_FACTR = 1e-15 / np.finfo(float).eps  # ftol = 1e-15
_MAX_LINE_SEARCH = 20
_SETULB = "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,maxls,ln_task)"

# scipy.optimize._lbfgsb_py's tables: message is "<status>: <task>"
_STATUS_MESSAGES = {
    0: "START",
    1: "NEW_X",
    2: "RESTART",
    3: "FG",
    4: "CONVERGENCE",
    5: "STOP",
    6: "WARNING",
    7: "ERROR",
    8: "ABNORMAL",
}
_TASK_MESSAGES = {
    0: "",
    301: "",
    302: "",
    401: "NORM OF PROJECTED GRADIENT <= PGTOL",
    402: "RELATIVE REDUCTION OF F <= FACTR*EPSMCH",
    501: "CPU EXCEEDING THE TIME LIMIT",
    502: "TOTAL NO. OF F,G EVALUATIONS EXCEEDS LIMIT",
    503: "PROJECTED GRADIENT IS SUFFICIENTLY SMALL",
    504: "TOTAL NO. OF ITERATIONS REACHED LIMIT",
    505: "CALLBACK REQUESTED HALT",
    601: "ROUNDING ERRORS PREVENT PROGRESS",
    602: "STP = STPMAX",
    603: "STP = STPMIN",
    604: "XTOL TEST SATISFIED",
    701: "NO FEASIBLE SOLUTION",
    702: "FACTR < 0",
    703: "FTOL < 0",
    704: "GTOL < 0",
    705: "XTOL < 0",
    706: "STP < STPMIN",
    707: "STP > STPMAX",
    708: "STPMIN < 0",
    709: "STPMAX < STPMIN",
    710: "INITIAL G >= 0",
    711: "M <= 0",
    712: "N <= 0",
    713: "INVALID NBD",
}


@dataclass(frozen=True)
class OptimizationResult:
    t_opt: np.ndarray
    energy: float
    evaluations: int
    converged: bool
    gradient_norm: float  # infinity-norm at t_opt
    message: str  # scipy's reason for stopping


@functools.cache
def _setulb():
    """scipy's compiled ``setulb``, loaded from ``scipy/optimize/_lbfgsb``
    without running ``scipy.optimize``'s ``__init__``; ``ImportError``
    unless it has the 17-argument signature of scipy >= 1.15.  Its imports
    are made here, so that importing the package does not pay for them."""
    import importlib.util
    import sysconfig

    import scipy

    path = os.path.join(
        os.path.dirname(scipy.__file__), "optimize", "_lbfgsb" + sysconfig.get_config_var("EXT_SUFFIX")
    )
    spec = importlib.util.spec_from_file_location("scipy.optimize._lbfgsb", path)
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setulb = module.setulb
    except (ImportError, AttributeError) as exc:
        raise ImportError(f"no L-BFGS-B kernel at {path} (scipy {scipy.__version__})") from exc
    if (setulb.__doc__ or "").splitlines()[:1] != [_SETULB]:
        raise ImportError(f"scipy {scipy.__version__}'s setulb is not {_SETULB}; scipy >= 1.15 is needed")
    return setulb


def minimize(
    value_and_gradient, t0, max_evaluations: int = MAX_EVALUATIONS
) -> OptimizationResult:
    """L-BFGS from t0 on ``value_and_gradient(v) -> (float, array)``.

    The loop of ``scipy.optimize.minimize(method="L-BFGS-B")`` with
    ``maxcor=10``, ``gtol=GRADIENT_TOLERANCE``, ``ftol=1e-15`` and
    ``maxfun=max_evaluations``, unbounded: the same kernel gets the same
    inputs, so iterates, evaluations and message are bit for bit scipy's.
    t0 is evaluated first; the kernel's requests for the objective are
    answered by a new evaluation only where its point differs from the last
    one, on a copy of it, and the run stops at the first new iterate after
    ``max_evaluations`` evaluations.  scipy's iteration limit (15000) is
    left out: each iteration takes a new evaluation, so only an evaluation
    cap above 15000 could reach it.  One fused callable lets the objective
    and its gradient share work (the QCC energy and gradient come from the
    same dressed Hamiltonian).  Non-finite objective values abort with the
    offending point attached.  A failed line search (ABNORMAL) returns the
    last iterate, as the kernel leaves it, with the objective there; scipy
    returns the last trial value as its energy.
    """
    t0 = np.asarray(t0, dtype=float)
    if t0.size == 0:
        raise ValueError("empty amplitude vector")
    if not np.all(np.isfinite(t0)):
        raise OptimizationError("non-finite starting point", point=t0)
    setulb = _setulb()
    evaluations = 0

    def evaluate(v):
        nonlocal evaluations
        point = v.copy()
        e, g = value_and_gradient(v.copy())
        evaluations += 1
        g = np.array(g, dtype=np.float64, ndmin=1)
        if not np.isfinite(e) or not np.all(np.isfinite(g)):
            raise OptimizationError(f"non-finite objective at {point!r}", point=point)
        return point, float(e), g

    x = np.array(t0.ravel(), dtype=np.float64)
    n, m = x.size, _CORRECTIONS
    point, f, grad = evaluate(x)
    f_iterate = f  # the objective at the last accepted iterate
    # the kernel writes g back when a line search fails, so it gets a copy
    g = np.zeros(n)
    low, up, nbd = np.zeros(n), np.zeros(n), np.zeros(n, np.int32)  # nbd 0: no bounds
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    while True:
        setulb(m, x, low, up, nbd, f, g, _FACTR, GRADIENT_TOLERANCE, wa, iwa, task,
               lsave, isave, dsave, _MAX_LINE_SEARCH, ln_task)
        if task[0] == 3:  # FG: the objective at x
            if not np.array_equal(x, point):
                point, f, grad = evaluate(x)
            g[:] = grad
        elif task[0] == 1:  # NEW_X: an iteration is done
            f_iterate = f
            if evaluations > max_evaluations:
                task[:] = 5, 502  # STOP: the evaluation cap
        else:
            break
    if task[0] == 8:  # ABNORMAL: the kernel put x and g back to the last iterate
        f = f_iterate
    grad_norm = float(np.max(np.abs(g)))
    return OptimizationResult(
        t_opt=x,
        energy=f,
        evaluations=evaluations,
        converged=grad_norm <= GRADIENT_TOLERANCE,
        gradient_norm=grad_norm,
        message=f"{_STATUS_MESSAGES[task[0]]}: {_TASK_MESSAGES[task[1]]}",
    )
