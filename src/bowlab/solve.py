"""Damped Gauss-Newton for square-free polynomial systems over C.

The residuals solved in this package are polynomial in complex matrix
entries, hence holomorphic: the complex Jacobian dr/dz exists and the
normal equations (J^H J + damping I) d = -J^H r reproduce exactly the
real-coordinate Gauss-Newton step.  No Wirtinger bookkeeping needed.

The step is solved in residual space, d = J^H (J J^H + l I)^-1 (-r): by
the push-through identity it is the same step for every damping l > 0,
and the moment equations have fewer residuals m than unknowns n, so the
factored system is m x m.  Rejected steps are rare, so each is one more
m x m solve rather than a reuse of an eigendecomposition.  J J^H is the
dense product, formed once per iteration, and each trial adds the
damping to the diagonal of a copy of it; an accepted trial's residual
norm is carried into the next iteration rather than taken again.  A
residual norm is np.linalg.norm's own arithmetic on a complex vector,
sqrt(re . re + im . im) over its real and imaginary parts, without the
wrapper's argument handling: the same float, bit for bit.

Constants: a start converges below residual norm RESIDUAL_TOL within
MAX_ITERS iterations; the damping starts at DAMPING_INIT and is
multiplied by DAMPING_UP per rejected and DAMPING_DOWN per accepted
step; MAX_REJECTS rejections in one iteration stall the start.

finite_diff_jacobian takes real central-difference steps of FD_STEP
along each complex coordinate, which for a holomorphic map is dr/dz
itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SolveResult",
    "gauss_newton",
    "finite_diff_jacobian",
]


RESIDUAL_TOL = 1e-12
MAX_ITERS = 200
DAMPING_INIT = 1e-3
DAMPING_UP = 10.0
DAMPING_DOWN = 0.5
MAX_REJECTS = 60
FD_STEP = 1e-6


@dataclass(frozen=True)
class SolveResult:
    """Where a solve stopped: the last iterate, its residual norm, the
    iterations taken, and the reason, None when the residual fell below
    RESIDUAL_TOL, else "stalled" (no damping level improved the residual)
    or "budget" (MAX_ITERS ran out)."""

    x: np.ndarray
    residual_norm: float
    iterations: int
    reason: str | None = None


def gauss_newton(residual, x0, *, jacobian) -> SolveResult:
    """Levenberg-damped Gauss-Newton on min ||residual(x)||^2.

    residual: map from C^n to C^m, complex-differentiable.
    jacobian: dr/dz at x (finite_diff_jacobian where no closed form is at hand).
    Returns on every exit, with the reason None only when the residual
    reached RESIDUAL_TOL; raises nothing for a solve that does not converge.
    Deterministic: identical inputs give bitwise-identical iterates.
    """
    x = np.asarray(x0, dtype=complex).reshape(-1).copy()

    r = np.asarray(residual(x), dtype=complex).reshape(-1)
    rnorm = _norm(r)
    damping = DAMPING_INIT
    for it in range(MAX_ITERS + 1):
        if rnorm < RESIDUAL_TOL:
            return SolveResult(x, rnorm, it)
        if it == MAX_ITERS:
            return SolveResult(x, rnorm, it, "budget")

        jac = np.asarray(jacobian(x), dtype=complex)
        jh = jac.conj().T
        jjh = jac @ jh

        for _ in range(MAX_REJECTS):
            # jjh + damping I bit for bit: + 0.0 turns -0.0 into +0.0 as that sum does
            damped = jjh + 0.0
            damped.reshape(-1)[::r.size + 1] += damping
            try:
                step = jh @ np.linalg.solve(damped, -r)
            except np.linalg.LinAlgError:
                damping *= DAMPING_UP
                continue
            trial = x + step
            r_trial = np.asarray(residual(trial), dtype=complex).reshape(-1)
            trial_norm = _norm(r_trial)
            if trial_norm < rnorm:
                x, r, rnorm = trial, r_trial, trial_norm
                damping *= DAMPING_DOWN
                break
            damping *= DAMPING_UP
        else:
            return SolveResult(x, rnorm, it, "stalled")


def _norm(r: np.ndarray) -> float:
    """np.linalg.norm(r) of a complex vector r, by that function's own
    arithmetic."""
    re, im = r.real, r.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def finite_diff_jacobian(f, x) -> np.ndarray:
    """Central-difference Jacobian of f at x, one real step of FD_STEP
    per coordinate.

    For complex-differentiable f this is the complex Jacobian dr/dz.
    """
    h = FD_STEP
    x = np.asarray(x, dtype=complex).reshape(-1)
    cols = []
    for j in range(x.size):
        bump = np.zeros_like(x)
        bump[j] = h
        fp = np.asarray(f(x + bump), dtype=complex).reshape(-1)
        fm = np.asarray(f(x - bump), dtype=complex).reshape(-1)
        cols.append((fp - fm) / (2 * h))
    if not cols:
        f0 = np.asarray(f(x), dtype=complex).reshape(-1)
        return np.zeros((f0.size, 0), dtype=complex)
    return np.column_stack(cols)
