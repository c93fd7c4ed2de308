"""Damped Gauss-Newton for square-free polynomial systems over C.

The residuals solved in this package are polynomial in complex matrix
entries, hence holomorphic: the complex Jacobian dr/dz exists and the
normal equations (J^H J + damping I) d = -J^H r reproduce exactly the
real-coordinate Gauss-Newton step.  No Wirtinger bookkeeping needed.

The step is solved in residual space, d = J^H (J J^H + l I)^-1 (-r): by
the push-through identity it is the same step for every damping l > 0,
and the moment equations have fewer residuals m than unknowns n, so the
factored system is m x m.  Rejected steps are rare, so each is one more
m x m solve rather than a reuse of an eigendecomposition.

finite_diff_jacobian takes real central-difference steps along each
complex coordinate, which for a holomorphic map is dr/dz itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Tolerances, DEFAULT_TOL

__all__ = [
    "SolveConfig",
    "SolveResult",
    "MaxItersExceeded",
    "gauss_newton",
    "finite_diff_jacobian",
]


class MaxItersExceeded(Exception):
    """Solver stopped without converging; carries the best iterate found
    and the reason: "stalled" (no damping level improved the residual) or
    "budget" (max_iters ran out)."""

    def __init__(self, x, residual_norm, iterations, reason):
        super().__init__(f"no convergence after {iterations} iterations ({reason}), "
                         f"residual {residual_norm:.3e}")
        self.x = x
        self.residual_norm = residual_norm
        self.iterations = iterations
        self.reason = reason


@dataclass(frozen=True)
class SolveConfig:
    max_iters: int = 200
    residual_tol: float = 1e-12
    damping_init: float = 1e-3
    damping_up: float = 10.0     # on a rejected step
    damping_down: float = 0.5    # on an accepted step
    max_rejects: int = 60        # per iteration, before giving up on the step

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.residual_tol <= 0 or self.damping_init <= 0:
            raise ValueError("residual_tol and damping_init must be positive")
        if self.damping_up <= 1 or not (0 < self.damping_down < 1):
            raise ValueError("damping_up must exceed 1 and damping_down lie in (0, 1)")


@dataclass(frozen=True)
class SolveResult:
    x: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool


def gauss_newton(residual, x0, cfg: SolveConfig = SolveConfig(), jacobian=None) -> SolveResult:
    """Levenberg-damped Gauss-Newton on min ||residual(x)||^2.

    residual: map from C^n to C^m, complex-differentiable.
    jacobian: optional analytic dr/dz; defaults to finite differences.
    Raises MaxItersExceeded when no damping level improves the residual
    or the iteration budget runs out without reaching cfg.residual_tol.
    Deterministic: identical inputs give bitwise-identical iterates.
    """
    x = np.asarray(x0, dtype=complex).reshape(-1).copy()
    if jacobian is None:
        jacobian = lambda z: finite_diff_jacobian(residual, z)

    r = np.asarray(residual(x), dtype=complex).reshape(-1)
    damping = cfg.damping_init
    for it in range(cfg.max_iters):
        rnorm = np.linalg.norm(r)
        if rnorm < cfg.residual_tol:
            return SolveResult(x, float(rnorm), it, True)

        jac = np.asarray(jacobian(x), dtype=complex)
        jh = jac.conj().T
        jjh = jac @ jh
        eye = np.eye(r.size)

        accepted = False
        for _ in range(cfg.max_rejects):
            try:
                step = jh @ np.linalg.solve(jjh + damping * eye, -r)
            except np.linalg.LinAlgError:
                damping *= cfg.damping_up
                continue
            trial = x + step
            r_trial = np.asarray(residual(trial), dtype=complex).reshape(-1)
            if np.linalg.norm(r_trial) < rnorm:
                x, r = trial, r_trial
                damping *= cfg.damping_down
                accepted = True
                break
            damping *= cfg.damping_up
        if not accepted:
            raise MaxItersExceeded(x, float(rnorm), it, "stalled")

    rnorm = float(np.linalg.norm(r))
    if rnorm < cfg.residual_tol:
        return SolveResult(x, rnorm, cfg.max_iters, True)
    raise MaxItersExceeded(x, rnorm, cfg.max_iters, "budget")


def finite_diff_jacobian(f, x, step: float | None = None, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Central-difference Jacobian of f at x, one real step per coordinate.

    For complex-differentiable f this is the complex Jacobian dr/dz.
    """
    h = tol.fd_step if step is None else step
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
