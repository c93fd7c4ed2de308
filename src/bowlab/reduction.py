"""Reduction of a cobalanced diagram to a framed quiver representation.

On a cobalanced diagram every A_x is square, and at a zero of the
moment map away from first segments every A_x is invertible.  The
subgroup of gauge transformations that fix the first segments then acts
freely, and each orbit has exactly one representative with every
A_x = id.  Reading (a_x, b_x) as framing columns/rows and (C, D) as
arrow matrices identifies the reduced space with T*Rep(Q, v, w); the
maps below realize that identification in both directions and check
that moment maps and stability verdicts transport across it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagrams import (
    BowDiagram,
    NotCobalanced,
    framed_dims_of_cobalanced,
    is_cobalanced,
)
from .linalg import residual_cutoff
from .quiver import (
    QuiverRepPoint,
    StabilityVerdict,
    rep_moment_map,
    rep_semistable,
)
from .solve import SolveConfig
from .total_space import (
    FiberSolveReport,
    MuHNonzero,
    SingularA,
    TotalSpacePoint,
    _bow_semistable,
    _fix_H,
    _quiver_point,
    check_shapes,
    solve_fiber,
)
from .triangles import TriangleData, TwoWayData

__all__ = [
    "HReducedPoint",
    "SingularA",
    "MuHNonzero",
    "ShapeMismatch",
    "ReductionReport",
    "gauge_fix_H",
    "to_quiver_point",
    "from_quiver_point",
    "verify_reduction",
]


class ShapeMismatch(ValueError):
    """Quiver point shapes disagree with the diagram's framed dimensions."""


@dataclass(frozen=True)
class HReducedPoint:
    """Total-space point in the distinguished gauge (every A_x = id)."""

    diagram: BowDiagram
    point: TotalSpacePoint

    def __post_init__(self):
        check_shapes(self.diagram, self.point)
        for name, i in self.diagram.x_points():
            t = self.point.triangle(name, i)
            if not np.array_equal(t.A, np.eye(t.v1)):
                raise ValueError(f"triangle ({name!r}, {i}): A is not exactly the identity")


def gauge_fix_H(d: BowDiagram, p: TotalSpacePoint) -> HReducedPoint:
    """Walk each wavy line, absorbing the A's into the gauge.

    Successive segment gauges g_0 = id, g_{i+1} = g_i A_i^{-1} turn
    every A into the identity while fixing the first segments, which is
    exactly an H-transformation.  The output snaps the A's to exact
    identity matrices.  Raises NotCobalanced, MuHNonzero or SingularA
    where no such representative exists.
    """
    check_shapes(d, p)
    return HReducedPoint(d, _fix_H(d, p))


def to_quiver_point(r: HReducedPoint) -> QuiverRepPoint:
    """The identification with a framed representation: arrows carry
    (C, D) and per interval the a's stack into I, the b's into J,
    x-points ordered along the wavy line."""
    return _quiver_point(r.diagram, r.point)


def from_quiver_point(d: BowDiagram, q: QuiverRepPoint) -> HReducedPoint:
    """Inverse identification: A = id, I/J split back into framing pairs,
    and the B's rebuilt by the exact backward recursion that zeroes the
    moment map on every non-first segment."""
    if not is_cobalanced(d):
        raise NotCobalanced("from_quiver_point requires a cobalanced diagram")
    v, w = framed_dims_of_cobalanced(d)
    if dict(q.v) != v or dict(q.w) != w:
        raise ShapeMismatch(f"quiver point dims {q.v}/{q.w} do not match "
                            f"the diagram's framed dims {v}/{w}")
    if tuple(q.quiver.arrows) != tuple(d.bow.edges):
        raise ShapeMismatch("quiver arrows do not match the bow edges")

    edges = tuple(TwoWayData(C=q.x[k], D=q.y[k]) for k in range(len(d.bow.edges)))

    triangles = {}
    for name in d.bow.intervals:
        n_x = d.x_point_count(name)
        dim = v[name]
        if n_x == 0:
            triangles[name] = ()
            continue
        b_plus = np.zeros((dim, dim), dtype=complex)
        for k, (tail, _) in enumerate(d.bow.edges):
            if tail == name:
                b_plus = b_plus - edges[k].D @ edges[k].C
        ts: list = [None] * n_x
        for i in range(n_x - 1, -1, -1):
            a_i = q.I[name][:, i:i + 1]
            b_i = q.J[name][i:i + 1, :]
            b_minus = b_plus + a_i @ b_i
            ts[i] = TriangleData(A=np.eye(dim), B1=b_minus, B2=b_plus, a=a_i, b=b_i)
            b_plus = b_minus
        triangles[name] = tuple(ts)
    return HReducedPoint(d, TotalSpacePoint(triangles, edges))


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of the end-to-end level-set / stability transport check."""

    solved: bool
    moment_error: float
    moment_ok: bool
    stability_mode: str
    bow_verdict: StabilityVerdict | None
    quiver_verdict: StabilityVerdict | None
    verdicts_agree: bool
    solve_evidence: object = None

    @property
    def ok(self) -> bool:
        return self.solved and self.moment_ok and self.verdicts_agree


def verify_reduction(d: BowDiagram, lam: dict, theta: dict, seed: int = 0,
                     n_starts: int = 20, cfg: SolveConfig | None = None) -> ReductionReport:
    """Solve the bow fiber over lam, reduce, and compare both sides.

    Checks that the quiver moment map of the image equals lam at every
    vertex and that the two semistability checkers give matching
    verdicts (exact01 when all dims allow it, heuristic otherwise).
    """
    outcome = solve_fiber(d, lam, seed=seed, n_starts=n_starts, cfg=cfg)
    if not isinstance(outcome, FiberSolveReport):
        return ReductionReport(solved=False, moment_error=float("inf"),
                               moment_ok=False, stability_mode="none",
                               bow_verdict=None, quiver_verdict=None,
                               verdicts_agree=False, solve_evidence=outcome)
    reduced = gauge_fix_H(d, outcome.point)
    qp = to_quiver_point(reduced)
    mu = rep_moment_map(qp)
    err = 0.0
    for name in d.bow.intervals:
        target = complex(lam.get(name, 0.0)) * np.eye(qp.v[name])
        if mu[name].size:
            err = max(err, float(np.max(np.abs(mu[name] - target))))
    moment_ok = err <= residual_cutoff(reduced.point.scale())

    mode = "exact01" if all(val <= 1 for val in qp.v.values()) else "heuristic"
    # the bow engine itself: check_semistable's heuristic would take the
    # quiver route and compare the quiver checker with itself
    bow_v = _bow_semistable(d, reduced.point, theta, mode, False)
    quiver_v = rep_semistable(qp, theta, mode=mode)
    return ReductionReport(solved=True, moment_error=err, moment_ok=moment_ok,
                           stability_mode=mode, bow_verdict=bow_v,
                           quiver_verdict=quiver_v,
                           verdicts_agree=bow_v.kind == quiver_v.kind)
