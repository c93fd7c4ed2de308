"""Reduction of a cobalanced diagram to a framed quiver representation.

On a cobalanced diagram every A_x is square, and at a zero of the
moment map away from first segments that satisfies (S1)/(S2) every A_x
is invertible (off the open locus a singular A_x does occur).  The
subgroup of gauge transformations that fix the first segments then acts
freely, and each orbit has exactly one representative with every
A_x = id.  Reading (a_x, b_x) as framing columns/rows and (C, D) as
arrow matrices identifies the reduced space with T*Rep(Q, v, w); the
maps below realize that identification in both directions.  The
acceptance tests check the transport end to end: c01 that bow and
quiver exact01 verdicts agree on solved points, c09 that the reduced
moment map equals lambda on cobalanced instances.

Both directions read a point's quiver data, the blocks total_space's
route_blocks name (each edge's (C, D), then each x-point's (a, b)):
gauge_fix_H's walk moves just those, and every A = id point is their
lift by from_quiver_point's recursion.  check_semistable's quiver
route searches the framed quiver point of the walk's blocks and `bowlab
reduce` prints it, neither building the lift.  solve_fiber solves a
cobalanced fiber on the framed quiver and lifts the solution by the
same recursion.  An open point has invertible A's, and a point
with every A_x = id satisfies (S1)/(S2) outright, so the bow fiber has
an open point exactly when the quiver fiber is nonempty.

HReducedPoint's constructor checks that every A is exactly the identity;
gauge_fix_H and from_quiver_point, whose A's _lift writes as identities,
build theirs by linalg._trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagrams import BowDiagram, NotCobalanced
from .linalg import _trusted
from .quiver import QuiverRepPoint
from .total_space import (
    MuHNonzero,
    SingularA,
    TotalSpacePoint,
    _compiled,
    _fix_H,
    _lift,
    _quiver_point,
    check_shapes,
)

__all__ = [
    "HReducedPoint",
    "SingularA",
    "MuHNonzero",
    "ShapeMismatch",
    "gauge_fix_H",
    "to_quiver_point",
    "from_quiver_point",
]


class ShapeMismatch(ValueError):
    """Quiver point shapes disagree with the diagram's framed dimensions."""


@dataclass(frozen=True)
class HReducedPoint:
    """Total-space point in the distinguished gauge (every A_x = id)."""

    diagram: BowDiagram
    point: TotalSpacePoint

    def __post_init__(self):
        blocks = check_shapes(self.diagram, self.point)
        c = _compiled(self.diagram)
        for (role, _, col), m in zip(c.tags, blocks):
            if role == "A" and not np.array_equal(m, np.eye(m.shape[1])):
                seg = c.segs[col]
                raise ValueError(f"triangle ({seg.interval!r}, {seg.index}): "
                                 f"A is not exactly the identity")


def gauge_fix_H(d: BowDiagram, p: TotalSpacePoint) -> HReducedPoint:
    """Walk each wavy line, absorbing the A's into the gauge.

    Successive segment gauges g_0 = id, g_{i+1} = g_i A_i^{-1} turn
    every A into the identity while fixing the first segments, which is
    exactly an H-transformation.  The walk moves only p's quiver data,
    each edge's (C, D) and each x-point's (a, b); the result is its lift
    by from_quiver_point's recursion, every A the exact identity and the
    B's the recursion's.  On the level set they equal the walk's up to
    p's moment residual; off condition (a) the result is the A = id point
    that carries p's quiver data.  Raises NotCobalanced, MuHNonzero or
    SingularA where no such representative exists.
    """
    c = _compiled(d)
    return _trusted(HReducedPoint, d, _lift(d, c, _fix_H(c, check_shapes(d, p))))


def to_quiver_point(r: HReducedPoint) -> QuiverRepPoint:
    """The identification with a framed representation: arrows carry
    (C, D) and per interval the a's stack into I, the b's into J,
    x-points ordered along the wavy line; with every A = id the B's
    follow from these (from_quiver_point), so they are not read."""
    c, blocks = _compiled(r.diagram), check_shapes(r.diagram, r.point)
    return _quiver_point(c, [blocks[j] for j in c.route_blocks])


def from_quiver_point(d: BowDiagram, q: QuiverRepPoint) -> HReducedPoint:
    """Inverse identification: A = id, I/J split back into framing pairs,
    and the B's rebuilt by the exact backward recursion that zeroes the
    moment map on every non-first segment (total_space._lift, which
    solve_fiber's quiver route also lifts its solutions by)."""
    c = _compiled(d)
    if c.framed is None:
        raise NotCobalanced("from_quiver_point requires a cobalanced diagram")
    v, w, _ = c.framed
    if q.v != v or q.w != w:
        raise ShapeMismatch(f"quiver point dims {q.v}/{q.w} do not match "
                            f"the diagram's framed dims {dict(v)}/{dict(w)}")
    if tuple(q.quiver.arrows) != tuple(d.bow.edges):
        raise ShapeMismatch("quiver arrows do not match the bow edges")

    blocks = [m for k in range(len(d.bow.edges)) for m in (q.x[k], q.y[k])]
    blocks += [m for name, i in d.x_points() for m in (q.I[name][:, i:i + 1], q.J[name][i:i + 1])]
    return _trusted(HReducedPoint, d, _lift(d, c, blocks))
