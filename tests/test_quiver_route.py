"""Bow stability through the framed quiver description.

On a cobalanced diagram with a segment above dimension 1,
check_semistable reduces the point to a framed quiver point, decides
there (trace certificate, then lattice) and carries a witness back
along the A's.  With every segment of dimension <= 1 it decides the bow
by exact01 instead; the route itself (_routed, total_space's
_quiver_semistable) is still tested there, where the quiver decides by
exact01.  The bow's own lattice search (_bow_search) is the oracle: the
routed verdict kind must agree with it, except that the route may turn
its "not-falsified" into "semistable"; every routed witness must pass
the bow clauses checked here on the matrices, and points the reduction
does not cover must get the bow search's verdict itself.
"""

import itertools

import numpy as np
import pytest

from bowlab import reduction, total_space
from bowlab.diagrams import SegmentRef, embed_stability, parse_bow_diagram
from bowlab.graded import LATTICE_CAP, StabilityVerdict, _lattice_search, find_destabilizer
from bowlab.quiver import QuiverRepPoint, _destabilizer, integerize_weights
from bowlab.reduction import SingularA, gauge_fix_H, to_quiver_point
from bowlab.total_space import (
    FiberSolveReport,
    TotalSpacePoint,
    _compiled,
    _quiver_semistable,
    check_semistable,
    check_shapes,
    gauge_action,
    random_point,
    solve_fiber,
)
from bowlab.triangles import TriangleData, TwoWayData

from conftest import bow_data, cgauss

S222 = "bow { wavy s [2, 2, 2]; }"
CYCLE_11 = "bow { wavy a [1, 1]; wavy b [1, 1]; edge a -> b; edge b -> a; }"
LOOP_2 = "bow { wavy a [2]; edge a -> a; }"
INTERVAL_111 = "bow { wavy s [1, 1, 1]; }"
CYCLE_444 = "bow { wavy a [4, 4, 4]; wavy b [4, 4, 4]; edge a -> b; edge b -> a; }"

# (diagram, deformation, solver seed); S222 at lambda = 0 with seed 1 is
# unstable, so its witnesses cross the x-points
SOLVED = (
    (S222, {"s": 0.5}, 1),
    (S222, {"s": 0}, 1),
    (CYCLE_11, {"a": 0.4, "b": -0.4}, 0),
    (LOOP_2, {"a": 0}, 0),
    (INTERVAL_111, {"s": 0}, 0),
    (CYCLE_444, {"a": 0.5, "b": -0.5}, 1),
)
TOL = 1e-7   # relative, for the matrix checks of a witness


def _solved(text, lam, seed):
    d = parse_bow_diagram(text)
    report = solve_fiber(d, lam, seed=seed, n_starts=10)
    assert isinstance(report, FiberSolveReport)
    return d, report.point


def _unitary_gauge(d, p, rng):
    g = {s: np.linalg.qr(cgauss(rng, d.dim(s), d.dim(s)))[0] for s in d.segments()}
    return gauge_action(d, g, p)


def _theta(d, sign):
    return {name: sign * (1 if k == 0 else -1) for k, name in enumerate(d.bow.intervals)}


def _summary(v):
    dims = None if v.witness is None else {s: part.dim for s, part in v.witness.parts.items()}
    return v.kind, v.clause, dims, v.searched, v.capped


def _bow_search(d, p, theta, stable=False):
    """The bow's own lattice search, every segment a key, after
    find_destabilizer's zero-weights shortcut; run at every dimension,
    although find_destabilizer decides dimensions <= 1 by exact01."""
    if not stable and not any(theta.values()):
        return StabilityVerdict("semistable")
    return _lattice_search(**bow_data(d, p, theta), stable=stable)


def _above_one(d):
    """Whether check_semistable takes the route on d: some segment has
    dimension above 1."""
    return max(d.dim(s) for s in d.segments()) > 1


def _routed(d, p, theta, stable=False):
    """check_semistable's quiver route, taken at every dimension: the
    verdict of p's framed quiver point, a witness carried back to the
    segments but not re-checked."""
    nu = embed_stability(d, integerize_weights(theta))
    return _quiver_semistable(_compiled(d), check_shapes(d, p), nu, stable)


def _small(m, scale):
    return float(np.linalg.norm(m)) <= TOL * max(1.0, scale)


def _bow_witness_holds(d, p, theta, stable, v):
    """The witness destabilizes p by the bow clauses, checked on p's
    matrices with projectors and singular values."""
    g = v.witness.parts
    proj = {s: part.projector() for s, part in g.items()}
    out = {s: np.eye(d.dim(s)) - proj[s] for s in d.segments()}
    maps = []
    for name, i in d.x_points():
        t = p.triangle(name, i)
        lo, hi = SegmentRef(name, i), SegmentRef(name, i + 1)
        maps += [(lo, hi, t.A), (lo, lo, t.B1), (hi, hi, t.B2)]
    for k, e in enumerate(p.edges):
        t_seg, h_seg = d.edge_tail_segment(k), d.edge_head_segment(k)
        maps += [(t_seg, h_seg, e.C), (h_seg, t_seg, e.D)]
    for src, dst, m in maps:
        assert _small(out[dst] @ m @ g[src].basis, np.linalg.norm(m))
    weight = {s: theta[s.interval] if s.index == 0 else 0 for s in d.segments()}
    for name, i in d.x_points():
        t = p.triangle(name, i)
        lo, hi = SegmentRef(name, i), SegmentRef(name, i + 1)
        if v.clause == "kernel":
            assert _small(t.b @ g[lo].basis, np.linalg.norm(t.b))
            assert g[lo].dim == g[hi].dim
            moved = t.A @ g[lo].basis
        else:
            assert _small(out[hi] @ t.a, np.linalg.norm(t.a))
            assert g[lo].dim == g[hi].dim
            complement = np.linalg.svd(out[lo])[0][:, :d.dim(lo) - g[lo].dim]
            moved = out[hi] @ t.A @ complement
        if moved.shape[1]:
            sv = np.linalg.svd(moved, compute_uv=False)
            assert sv[-1] > TOL * np.linalg.norm(t.A, 2)
    dims = {s: part.dim for s, part in g.items()}
    total = sum(dims.values())
    if v.clause == "kernel":
        pairing = sum(weight[s] * dims[s] for s in dims)
        assert pairing > 0 or (stable and total > 0 and pairing >= 0)
    else:
        copairing = sum(weight[s] * (d.dim(s) - dims[s]) for s in dims)
        proper = total < sum(d.dim(s) for s in d.segments())
        assert copairing < 0 or (stable and proper and copairing <= 0)


@pytest.mark.parametrize("case", range(len(SOLVED)))
def test_routed_verdict_matches_bow_search(case):
    text, lam, seed = SOLVED[case]
    d, p = _solved(text, lam, seed)
    moved = _unitary_gauge(d, p, np.random.default_rng([31, case]))
    # theta = 0 is semistable outright; stable fails on a nonzero subspace
    for sign, stable in itertools.product((1, -1, 0), (False, True)):
        theta = _theta(d, sign)
        dims = []
        for point in (p, moved):
            got = _routed(d, point, theta, stable)
            if _above_one(d):
                assert _summary(check_semistable(d, point, theta, stable=stable)) == _summary(got)
            want = _bow_search(d, point, theta, stable)
            assert got.kind == want.kind or (want.kind, got.kind) == (
                "not-falsified", "semistable")
            # the verdict is the quiver's: same kind and size
            quiver = _destabilizer(to_quiver_point(gauge_fix_H(d, point)), theta, stable)
            assert (got.kind, got.searched, got.capped) == (
                quiver.kind, quiver.searched, quiver.capped)
            if got.kind == "unstable":
                assert list(got.witness.parts) == list(d.segments())
                _bow_witness_holds(d, point, theta, stable, got)
                dims.append(_summary(got)[:3])
        assert len(set(map(repr, dims))) <= 1   # gauge invariant


def test_moved_cycle_444_is_no_longer_capped():
    d, p = _solved(CYCLE_444, {"a": 0.5, "b": -0.5}, 1)
    moved = _unitary_gauge(d, p, np.random.default_rng(44))
    theta = {"a": 1, "b": -1}
    # the quiver lattice itself, below the trace certificate
    q = to_quiver_point(gauge_fix_H(d, moved))
    maps = [m for (t, h), x, y in zip(q.quiver.arrows, q.x, q.y) for m in ((t, h, x), (h, t, y))]
    lattice = find_destabilizer(q.v, maps, list(q.J.items()), list(q.I.items()), theta)
    assert lattice.kind == "not-falsified" and not lattice.capped
    assert 0 < lattice.searched < LATTICE_CAP
    routed = check_semistable(d, moved, theta, mode="heuristic")
    assert (routed.kind, routed.searched, routed.capped) == ("semistable", 0, False)
    assert _bow_search(d, moved, theta).capped


def _fell_back(d, p, theta, stable=False):
    got = check_semistable(d, p, theta, mode="heuristic", stable=stable)
    want = _bow_search(d, p, theta, stable)
    return _summary(got) == _summary(want)


def test_off_fiber_and_non_cobalanced_points_take_the_bow_search(rng):
    d = parse_bow_diagram(S222)
    for sign, stable in itertools.product((1, -1), (False, True)):
        assert _fell_back(d, random_point(d, rng), {"s": sign}, stable)
    d, p = _solved("bow { wavy s [1, 2, 1]; }", {"s": 0.5}, 0)
    for sign in (1, -1):
        assert _fell_back(d, p, {"s": sign})


def test_singular_A_takes_the_bow_search():
    # every B, a and b zero, so mu is 0; the first A has rank 1
    d = parse_bow_diagram(S222)
    p = TotalSpacePoint({"s": tuple(TriangleData(A=A, B1=np.zeros((2, 2)), B2=np.zeros((2, 2)),
                                                 a=np.zeros((2, 1)), b=np.zeros((1, 2)))
                                    for A in (np.diag([1.0, 0.0]), np.eye(2)))}, ())
    with pytest.raises(SingularA):
        gauge_fix_H(d, p)
    for sign, stable in itertools.product((1, -1), (False, True)):
        assert _fell_back(d, p, {"s": sign}, stable)


def test_witness_failing_the_bow_checks_takes_the_bow_search():
    # A = id and B2 = 0 put the point on the non-first-segment level, so
    # it reduces; but B1 (off condition (a)) moves the quiver witness
    # span(e1) = Im a out of itself, so the carried witness is refused
    d = parse_bow_diagram("bow { wavy s [2, 2]; }")
    t = TriangleData(A=np.eye(2), B1=np.array([[0, 0], [1, 0]]), B2=np.zeros((2, 2)),
                     a=np.array([[1], [0]]), b=np.zeros((1, 2)))
    p = TotalSpacePoint({"s": (t,)}, ())
    quiver = _destabilizer(to_quiver_point(gauge_fix_H(d, p)), {"s": -1}, False)
    assert quiver.kind == "unstable" and quiver.witness.dim("s") == 1
    assert _fell_back(d, p, {"s": -1})
    assert check_semistable(d, p, {"s": -1}).kind == "not-falsified"


def test_bow_search_seeds_with_one_segment_self_edges():
    # no x-points, so the reduction is the identity; the loop's
    # eigenvector e1 is killed by C_ab and spans a destabilizing kernel
    # subspace, found only from the loop's eigenspaces, which both
    # searches take as seeds
    d = parse_bow_diagram("bow { wavy a [2]; wavy b [1]; edge a -> a; edge a -> b; }")
    p = TotalSpacePoint({"a": (), "b": ()},
                        (TwoWayData(C=np.diag([1.0, 2.0]), D=np.zeros((2, 2))),
                         TwoWayData(C=np.array([[0.0, 1.0]]), D=np.array([[1.0], [0.0]]))))
    theta = {"a": 1, "b": -2}
    routed = check_semistable(d, p, theta, mode="heuristic")
    bow = _bow_search(d, p, theta)
    for v in (routed, bow):
        assert (v.kind, v.clause) == ("unstable", "kernel")
        assert {s: part.dim for s, part in v.witness.parts.items()} == {
            SegmentRef("a", 0): 1, SegmentRef("b", 0): 0}
        _bow_witness_holds(d, p, theta, False, v)


# --- the quiver point the walk builds ----------------------------------------------

# (diagram, deformation, solver seed); interval b of the last has no
# x-point, so its I and J are zero-width
WALKED = (
    (S222, {"s": 0.5}, 1),
    (CYCLE_11, {"a": 0.4, "b": -0.4}, 0),
    (LOOP_2, {"a": 0}, 0),
    (INTERVAL_111, {"s": 0}, 0),
    ("bow { wavy a [2, 2]; wavy b [2]; edge a -> b; edge b -> a; }", {"a": 0.5, "b": -0.5}, 0),
)


def _walked(case):
    text, lam, seed = WALKED[case]
    d, p = _solved(text, lam, seed)
    return d, _unitary_gauge(d, p, np.random.default_rng([47, case]))


def _routed_quiver_point(d, p, monkeypatch):
    """The quiver point that the route searches."""
    seen = []

    def spy(q, *args):
        seen.append(q)
        return _destabilizer(q, *args)

    with monkeypatch.context() as m:
        m.setattr(total_space, "_destabilizer", spy)
        _routed(d, p, _theta(d, 1))
    (q,) = seen
    return q


@pytest.mark.parametrize("case", range(len(WALKED)))
def test_walked_quiver_point_is_the_public_constructors(case, monkeypatch):
    d, p = _walked(case)
    for q in (to_quiver_point(gauge_fix_H(d, p)), _routed_quiver_point(d, p, monkeypatch)):
        public = QuiverRepPoint(q.quiver, q.v, q.w, q.x, q.y, q.I, q.J)
        assert q.quiver == public.quiver and q.v == public.v and q.w == public.w
        assert type(q.x) is tuple and type(q.y) is tuple
        for got, want in zip((*q.x, *q.y), (*public.x, *public.y), strict=True):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        for i in q.quiver.vertices:
            for got, want in ((q.I[i], public.I[i]), (q.J[i], public.J[i])):
                assert got.dtype == want.dtype and np.array_equal(got, want)
        for dims in (q.v, q.w):
            assert type(dims) is dict and list(dims) == list(q.quiver.vertices)
            assert all(type(n) is int for n in dims.values())


@pytest.mark.parametrize("case", range(len(WALKED)))
def test_mutating_a_quiver_points_dims_leaves_the_record(case, monkeypatch):
    d, p = _walked(case)
    framed = _compiled(d).framed
    v, w = dict(framed[0]), dict(framed[1])
    for q in (to_quiver_point(gauge_fix_H(d, p)), _routed_quiver_point(d, p, monkeypatch)):
        for name in d.bow.intervals:
            q.v[name] += 1
            q.w[name] += 1
        assert (dict(_compiled(d).framed[0]), dict(_compiled(d).framed[1])) == (v, w)
        again = to_quiver_point(gauge_fix_H(d, p))
        assert (again.v, again.w) == (v, w)


@pytest.mark.parametrize("case", range(len(WALKED)))
def test_a_non_finite_walk_block_raises(case, monkeypatch):
    d, p = _walked(case)
    fix_H = total_space._fix_H

    def broken(c, blocks):
        out = list(fix_H(c, blocks))
        out[0] = np.full_like(out[0], np.nan)
        return out

    monkeypatch.setattr(total_space, "_fix_H", broken)
    monkeypatch.setattr(reduction, "_fix_H", broken)
    with pytest.raises(ValueError, match="non-finite"):
        _routed(d, p, _theta(d, 1))
    if _above_one(d):
        with pytest.raises(ValueError, match="non-finite"):
            check_semistable(d, p, _theta(d, 1))
    with pytest.raises(ValueError, match="non-finite"):
        gauge_fix_H(d, p)
