"""Gauge fixing on cobalanced diagrams and the framed-quiver dictionary.

The backward B-recursion in from_quiver_point is exact, so one
direction of the round trip is tested to machine zero; the other side
starts from a solved fiber point and is only as flat as the solver
left it.
"""

import numpy as np
import pytest

from bowlab.diagrams import NotCobalanced, SegmentRef, parse_bow_diagram
from bowlab.linalg import kernel_basis
from bowlab.quiver import Quiver, QuiverRepPoint, rep_moment_map, rep_symplectic_pairing
from bowlab.reduction import (
    HReducedPoint,
    MuHNonzero,
    ShapeMismatch,
    SingularA,
    from_quiver_point,
    gauge_fix_H,
    to_quiver_point,
)
from bowlab.total_space import (
    FiberSolveReport,
    TotalSpacePoint,
    flatten_point,
    gauge_action,
    moment_jacobian,
    open_conditions_hold,
    point_dim,
    random_point,
    solve_fiber,
    total_moment_map,
    total_symplectic_pairing,
    unflatten_point,
)
from bowlab.triangles import TriangleData

from conftest import cgauss, maxabs

INTERVAL_111 = "bow { wavy s [1, 1, 1]; }"
CYCLE_11 = "bow { wavy a [1, 1]; wavy b [1, 1]; edge a -> b; edge b -> a; }"
PLAIN_22 = "bow { wavy a [2, 2]; }"
# two x-points on a, none on b, and a self-edge: the quiver reader takes
# each x-point's a and b by position, and b gets a zero-width I and J
MIXED_222_3 = "bow { wavy a [2, 2, 2]; wavy b [3]; edge a -> b; edge b -> b; }"
# two x-points on a and one on b, with edges both ways
CYCLE_222_22 = "bow { wavy a [2, 2, 2]; wavy b [2, 2]; edge a -> b; edge b -> a; }"


def _solved(text, lam, seed=0):
    d = parse_bow_diagram(text)
    report = solve_fiber(d, lam, seed=seed, n_starts=10)
    assert isinstance(report, FiberSolveReport)
    return d, report.point


# --- gauge fixing ------------------------------------------------------------


def test_gauge_fix_walks_to_identity():
    d, p = _solved(INTERVAL_111, {"s": 0.7 + 0.1j})
    r = gauge_fix_H(d, p)
    for name, i in d.x_points():
        t = r.point.triangle(name, i)
        assert np.array_equal(t.A, np.eye(t.v1))
    # gauge moves preserve the moment fiber and the open conditions
    mu = total_moment_map(d, r.point)
    for s in d.segments():
        target = (0.7 + 0.1j) * np.eye(1) if s.index == 0 else np.zeros((1, 1))
        assert maxabs(mu[s] - target) < 1e-9
    assert open_conditions_hold(d, r.point)


def test_gauge_fix_fixes_first_segments():
    # the first-segment gauge factor is the identity, so first-segment
    # framing data is untouched
    d, p = _solved(CYCLE_11, {"a": 0.5, "b": -0.8})
    r = gauge_fix_H(d, p)
    for name in d.bow.intervals:
        assert maxabs(r.point.triangle(name, 0).b - p.triangle(name, 0).b) == 0.0


def test_gauge_fix_rejects_off_level_points(rng):
    d = parse_bow_diagram(INTERVAL_111)
    with pytest.raises(MuHNonzero):
        gauge_fix_H(d, random_point(d, rng))


def test_gauge_fix_rejects_singular_A():
    d = parse_bow_diagram("bow { wavy a [1, 1]; }")
    zero = np.zeros((1, 1))
    t = TriangleData(A=zero, B1=zero, B2=zero, a=np.ones((1, 1)), b=zero)
    with pytest.raises(SingularA):
        gauge_fix_H(d, TotalSpacePoint({"a": (t,)}, ()))


def test_gauge_fix_needs_cobalanced():
    d = parse_bow_diagram("bow { wavy a [2]; wavy b [5, 2]; edge a -> b; }")
    with pytest.raises(NotCobalanced):
        gauge_fix_H(d, unflatten_point(d, np.zeros(point_dim(d))))


def test_reduced_point_validates():
    d = parse_bow_diagram("bow { wavy a [1, 1]; }")
    t = TriangleData(A=2 * np.eye(1), B1=np.zeros((1, 1)), B2=np.zeros((1, 1)),
                     a=np.zeros((1, 1)), b=np.zeros((1, 1)))
    with pytest.raises(ValueError):
        HReducedPoint(d, TotalSpacePoint({"a": (t,)}, ()))


# --- the dictionary ----------------------------------------------------------


def _random_quiver_point(d, rng):
    from bowlab.diagrams import framed_dims_of_cobalanced, underlying_quiver

    q = underlying_quiver(d.bow)
    v, w = framed_dims_of_cobalanced(d)
    x = tuple(cgauss(rng, v[h], v[t]) for t, h in q.arrows)
    y = tuple(cgauss(rng, v[t], v[h]) for t, h in q.arrows)
    I = {i: cgauss(rng, v[i], w[i]) for i in q.vertices}
    J = {i: cgauss(rng, w[i], v[i]) for i in q.vertices}
    return QuiverRepPoint(q, v, w, x, y, I, J)


@pytest.mark.parametrize("text", (INTERVAL_111, CYCLE_11, PLAIN_22, MIXED_222_3))
def test_quiver_round_trip_is_exact(text, rng):
    d = parse_bow_diagram(text)
    q = _random_quiver_point(d, rng)
    r = from_quiver_point(d, q)
    back = to_quiver_point(r)
    for k in range(len(q.quiver.arrows)):
        assert np.array_equal(q.x[k], back.x[k])
        assert np.array_equal(q.y[k], back.y[k])
    for i in q.quiver.vertices:
        assert np.array_equal(q.I[i], back.I[i])
        assert np.array_equal(q.J[i], back.J[i])


@pytest.mark.parametrize("text", (INTERVAL_111, CYCLE_11, PLAIN_22, MIXED_222_3))
def test_recursion_lands_on_level_set(text, rng):
    # the rebuilt B's zero the moment map away from first segments, and
    # there it reproduces the quiver moment map
    d = parse_bow_diagram(text)
    q = _random_quiver_point(d, rng)
    r = from_quiver_point(d, q)
    mu = total_moment_map(d, r.point)
    rep_mu = rep_moment_map(q)
    for s in d.segments():
        if s.index > 0:
            assert maxabs(mu[s]) < 1e-13
        else:
            assert maxabs(mu[s] - rep_mu[s.interval]) < 1e-13


def _H_gauge(d, rng):
    # the identity on first segments, a random invertible matrix elsewhere
    return {s: np.eye(d.dim(s)) + (s.index > 0) * cgauss(rng, d.dim(s), d.dim(s))
            for s in d.segments()}


@pytest.mark.parametrize("text, lam", (
    ("bow { wavy a [4, 4, 4]; wavy b [4, 4, 4]; edge a -> b; edge b -> a; }",
     {"a": 0.5, "b": -0.5}),
    ("bow { wavy a [3, 3, 3, 3]; wavy b [3, 3]; edge a -> b; edge b -> a; }",
     {"a": 0.5, "b": -0.5}),
    ("bow { wavy s [2, 2, 2]; }", {"s": 0.5}),
    (INTERVAL_111, {"s": 0.0}),
))
@pytest.mark.parametrize("seed", (0, 1, 2))
def test_solved_route_points_round_trip_bit_for_bit(text, lam, seed):
    # solve_fiber, gauge_fix_H and from_quiver_point build every A = id
    # point by one lift, so each step gives back the same bytes
    d, p = _solved(text, lam, seed)
    r = gauge_fix_H(d, p)
    again = from_quiver_point(d, to_quiver_point(r))
    blocks = [flatten_point(d, x).tobytes() for x in (p, r.point, again.point)]
    assert blocks[0] == blocks[1] == blocks[2]


def test_reduced_round_trip_through_quiver(rng):
    # gauge_fix_H's B's are already the recursion's, so the round trip
    # through the quiver point gives back the same bits
    d, p = _solved(INTERVAL_111, {"s": 1.2})
    r = gauge_fix_H(d, gauge_action(d, _H_gauge(d, rng), p))
    again = from_quiver_point(d, to_quiver_point(r))
    assert np.array_equal(flatten_point(d, again.point), flatten_point(d, r.point))


def test_reduction_is_H_invariant_with_edges_and_two_x_points(rng):
    d, p = _solved(CYCLE_222_22, {"a": 0.5, "b": -0.5})
    r = gauge_fix_H(d, p)
    q = to_quiver_point(r)
    moved = to_quiver_point(gauge_fix_H(d, gauge_action(d, _H_gauge(d, rng), p)))
    scale = max(maxabs(m) for m in (*q.x, *q.y, *q.I.values(), *q.J.values()))
    for k in range(len(q.quiver.arrows)):
        assert maxabs(moved.x[k] - q.x[k]) < 1e-12 * scale
        assert maxabs(moved.y[k] - q.y[k]) < 1e-12 * scale
    for i in q.quiver.vertices:
        assert maxabs(moved.I[i] - q.I[i]) < 1e-12 * scale
        assert maxabs(moved.J[i] - q.J[i]) < 1e-12 * scale
    # the lift is the walk's own gauge move, g_0 = id and g_{i+1} = g_i A_i^-1
    walk = {}
    for name in d.bow.intervals:
        g = np.eye(d.dim(SegmentRef(name, 0)))
        walk[SegmentRef(name, 0)] = g
        for i, t in enumerate(p.triangles[name]):
            g = g @ np.linalg.inv(t.A)
            walk[SegmentRef(name, i + 1)] = g
    x = flatten_point(d, r.point)
    assert maxabs(x - flatten_point(d, gauge_action(d, walk, p))) < 1e-12 * maxabs(x)


def test_from_quiver_point_shape_guards(rng):
    d = parse_bow_diagram(INTERVAL_111)
    q = _random_quiver_point(d, rng)
    with pytest.raises(NotCobalanced):
        from_quiver_point(parse_bow_diagram("bow { wavy a [1, 2]; }"), q)
    other = _random_quiver_point(parse_bow_diagram(CYCLE_11), rng)
    with pytest.raises(ShapeMismatch):
        from_quiver_point(d, other)
    doubled = QuiverRepPoint(q.quiver, {"s": 2}, {"s": 2},
                             q.x, q.y, {"s": cgauss(rng, 2, 2)},
                             {"s": cgauss(rng, 2, 2)})
    with pytest.raises(ShapeMismatch):
        from_quiver_point(d, doubled)



def test_from_quiver_point_needs_the_bow_edges_as_arrows(rng):
    d = parse_bow_diagram(CYCLE_11)
    q = _random_quiver_point(d, rng)
    flipped = QuiverRepPoint(Quiver(q.quiver.vertices, q.quiver.arrows[::-1]), q.v, q.w,
                             q.x[::-1], q.y[::-1], q.I, q.J)
    with pytest.raises(ShapeMismatch) as exc:
        from_quiver_point(d, flipped)
    assert str(exc.value) == "quiver arrows do not match the bow edges"

# --- symplectic transport ---------------------------------------------------------


def _level_tangents(d, p, rng, count):
    # rows: every mu1 block, then mu2 on segments with index > 0
    jac = moment_jacobian(d, p)
    n_mu1 = sum(d.seg_dims[name][i] * d.seg_dims[name][i + 1]
                for name, i in d.x_points())
    rows = [jac[:n_mu1]]
    offset = n_mu1
    for s in d.segments():
        block = d.dim(s) ** 2
        if s.index > 0:
            rows.append(jac[offset:offset + block])
        offset += block
    ker = kernel_basis(np.vstack(rows))
    assert ker.dim > 0
    return [unflatten_point(d, ker.basis @ cgauss(rng, ker.dim, 1).ravel())
            for _ in range(count)]


def _pipeline(d, x):
    return to_quiver_point(gauge_fix_H(d, unflatten_point(d, x)))


def _quiver_diff(d, p, t, h=1e-5):
    x0 = flatten_point(d, p)
    dt = flatten_point(d, t)
    plus = _pipeline(d, x0 + h * dt)
    minus = _pipeline(d, x0 - h * dt)
    inv = 1.0 / (2.0 * h)
    return QuiverRepPoint(
        plus.quiver, plus.v, plus.w,
        tuple((a - b) * inv for a, b in zip(plus.x, minus.x)),
        tuple((a - b) * inv for a, b in zip(plus.y, minus.y)),
        {i: (plus.I[i] - minus.I[i]) * inv for i in plus.quiver.vertices},
        {i: (plus.J[i] - minus.J[i]) * inv for i in plus.quiver.vertices})


@pytest.mark.parametrize("text,lam", ((INTERVAL_111, {"s": 1.0 + 0.5j}),
                                      (CYCLE_11, {"a": 0.4, "b": -0.9})))
def test_reduction_preserves_symplectic_pairing(text, lam, rng):
    # the pairing of level-set tangents matches the pairing of their
    # images, whatever their gauge components are
    d, p = _solved(text, lam, seed=3)
    t1, t2 = _level_tangents(d, p, rng, 2)
    upstairs = rep_symplectic_pairing(_quiver_diff(d, p, t1), _quiver_diff(d, p, t2))
    downstairs = total_symplectic_pairing(d, p, t1, t2)
    assert abs(upstairs - downstairs) < 1e-5 * max(1.0, abs(downstairs))
