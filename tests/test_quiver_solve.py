"""solve_fiber's quiver route on cobalanced diagrams.

A cobalanced diagram with an x-point is solved on its framed quiver,
written as a bow with no x-points, and the solution is lifted to the
bow point with every A = id.  Each lifted point is re-checked here from
its matrices alone: the moment map is recomputed from the rule in the
total_space docstring, and (S1)/(S2) are Kalman rank tests.  The bow's
own start loop on the diagram itself is the oracle for the route's
reach.
"""

import json

import numpy as np
import pytest

from bowlab import solve
from bowlab.cli import main
from bowlab.diagrams import Bow, BowDiagram, embed_deformation, parse_bow_diagram
from bowlab.linalg import rank
from bowlab.reduction import from_quiver_point, gauge_fix_H, to_quiver_point
from bowlab.total_space import (
    FiberSolveReport,
    InfeasibilityEvidence,
    _start_loop,
    flatten_point,
    solve_fiber,
)

from conftest import maxabs

S222 = "bow { wavy s [2, 2, 2]; }"


def _moment_error(d, p, lam) -> float:
    """Largest entry of (mu1, mu2 - lam id), mu recomputed per segment."""
    mu = {(name, j): np.zeros((v, v), dtype=complex)
          for name in d.bow.intervals for j, v in enumerate(d.seg_dims[name])}
    for name in d.bow.intervals:
        mu[(name, 0)] -= complex(lam.get(name, 0)) * np.eye(d.seg_dims[name][0])
    err = 0.0
    for name in d.bow.intervals:
        for i, t in enumerate(p.triangles[name]):
            err = max(err, maxabs(t.B2 @ t.A - t.A @ t.B1 + t.a @ t.b))
            mu[(name, i)] += t.B1
            mu[(name, i + 1)] -= t.B2
    for (tail, head), e in zip(d.bow.edges, p.edges):
        mu[(head, 0)] += e.C @ e.D
        mu[(tail, len(d.seg_dims[tail]) - 1)] -= e.D @ e.C
    return max([err] + [maxabs(m) for m in mu.values()])


def _kalman_open(t) -> bool:
    """(S1) and (S2) at one triangle: the pair (B1, [A; b]) is observable
    and (B2, [A a]) controllable; a side of dimension 0 passes."""
    v2, v1 = t.A.shape
    obs = np.vstack([np.vstack([t.A, t.b]) @ np.linalg.matrix_power(t.B1, k)
                     for k in range(max(v1, 1))])
    ctr = np.hstack([np.linalg.matrix_power(t.B2, k) @ np.hstack([t.A, t.a])
                     for k in range(max(v2, 1))])
    return rank(obs) == v1 and rank(ctr) == v2


def _assert_open_lift(d, lam, out):
    """out is an open point over lam whose every A is exactly the identity."""
    assert isinstance(out, FiberSolveReport)
    p = out.point
    scale = max([1.0] + [abs(complex(v)) for v in lam.values()])
    assert _moment_error(d, p, lam) <= 1e-11 * scale
    for ts in p.triangles.values():
        for t in ts:
            assert np.array_equal(t.A, np.eye(t.v1))
            assert _kalman_open(t)


# --- the S222 regression ----------------------------------------------------------


@pytest.mark.parametrize("lam", (5.0, 100.0, 1e4))
def test_s222_finds_an_open_point_on_every_seed(lam):
    # at lambda = 5, 13 of these seeds once ended on the non-open locus:
    # every bow start converged, with a rank-1 A
    d = parse_bow_diagram(S222)
    for seed in range(40):
        _assert_open_lift(d, {"s": lam}, solve_fiber(d, {"s": lam}, seed=seed, n_starts=10))


# --- parity with the bow's own start loop --------------------------------------------


def _random_cobalanced(rng):
    """1-2 intervals, v <= 2, 0-2 x-points each, 0-2 edges (self-edges
    allowed), a complex lambda per interval."""
    names = ("a", "b")[:rng.integers(1, 3)]
    dims = {name: (int(rng.integers(0, 3)),) * int(rng.integers(1, 4)) for name in names}
    edges = tuple((str(rng.choice(names)), str(rng.choice(names)))
                  for _ in range(rng.integers(0, 3)))
    lam = {name: complex(*np.round(rng.normal(size=2), 2)) for name in names}
    return BowDiagram(Bow(names, edges), dims), lam


def test_route_reaches_every_fiber_the_bow_starts_reach():
    rng = np.random.default_rng(11)
    bow_open = route_open = 0
    for k in range(60):
        d, lam = _random_cobalanced(rng)
        bow = _start_loop(d, embed_deformation(d, lam), k, 8)
        route = solve_fiber(d, lam, seed=k, n_starts=8)
        if isinstance(bow, FiberSolveReport):
            bow_open += 1
            # the route rests on this: an open point has every A invertible
            for ts in bow.point.triangles.values():
                assert all(rank(t.A) == t.v1 for t in ts)
            assert isinstance(route, FiberSolveReport), (d, lam)
        if isinstance(route, FiberSolveReport):
            route_open += 1
            if d.x_points():
                _assert_open_lift(d, lam, route)
    assert route_open >= bow_open > 20


# --- edge cases -------------------------------------------------------------------


EDGE_CASES = (
    # an interval without x-points beside one with them
    ("bow { wavy a [2]; wavy b [1, 1, 1]; edge a -> b; edge b -> a; }", {"a": 0.3, "b": -0.6}),
    ("bow { wavy a [2]; wavy b [1, 1]; edge b -> a; }", {"b": 0.7}),
    # v = 0, with and without a neighbour
    ("bow { wavy a [0, 0, 0]; wavy b [1, 1]; edge a -> b; }", {"a": 0.4, "b": 0.9}),
    ("bow { wavy a [0, 0]; }", {"a": 3.0}),
    # self-edges
    ("bow { wavy a [2, 2]; edge a -> a; }", {"a": 0.8 - 0.3j}),
    ("bow { wavy a [1, 1]; edge a -> a; edge a -> a; }", {"a": 1.5}),
    # sum lam_i v_i != 0, complex lam, lam = 10^4
    (S222, {"s": 0.5}),
    (S222, {"s": 0.7 - 0.4j}),
    (S222, {"s": 1e4}),
    ("bow { wavy a [1, 1]; wavy b [1, 1]; edge a -> b; edge b -> a; }", {"a": 1e4, "b": 2e4j}),
)


@pytest.mark.parametrize("text, lam", EDGE_CASES)
def test_lifted_points_are_open_and_on_the_fiber(text, lam):
    d = parse_bow_diagram(text)
    out = solve_fiber(d, lam, seed=3, n_starts=10)
    _assert_open_lift(d, lam, out)
    scale = max([1.0] + [abs(complex(v)) for v in lam.values()])
    assert out.residual_norm <= 1e-11 * scale
    again = solve_fiber(d, lam, seed=3, n_starts=10)
    assert np.array_equal(flatten_point(d, out.point), flatten_point(d, again.point))


def test_lift_is_from_quiver_point():
    # solve_fiber's lift and reduction.from_quiver_point are one recursion
    d = parse_bow_diagram(EDGE_CASES[0][0])
    out = solve_fiber(d, EDGE_CASES[0][1], seed=0, n_starts=10)
    again = from_quiver_point(d, to_quiver_point(gauge_fix_H(d, out.point)))
    assert np.array_equal(flatten_point(d, again.point), flatten_point(d, out.point))


def test_route_evidence_holds_only_unconverged_starts(monkeypatch):
    # a b = lam id has no solution with rank(a b) <= 1 < 2: the quiver
    # fiber is empty, while the bow's starts converge onto its non-open locus
    monkeypatch.setattr(solve, "MAX_ITERS", 20)
    d = parse_bow_diagram("bow { wavy a [2, 2]; }")
    out = solve_fiber(d, {"a": 1.0}, seed=0, n_starts=3)
    assert isinstance(out, InfeasibilityEvidence)
    assert [(s.converged, s.open_conditions_ok) for s in out.starts] == [(False, None)] * 3
    bow = _start_loop(d, embed_deformation(d, {"a": 1.0}), 0, 3)
    assert isinstance(bow, InfeasibilityEvidence)
    assert all(s.converged and s.open_conditions_ok is False for s in bow.starts)


@pytest.mark.parametrize("text, lam", (("bow { wavy a [2]; edge a -> a; }", {"a": 0.0}),
                                       ("bow { wavy a [2]; wavy b [5, 2]; edge a -> b; }",
                                        {"a": 0.6 + 0.3j, "b": -1.1 + 0.7j})))
def test_diagrams_off_the_route_keep_the_bow_loop(text, lam):
    # no x-points (already its own quiver), not cobalanced: the bow loop itself
    d = parse_bow_diagram(text)
    out = solve_fiber(d, lam, seed=2, n_starts=3)
    bow = _start_loop(d, embed_deformation(d, lam), 2, 3)
    assert type(out) is type(bow)
    if isinstance(out, FiberSolveReport):
        assert np.array_equal(flatten_point(d, out.point), flatten_point(d, bow.point))
    else:
        assert out == bow


def test_cli_solve_is_byte_identical_with_every_A_the_identity(capsys, tmp_path):
    path = tmp_path / "mixed.bow"
    path.write_text(EDGE_CASES[0][0], encoding="utf-8")
    argv = ["solve", str(path), "--lambda", "0.3,-0.6", "--seed", "4"]
    outputs = []
    for _ in range(2):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    triangles = json.loads(outputs[0])["point"]["triangles"]
    assert triangles["a"] == []
    for t in triangles["b"]:
        assert t["A"] == [[[1.0, 0.0]]]
