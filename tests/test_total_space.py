"""Total space of a bow diagram: moment map, gauge action, solving,
stability, translation, and the symplectic pairing.

The stability checker is compared against a literal enumeration of
graded supports on diagrams where every segment dimension is at most
one; there the subspace lattice is finite and the defining clauses can
be evaluated directly.
"""

import collections
import dataclasses
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from bowlab import diagrams, reduction, solve, total_space
from bowlab.diagrams import (
    SegmentRef,
    embed_deformation,
    framed_dims_of_cobalanced,
    lambda_of_nu,
    parse_bow_diagram,
    underlying_quiver,
)
from bowlab.graded import (
    LATTICE_CAP,
    SAME_SUBSPACE_TOL,
    GradedSubspace,
    StabilityVerdict,
    _is_destabilizer,
    _closed_supports,
    _lattice_search,
    _snapped,
    _support_bits,
    candidate_lattice,
)
from bowlab.linalg import RANK_TOL, Subspace, image_basis, kernel_basis, matrix_from_json, rank
from bowlab.quiver import Exact01Unavailable, Quiver, QuiverRepPoint, rep_semistable
from bowlab.solve import finite_diff_jacobian
from bowlab.total_space import (
    FiberSolveReport,
    InfeasibilityEvidence,
    TotalSpacePoint,
    _compiled,
    _join,
    action_differential,
    check_semistable,
    check_shapes,
    expected_smooth_dimension,
    flatten_point,
    gauge_action,
    gauge_dim,
    moment_differential,
    moment_jacobian,
    moment_residual,
    open_conditions_hold,
    point_dim,
    point_from_json_dict,
    point_to_json_dict,
    random_point,
    solve_fiber,
    total_moment_map,
    total_symplectic_pairing,
    translate_deformation,
    unflatten_point,
)
from bowlab.triangles import TriangleData, TwoWayData, _cgauss, triangle_gauge_action

from conftest import bow_data, cgauss, maxabs

INTERVAL_111 = "bow { wavy s [1, 1, 1]; }"
EMPTY_252 = "bow { wavy a [2]; wavy b [5, 2]; edge a -> b; }"
CYCLE_11 = "bow { wavy a [1, 1]; wavy b [1, 1]; edge a -> b; edge b -> a; }"
BARE_2 = "bow { wavy s [2]; }"  # no x-points, no edges: an empty ambient space
SELF_2 = "bow { wavy s [2]; edge s -> s; }"  # head segment = tail segment
S222 = "bow { wavy s [2, 2, 2]; }"
CYCLE_444 = "bow { wavy a [4, 4, 4]; wavy b [4, 4, 4]; edge a -> b; edge b -> a; }"
ZERO_PARALLEL = ("bow { wavy s [0, 1, 0]; wavy t [2, 0, 1]; "
                 "edge s -> t; edge t -> t; edge s -> t; }")
UNJOINED = "bow { wavy s [2]; wavy t [1, 2]; edge t -> t; }"  # no block joins s:0
# the benchmark's diagrams not named above, and a larger 2-cycle
LOOP_2 = "bow { wavy a [2]; edge a -> a; }"
MIX_3333_33 = "bow { wavy a [3, 3, 3, 3]; wavy b [3, 3]; edge a -> b; edge b -> a; }"
CYCLE3_11 = ("bow { wavy a [1, 1]; wavy b [1, 1]; wavy c [1, 1]; "
             "edge a -> b; edge b -> c; edge c -> a; }")
CYCLE3_1x5 = ("bow { wavy a [1, 1, 1, 1, 1]; wavy b [1, 1, 1, 1, 1]; "
              "wavy c [1, 1, 1, 1, 1]; edge a -> b; edge b -> c; edge c -> a; }")
CYCLE_888 = "bow { wavy a [8, 8, 8]; wavy b [8, 8, 8]; edge a -> b; edge b -> a; }"

DEMO_DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


def _scalar_triangle(b1, b2, A=1.0, a=0.0, b=0.0):
    return TriangleData(A=np.array([[A]], dtype=complex),
                        B1=np.array([[b1]], dtype=complex),
                        B2=np.array([[b2]], dtype=complex),
                        a=np.array([[a]], dtype=complex),
                        b=np.array([[b]], dtype=complex))


# --- moment map ---------------------------------------------------------------


def _sum_order_bound(p):
    """How far the moment map may sit from the same formula by matmul:
    it sums a product's terms in its own order, and BLAS's order and fused
    multiply-adds differ, so within 1e-13 scale**2 (and 1e-13 when small)."""
    return 1e-13 * max(1.0, p.scale()) ** 2


def _moment_oracle(d, p):
    """mu1 per x-point and mu2 per segment by the module docstring's rule,
    one matmul per product, as total_space evaluated it block by block."""
    mu2 = {s: np.zeros((d.dim(s), d.dim(s)), dtype=complex) for s in d.segments()}
    for k, e in enumerate(p.edges):
        mu2[d.edge_head_segment(k)] += e.C @ e.D
        mu2[d.edge_tail_segment(k)] -= e.D @ e.C
    mu1 = []
    for name, i in d.x_points():
        t = p.triangle(name, i)
        mu2[SegmentRef(name, i)] += t.B1      # x-point at the segment's right end
        mu2[SegmentRef(name, i + 1)] -= t.B2  # x-point at the segment's left end
        mu1.append(t.B2 @ t.A - t.A @ t.B1 + t.a @ t.b)
    return mu1, mu2


# a zero-dimension segment, an interval with no x-point and a self-edge
RAGGED = "bow { wavy a [3, 1, 0, 2]; wavy b [2]; edge a -> a; edge b -> a; }"
# quiver routes: their framing interval is an object(), not a name
ROUTED = ("bow { wavy a [2, 2]; edge a -> a; }", MIX_3333_33)


@pytest.mark.parametrize("text, route", [(RAGGED, False), (SELF_2, False),
                                         (ROUTED[0], True), (ROUTED[1], True)])
def test_moment_map_matches_the_block_formula(text, route, rng):
    d = parse_bow_diagram(text)
    if route:
        d = _compiled(d).route
        assert not d.x_points()
    for power in (-3, 0, 2):
        p = unflatten_point(d, 10.0 ** power * flatten_point(d, random_point(d, rng)))
        nu = {s: complex(*rng.normal(size=2)) for s in d.segments()}
        mu1, mu2 = _moment_oracle(d, p)
        expect = np.concatenate([m.ravel() for m in mu1] + [
            (mu2[s] - nu[s] * np.eye(d.dim(s))).ravel() for s in d.segments()])
        assert maxabs(moment_residual(d, p, nu) - expect) <= _sum_order_bound(p)
        mu = total_moment_map(d, p)
        assert list(mu) == list(d.segments())
        for s in d.segments():
            assert mu[s].shape == (d.dim(s), d.dim(s))
            assert maxabs(mu[s] - mu2[s]) <= _sum_order_bound(p)


def test_moment_hand_case_single_interval():
    d = parse_bow_diagram(INTERVAL_111)
    p = TotalSpacePoint(
        {"s": (_scalar_triangle(2.0, 3.0), _scalar_triangle(5.0, 7.0))}, ())
    mu = total_moment_map(d, p)
    assert mu[SegmentRef("s", 0)][0, 0] == 2.0
    assert mu[SegmentRef("s", 1)][0, 0] == 5.0 - 3.0
    assert mu[SegmentRef("s", 2)][0, 0] == -7.0


def test_moment_hand_case_with_edge(rng):
    d = parse_bow_diagram(EMPTY_252)
    p = random_point(d, rng)
    e = p.edges[0]
    t = p.triangles["b"][0]
    mu = total_moment_map(d, p)
    assert maxabs(mu[SegmentRef("a", 0)] + e.D @ e.C) <= _sum_order_bound(p)
    assert maxabs(mu[SegmentRef("b", 0)] - (e.C @ e.D + t.B1)) < 1e-14
    assert maxabs(mu[SegmentRef("b", 1)] + t.B2) == 0.0


def test_moment_hand_case_self_edge(rng):
    # one segment with a two-way pair on itself contributes a commutator
    d = parse_bow_diagram("bow { wavy a [3]; edge a -> a; }")
    p = random_point(d, rng)
    e = p.edges[0]
    mu = total_moment_map(d, p)
    assert maxabs(mu[SegmentRef("a", 0)] - (e.C @ e.D - e.D @ e.C)) <= _sum_order_bound(p)


def _mu1(d, p):
    """moment_residual's first rows, mu1 per x-point, keyed (interval, index)."""
    res = moment_residual(d, p, {})
    out, pos = {}, 0
    for name, i in d.x_points():
        A = p.triangle(name, i).A
        out[(name, i)] = res[pos:pos + A.size].reshape(A.shape)
        pos += A.size
    return out


def _action_vector(d, p, xi):
    """The infinitesimal gauge action of xi at p, flattened: the
    combination of action_differential's columns that xi's entries give."""
    return action_differential(d, p) @ np.concatenate([xi[s].ravel() for s in d.segments()])


def test_mu1_residual_is_condition_a(rng):
    d = parse_bow_diagram(EMPTY_252)
    p = random_point(d, rng)
    t = p.triangles["b"][0]
    r = _mu1(d, p)
    assert set(r) == {("b", 0)}
    assert maxabs(r[("b", 0)] - (t.B2 @ t.A - t.A @ t.B1 + t.a @ t.b)) <= _sum_order_bound(p)


def test_moment_equivariance(rng):
    d = parse_bow_diagram(CYCLE_11)
    p = random_point(d, rng)
    g = {s: cgauss(rng, d.dim(s), d.dim(s)) + 2 * np.eye(d.dim(s))
         for s in d.segments()}
    mu = total_moment_map(d, p)
    moved = total_moment_map(d, gauge_action(d, g, p))
    for s in d.segments():
        assert maxabs(moved[s] - g[s] @ mu[s] @ np.linalg.inv(g[s])) < 1e-12
    # mu1 blocks pick up the chart factors on each side
    r = _mu1(d, p)
    rg = _mu1(d, gauge_action(d, g, p))
    for name, i in d.x_points():
        lo, hi = SegmentRef(name, i), SegmentRef(name, i + 1)
        expect = g[hi] @ r[(name, i)] @ np.linalg.inv(g[lo])
        assert maxabs(rg[(name, i)] - expect) < 1e-12


# --- flattening and derivatives -------------------------------------------------


@pytest.mark.parametrize("text", (INTERVAL_111, EMPTY_252, CYCLE_11,
                                  BARE_2, SELF_2, ZERO_PARALLEL))
def test_flatten_round_trip(text, rng):
    d = parse_bow_diagram(text)
    p = random_point(d, rng)
    vec = flatten_point(d, p)
    assert vec.size == point_dim(d)
    q = unflatten_point(d, vec)
    assert maxabs(flatten_point(d, q) - vec) == 0.0
    with pytest.raises(ValueError):
        unflatten_point(d, np.zeros(vec.size + 1))


@pytest.mark.parametrize("bad", (float("nan"), float("inf")))
def test_unflatten_rejects_a_non_finite_entry(bad, rng):
    d = parse_bow_diagram(EMPTY_252)
    vec = flatten_point(d, random_point(d, rng))
    vec[vec.size // 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        unflatten_point(d, vec)


@pytest.mark.parametrize("text, route", ((INTERVAL_111, False), (EMPTY_252, False),
                                         (CYCLE_444, True), (BARE_2, False)))
@pytest.mark.parametrize("seed", (0, 1, 7))
def test_start_draw_is_the_block_by_block_draw(text, route, seed):
    # one draw of 2 n reals gives every seed the start it had when each
    # block drew its real parts, then its imaginary parts; the solver
    # draws CYCLE_444's starts on its quiver route, and BARE_2 has n = 0
    d = parse_bow_diagram(text)
    if route:
        d = _compiled(d).route
    rng = np.random.default_rng(seed)
    blocks = _join([_cgauss(rng, rows, cols) for rows, cols in _compiled(d).layout])
    drawn = flatten_point(d, random_point(d, np.random.default_rng(seed)))
    assert drawn.tobytes() == blocks.tobytes()


def _check_jacobian_against_finite_differences(d, rng):
    p = random_point(d, rng)
    x0 = flatten_point(d, p)

    def f(x):
        return moment_residual(d, unflatten_point(d, x), {})

    jac = moment_jacobian(d, p)
    fd = finite_diff_jacobian(f, x0)
    assert jac.shape == fd.shape
    assert maxabs(jac - fd) < 1e-6 * max(1.0, maxabs(jac))
    assert np.array_equal(moment_jacobian(d, x0), jac)   # at the flat vector too


@pytest.mark.parametrize("text", (INTERVAL_111, EMPTY_252, CYCLE_11,
                                  BARE_2, SELF_2, ZERO_PARALLEL))
def test_moment_jacobian_matches_finite_differences(text, rng):
    _check_jacobian_against_finite_differences(parse_bow_diagram(text), rng)


def test_compiled_layout_cache_keeps_diagrams_apart(rng):
    # one interval name, other dims, then an edge added and taken away again
    for text in (INTERVAL_111, S222, "bow { wavy s [2, 2, 2]; edge s -> s; }", S222,
                 INTERVAL_111):
        _check_jacobian_against_finite_differences(parse_bow_diagram(text), rng)


def test_the_compiled_record_is_memoised_on_the_diagram():
    d, twin = parse_bow_diagram(S222), parse_bow_diagram(S222)
    text = repr(d)
    c = _compiled(d)
    assert _compiled(d) is c
    assert _compiled(twin) is c   # one record per shape, from _compile's cache
    assert d == twin and repr(d) == repr(twin) == text
    copy = dataclasses.replace(d)
    assert copy == d and repr(copy) == text and _compiled(copy) is c
    other = dataclasses.replace(d, seg_dims={"s": (2, 2)})
    assert other != d and _compiled(other) is not c
    assert _compiled(other).n == point_dim(parse_bow_diagram("bow { wavy s [2, 2]; }"))


def test_gauge_vector_matches_finite_differences(rng):
    d = parse_bow_diagram(EMPTY_252)
    p = random_point(d, rng)
    xi = {s: cgauss(rng, d.dim(s), d.dim(s)) for s in d.segments()}
    vec = _action_vector(d, p, xi)
    h = 1e-6
    eye = {s: np.eye(d.dim(s)) for s in d.segments()}
    plus = flatten_point(d, gauge_action(d, {s: eye[s] + h * xi[s] for s in eye}, p))
    minus = flatten_point(d, gauge_action(d, {s: eye[s] - h * xi[s] for s in eye}, p))
    assert maxabs(vec - (plus - minus) / (2 * h)) < 1e-6 * max(1.0, maxabs(vec))


def _joined(d):
    """The segments that some x-point or edge joins."""
    ends = [SegmentRef(name, i + j) for name, i in d.x_points() for j in (0, 1)]
    for k in range(len(d.bow.edges)):
        ends += [d.edge_tail_segment(k), d.edge_head_segment(k)]
    return set(ends)


def _gauge_by_blocks(d, g, p):
    """The gauge action written per x-point (triangle_gauge_action) and
    per edge (C -> g_h C g_t^-1, D -> g_t D g_h^-1)."""
    triangles = {name: tuple(triangle_gauge_action(g[SegmentRef(name, i)],
                                                   g[SegmentRef(name, i + 1)], t)
                             for i, t in enumerate(p.triangles[name]))
                 for name in d.bow.intervals}
    edges = []
    for k, e in enumerate(p.edges):
        gt, gh = g[d.edge_tail_segment(k)], g[d.edge_head_segment(k)]
        edges.append(TwoWayData(C=gh @ e.C @ np.linalg.inv(gt), D=gt @ e.D @ np.linalg.inv(gh)))
    return TotalSpacePoint(triangles, edges)


@pytest.mark.parametrize("text", (INTERVAL_111, SELF_2, ZERO_PARALLEL, UNJOINED))
def test_action_differential_columns(text, rng):
    d = parse_bow_diagram(text)
    p = random_point(d, rng)
    # g only where a block reads it; the action is the per-block one, bit for bit
    g = {s: cgauss(rng, d.dim(s), d.dim(s)) + 2 * np.eye(d.dim(s)) for s in _joined(d)}
    assert np.array_equal(flatten_point(d, gauge_action(d, g, p)),
                          flatten_point(d, _gauge_by_blocks(d, g, p)))
    mat = action_differential(d, p)
    assert mat.shape == (point_dim(d), gauge_dim(d))
    # column j is the action vector of the j-th gauge basis direction, and
    # the derivative of the per-block action along it
    h = 1e-6
    eye = {s: np.eye(d.dim(s)) for s in _joined(d)}
    j = 0
    for s in d.segments():
        for row in range(d.dim(s)):
            for col in range(d.dim(s)):
                xi = {r: np.zeros((d.dim(r), d.dim(r)), dtype=complex) for r in d.segments()}
                xi[s][row, col] = 1.0
                plus = _gauge_by_blocks(d, {r: eye[r] + h * xi[r] for r in eye}, p)
                minus = _gauge_by_blocks(d, {r: eye[r] - h * xi[r] for r in eye}, p)
                fd = (flatten_point(d, plus) - flatten_point(d, minus)) / (2 * h)
                assert maxabs(mat[:, j] - fd) < 1e-6 * max(1.0, maxabs(mat[:, j]))
                j += 1


# --- fiber solving ----------------------------------------------------------------


def test_solve_fiber_deterministic_and_reported():
    d = parse_bow_diagram(INTERVAL_111)
    lam = {"s": 0.8 + 0.3j}
    r1 = solve_fiber(d, lam, seed=5, n_starts=8)
    r2 = solve_fiber(d, lam, seed=5, n_starts=8)
    assert isinstance(r1, FiberSolveReport)
    assert maxabs(flatten_point(d, r1.point) - flatten_point(d, r2.point)) == 0.0
    assert r1.seed == 5 and r1.start_index == r2.start_index
    assert r1.open_conditions_ok
    assert r1.residual_norm < 1e-10
    nu = embed_deformation(d, lam)
    assert np.linalg.norm(moment_residual(d, r1.point, nu)) < 1e-10
    assert open_conditions_hold(d, r1.point)


def test_solve_fiber_empty_example_yields_evidence():
    d = parse_bow_diagram(EMPTY_252)
    out = solve_fiber(d, {"a": 0.0, "b": 0.0}, seed=0, n_starts=5)
    assert isinstance(out, InfeasibilityEvidence)
    assert out.n_starts == 5 and len(out.starts) == 5
    # the ambient equations are solvable here; failure is the open locus
    assert out.best_residual < 1e-8
    for diag in out.starts:
        assert diag.converged and diag.open_conditions_ok is False


def test_solve_fiber_records_why_starts_stopped(monkeypatch):
    monkeypatch.setattr(solve, "MAX_ITERS", 1)
    d = parse_bow_diagram(INTERVAL_111)
    out = solve_fiber(d, {"s": 0.0}, seed=0, n_starts=3)
    assert isinstance(out, InfeasibilityEvidence)
    assert [(s.converged, s.reason) for s in out.starts] == [(False, "budget")] * 3
    monkeypatch.undo()
    out = solve_fiber(parse_bow_diagram(EMPTY_252), {"a": 0.0, "b": 0.0}, seed=0, n_starts=10)
    assert isinstance(out, InfeasibilityEvidence)
    assert [(s.converged, s.reason) for s in out.starts] == [(True, None)] * 10


def test_solve_fiber_needs_a_start():
    with pytest.raises(ValueError, match="n_starts"):
        solve_fiber(parse_bow_diagram(INTERVAL_111), {"s": 0.0}, n_starts=0)


@pytest.mark.parametrize("lam", (float("nan"), float("inf"), complex(0.0, float("-inf"))))
def test_solve_fiber_needs_finite_lambda(lam):
    with pytest.raises(ValueError, match="finite"):
        solve_fiber(parse_bow_diagram(INTERVAL_111), {"s": lam}, n_starts=1)


def test_unknown_interval_names_are_errors():
    # a misspelt key was read as "no value", i.e. 0: the solve ran at
    # lambda = 0 and every weight was 0, so the verdict was "semistable"
    d = parse_bow_diagram(INTERVAL_111)
    with pytest.raises(ValueError, match="typo"):
        solve_fiber(d, {"typo": 5.0}, n_starts=1)
    solved = solve_fiber(d, {"s": 0.0}, seed=0, n_starts=10)
    assert isinstance(solved, FiberSolveReport)
    zero = unflatten_point(d, np.zeros(point_dim(d)))
    for p in (solved.point, zero):   # the quiver route, the bow search
        for mode in ("heuristic", "exact01"):
            with pytest.raises(ValueError, match="typo"):
                check_semistable(d, p, {"typo": 1}, mode=mode)
            with pytest.raises(ValueError, match="typo"):
                check_semistable(d, p, {"s": 1, "typo": 0}, mode=mode)
    # an interval left out still reads as 0
    assert check_semistable(d, solved.point, {}, mode="exact01").kind == "semistable"


def test_solve_fiber_on_empty_ambient_space():
    # n = 0 but mu2 has four entries: a residual of -lambda id is no crash
    d = parse_bow_diagram(BARE_2)
    out = solve_fiber(d, {"s": 1.0}, seed=0, n_starts=3)
    assert isinstance(out, InfeasibilityEvidence)
    assert out.best_residual == pytest.approx(np.sqrt(2.0))
    assert isinstance(solve_fiber(d, {"s": 0.0}, seed=0, n_starts=3), FiberSolveReport)


def _kalman_ranks_full(t: TriangleData) -> bool:
    """(S1) and (S2) as Kalman rank tests: the B1-observability matrix of
    (A, b) and the B2-controllability matrix of (A, a) have full rank,
    each cut against the whole stacked matrix."""
    powers = lambda B: [np.linalg.matrix_power(B, k) for k in range(B.shape[0])]
    obs = np.vstack([m @ P for P in powers(t.B1) for m in (t.A, t.b)])
    ctr = np.hstack([P @ m for P in powers(t.B2) for m in (t.A, t.a)])
    return rank(obs) == t.v1 and rank(ctr) == t.v2


@pytest.mark.parametrize("lam", (0.0, 5.0, 100.0, 1e4))
def test_solve_fiber_finds_open_points_at_any_lambda_scale(lam):
    # solved at lam / t and carried back, t = max(1, |lam|); at lam = 0 a
    # start with rank-1 A and a B of roundoff size is refused
    d = parse_bow_diagram(S222)
    t = max(1.0, lam)
    out = solve_fiber(d, {"s": lam}, seed=0, n_starts=10)
    assert isinstance(out, FiberSolveReport)
    residual = np.linalg.norm(moment_residual(d, out.point, embed_deformation(d, {"s": lam})))
    assert residual <= 1e-12 * t
    assert out.residual_norm == pytest.approx(residual, rel=1e-3, abs=1e-14 * t)
    assert all(_kalman_ranks_full(tri) for tri in out.point.triangles["s"])


def test_start_residuals_are_at_the_true_lambda():
    # n = 0: every start stays at the point whose mu2 is 0, 5 sqrt(2) off 5 id
    out = solve_fiber(parse_bow_diagram(BARE_2), {"s": 5.0}, seed=0, n_starts=2)
    assert isinstance(out, InfeasibilityEvidence)
    assert out.best_residual == pytest.approx(5 * np.sqrt(2.0))
    assert [s.residual_norm for s in out.starts] == pytest.approx([5 * np.sqrt(2.0)] * 2)


# Each start's (converged, open_conditions_ok, iterations, reason) per
# seed, recorded when the moment map was still evaluated block by block:
# the flat moment map moves iterates by roundoff only, not decisions.
# INTERVAL_111 takes the quiver route, the other two the bow's own starts;
# on "wavy a [2, 1]" the solve CI step reads start_index 1 at seed 0.
_O, _X = (True, True), (True, False)   # converged and open, or not open
PINNED_STARTS = {
    (INTERVAL_111, (("s", 0),)): {s: [(*_O, 4, None)] for s in range(4)},
    (EMPTY_252, (("a", 0.6 + 0.3j), ("b", -1.1 + 0.7j))): {
        0: [(*_X, k, None) for k in (8, 8, 8, 8, 7, 8, 8, 7)],
        1: [(*_X, k, None) for k in (7, 8, 7, 7, 7, 8, 7, 8)],
        2: [(*_X, k, None) for k in (7, 7, 8, 7, 8, 10, 7, 7)],
        3: [(*_X, k, None) for k in (7, 7, 7, 8, 9, 7, 8, 8)]},
    ("bow { wavy a [2, 1]; }", (("a", 0),)): {
        0: [(*_X, 7, None), (*_O, 6, None)],
        1: [(*_O, 8, None)],
        2: [(*_O, 6, None)],
        3: [(*_X, 11, None), (*_O, 5, None)]},
}


def _start_decisions(d, lam, seed, n_starts):
    out = solve_fiber(d, lam, seed=seed, n_starts=n_starts)
    if isinstance(out, InfeasibilityEvidence):
        return [(s.converged, s.open_conditions_ok, s.iterations, s.reason) for s in out.starts]
    # starts are independent, so the first k starts alone are those before start k
    before = _start_decisions(d, lam, seed, out.start_index) if out.start_index else []
    return before + [(True, out.open_conditions_ok, out.iterations, None)]


@pytest.mark.parametrize("text, lam", list(PINNED_STARTS))
def test_solver_decisions_are_pinned(text, lam):
    d = parse_bow_diagram(text)
    for seed, starts in PINNED_STARTS[text, lam].items():
        assert _start_decisions(d, dict(lam), seed, 8) == starts, seed


# --- translation -------------------------------------------------------------------


@pytest.mark.parametrize("text", (INTERVAL_111, CYCLE_11))
def test_translation_moves_between_fibers(text, rng):
    d = parse_bow_diagram(text)
    nu = {s: complex(rng.normal(), rng.normal()) for s in d.segments()}
    lam = lambda_of_nu(d, nu)
    report = solve_fiber(d, lam, seed=3, n_starts=10)
    assert isinstance(report, FiberSolveReport)
    p = report.point
    q = translate_deformation(d, p, {s: -nu[s] for s in nu})
    # q sits on the segment-granular fiber over nu itself
    assert np.linalg.norm(moment_residual(d, q, nu)) < 1e-9
    mu = total_moment_map(d, q)
    for s in d.segments():
        assert maxabs(mu[s] - nu[s] * np.eye(d.dim(s))) < 1e-9
    # conditions survive the shift, and the shift inverts exactly
    assert maxabs(np.concatenate([m.ravel() for m in _mu1(d, q).values()])) < 1e-10
    assert open_conditions_hold(d, q)
    back = translate_deformation(d, q, nu)
    assert maxabs(flatten_point(d, back) - flatten_point(d, p)) < 1e-12


# --- stability: hand cases -----------------------------------------------------------


def _identity_A_point(d):
    p = unflatten_point(d, np.zeros(point_dim(d)))
    triangles = {name: tuple(TriangleData(A=np.eye(t.v2, t.v1), B1=t.B1, B2=t.B2,
                                          a=t.a, b=t.b) for t in ts)
                 for name, ts in p.triangles.items()}
    return TotalSpacePoint(triangles, p.edges)


@pytest.mark.parametrize("name", ("s", "frame"))
def test_a_segment_key_is_no_frame_key(name):
    # span(e1) at both segments of an A = id chain is no kernel-clause
    # witness, since b = [1 0] does not kill e1, whatever the interval's name
    d = parse_bow_diagram(f"bow {{ wavy {name} [2, 2]; }}")
    zero = np.zeros((2, 2), dtype=complex)
    t = TriangleData(A=np.eye(2), B1=zero, B2=zero, a=np.zeros((2, 1)), b=np.array([[1.0, 0.0]]))
    e1 = Subspace.span(np.eye(2)[:, :1])
    g = GradedSubspace({s: e1 for s in d.segments()})
    data = bow_data(d, TotalSpacePoint({name: (t,)}, ()), {name: 1})
    assert not _is_destabilizer(g, "kernel", **data, stable=False)


@pytest.mark.parametrize("mode", ("exact01", "heuristic"))
def test_unframed_chain_is_destabilized(mode):
    # A = id, a = b = 0: the full space qualifies for the kernel clause
    d = parse_bow_diagram(INTERVAL_111)
    p = _identity_A_point(d)
    v = check_semistable(d, p, {"s": 1}, mode=mode)
    assert v.kind == "unstable" and v.clause == "kernel"
    assert v.witness.total_dim() == 3

    v = check_semistable(d, p, {"s": -1}, mode=mode)
    assert v.kind == "unstable" and v.clause == "image"
    assert v.witness.total_dim() == 0


@pytest.mark.parametrize("mode", ("exact01", "heuristic"))
def test_weights_may_be_numpy_floats_but_not_non_finite(mode):
    d = parse_bow_diagram(INTERVAL_111)
    p = _identity_A_point(d)
    for theta in (np.float32(0.5), np.float16(0.5)):
        v = check_semistable(d, p, {"s": theta}, mode=mode)
        assert v.kind == "unstable" and v.clause == "kernel"
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="^weight for 's' must be finite, got "):
            check_semistable(d, p, {"s": bad}, mode=mode)


def test_flat_vector_and_point_file_shape_errors():
    d = parse_bow_diagram(INTERVAL_111)
    n = point_dim(d)
    with pytest.raises(ValueError) as exc:
        moment_jacobian(d, np.zeros(n + 1))
    assert str(exc.value) == f"flat vector has shape ({n + 1},), expected ({n},)"
    with pytest.raises(ValueError) as exc:
        point_from_json_dict(d, {"edges": []})
    assert str(exc.value) == "point data must carry 'triangles' and 'edges' entries"


def test_zero_weight_short_circuits(rng):
    d = parse_bow_diagram(INTERVAL_111)
    p = random_point(d, rng)
    assert check_semistable(d, p, {"s": 0}).kind == "semistable"


def test_exact01_needs_small_dims(rng):
    d = parse_bow_diagram(EMPTY_252)
    with pytest.raises(Exact01Unavailable, match=r"segment a:0 has dimension 2$"):
        check_semistable(d, random_point(d, rng), {"a": 1, "b": -1}, mode="exact01")


@pytest.mark.parametrize("caller", ["quiver", "bow", "bow-stable"])
def test_unknown_mode_rejected_before_zero_weights(caller, rng):
    # zero weights short-circuit to "semistable", but only after the
    # mode has been checked
    with pytest.raises(ValueError, match="unknown mode"):
        if caller == "quiver":
            q = Quiver(("z",), ())
            zero = np.zeros((1, 1))
            p = QuiverRepPoint(q, {"z": 1}, {"z": 1}, (), (), {"z": zero}, {"z": zero})
            rep_semistable(p, {"z": 0}, mode="bogus")
        else:
            d = parse_bow_diagram(INTERVAL_111)
            check_semistable(d, random_point(d, rng), {"s": 0}, mode="bogus",
                             stable=caller == "bow-stable")


def test_solved_point_is_semistable():
    d = parse_bow_diagram(INTERVAL_111)
    report = solve_fiber(d, {"s": 1.1}, seed=2, n_starts=10)
    assert isinstance(report, FiberSolveReport)
    for theta in ({"s": 1}, {"s": -1}):
        exact = check_semistable(d, report.point, theta, mode="exact01")
        assert exact.kind == "semistable"
        # every dimension <= 1: the default mode decides too
        assert check_semistable(d, report.point, theta).kind == "semistable"


# --- stability: enumeration oracle ----------------------------------------------------


def _all_maps(d, p):
    maps = []
    for name, i in d.x_points():
        t = p.triangle(name, i)
        lo, hi = SegmentRef(name, i), SegmentRef(name, i + 1)
        maps.extend([(lo, hi, t.A), (lo, lo, t.B1), (hi, hi, t.B2)])
    for k, e in enumerate(p.edges):
        maps.append((d.edge_tail_segment(k), d.edge_head_segment(k), e.C))
        maps.append((d.edge_head_segment(k), d.edge_tail_segment(k), e.D))
    return maps


def brute_force_01_bow(d, p, nu, stable, ztol):
    """Decide bow (semi)stability by checking every graded support
    directly against the defining clauses.  Only for diagrams whose
    segments all have dimension <= 1."""
    ones = [s for s in d.segments() if d.dim(s) == 1]
    maps = _all_maps(d, p)
    xps = [(name, i, p.triangle(name, i)) for name, i in d.x_points()]

    for mask in range(1 << len(ones)):
        s = frozenset(seg for j, seg in enumerate(ones) if mask >> j & 1)
        if any(src in s and dst not in s and maxabs(m) > ztol for src, dst, m in maps):
            continue  # not a subrepresentation

        killed = all(maxabs(t.b) <= ztol
                     for name, i, t in xps if SegmentRef(name, i) in s)
        iso = all(
            (SegmentRef(name, i) in s) == (SegmentRef(name, i + 1) in s)
            and (SegmentRef(name, i) not in s or maxabs(t.A) > ztol)
            for name, i, t in xps)
        if killed and iso:
            pairing = sum(nu[seg] for seg in s)
            if pairing > 0 or (stable and s and pairing >= 0):
                return "unstable", s, "kernel"

        def out(seg):
            return d.dim(seg) == 1 and seg not in s

        contains = all(maxabs(t.a) <= ztol
                       for name, i, t in xps if out(SegmentRef(name, i + 1)))
        coiso = all(
            out(SegmentRef(name, i)) == out(SegmentRef(name, i + 1))
            and (not out(SegmentRef(name, i)) or maxabs(t.A) > ztol)
            for name, i, t in xps)
        if contains and coiso:
            copairing = sum(nu[seg] for seg in ones if seg not in s)
            if copairing < 0 or (stable and len(s) < len(ones) and copairing <= 0):
                return "unstable", s, "image"
    return "semistable", None, None


def _mask_point(d, rng, zero_prob=0.45):
    p = random_point(d, rng)

    def chop(m):
        return m * (rng.random(m.shape) > zero_prob)

    triangles = {name: tuple(TriangleData(*(chop(getattr(t, f))
                                            for f in ("A", "B1", "B2", "a", "b")))
                             for t in ts)
                 for name, ts in p.triangles.items()}
    edges = tuple(TwoWayData(chop(e.C), chop(e.D)) for e in p.edges)
    return TotalSpacePoint(triangles, edges)


def _random_01_bows(count):
    rng = np.random.default_rng(4321)
    shapes = [
        "bow { wavy a [1, 1]; }",
        "bow { wavy a [1, 1, 1]; }",
        "bow { wavy a [1, 0, 1]; }",
        "bow { wavy a [1, 1]; wavy b [1]; edge a -> b; }",
        "bow { wavy a [1, 1]; wavy b [1, 1]; edge a -> b; edge b -> a; }",
        "bow { wavy a [1]; edge a -> a; }",
        "bow { wavy a [1, 1, 1]; wavy b [1]; edge a -> b; edge b -> a; }",
    ]
    out = []
    for k in range(count):
        d = parse_bow_diagram(shapes[k % len(shapes)])
        p = _mask_point(d, rng)
        theta = {name: int(rng.integers(-2, 3)) for name in d.bow.intervals}
        out.append((d, p, theta, bool(rng.integers(0, 2))))
    return out


def _witness_support(verdict):
    return frozenset(s for s, part in verdict.witness.parts.items() if part.dim == 1)


def _assert_destabilizes(d, p, nu, stable, ztol, verdict):
    """The witness is a subrepresentation that qualifies for its clause
    and violates it, checked on the matrices directly."""
    s = _witness_support(verdict)
    assert not any(src in s and dst not in s and maxabs(m) > ztol
                   for src, dst, m in _all_maps(d, p))
    xps = [(SegmentRef(name, i), SegmentRef(name, i + 1), p.triangle(name, i))
           for name, i in d.x_points()]
    if verdict.clause == "kernel":
        part = s  # A must restrict to isomorphisms on the witness
        assert all(maxabs(t.b) <= ztol for lo, hi, t in xps if lo in s)
        val = sum(nu[seg] for seg in s)
        assert val > 0 or (stable and s and val >= 0)
    else:
        # A must induce isomorphisms on the quotient, supported off the witness
        part = {seg for seg in d.segments() if d.dim(seg) == 1 and seg not in s}
        assert all(maxabs(t.a) <= ztol for lo, hi, t in xps if hi in part)
        val = sum(nu[seg] for seg in part)
        assert val < 0 or (stable and part and val <= 0)
    assert all((lo in part) == (hi in part) and (lo not in part or maxabs(t.A) > ztol)
               for lo, hi, t in xps)


@pytest.mark.parametrize("case", range(35))
def test_exact01_matches_enumeration(case):
    from bowlab.diagrams import embed_stability

    d, p, theta, stable = _random_01_bows(35)[case]
    nu = embed_stability(d, theta)
    nu = {s: nu.get(s, 0) for s in d.segments()}
    ztol = RANK_TOL * max(1.0, p.scale())
    want, _, _ = brute_force_01_bow(d, p, nu, stable, ztol)

    got = check_semistable(d, p, theta, mode="exact01", stable=stable)
    assert got.kind == want
    if got.kind == "unstable":
        # the returned witness must itself qualify and violate
        _assert_destabilizes(d, p, nu, stable, ztol, got)

    # the lattice search, run here although every dimension is <= 1,
    # may abstain but must never contradict
    loose = _lattice_search(**bow_data(d, p, theta), stable=stable)
    if loose.kind == "unstable":
        assert want == "unstable"
        _assert_destabilizes(d, p, nu, stable, ztol, loose)
    if loose.kind == "semistable":
        assert want == "semistable"


def _reference_supports(dims, maps, kernel_maps, image_maps):
    """exact01's candidates by a plain per-mask loop: every 0/1 support
    that each nonzero map between two dimension-one keys sends into
    itself, in bitmask order over the dimension-one keys, each with the
    clauses whose frame maps it satisfies."""
    ones = [k for k, n in dims.items() if n == 1]
    arrows = [(src, dst) for src, dst, m in maps if src != dst and m.any()]
    out = []
    for mask in range(1 << len(ones)):
        support = {k for j, k in enumerate(ones) if mask >> j & 1}
        if any(src in support and dst not in support for src, dst in arrows):
            continue
        clauses = []
        if not any(key in support for key, m in kernel_maps if m.any()):
            clauses.append(("kernel", frozenset(support)))
        if all(key in support for key, m in image_maps if m.any()):
            clauses.append(("image", frozenset(support)))
        out.append(clauses)
    return out


def _enumeration_cases():
    rng = np.random.default_rng(271)
    d = parse_bow_diagram(CYCLE3_1x5)
    report = solve_fiber(d, {"a": 0.4, "b": -0.1, "c": -0.3}, seed=0, n_starts=5)
    theta = {"a": 1, "b": 1, "c": -2}
    return [(d, p, theta) for d, p, theta, _ in _random_01_bows(35)] + [
        (d, report.point, theta), (d, _mask_point(d, rng), theta)]


def test_support_masks_match_the_per_mask_loop():
    for d, p, theta in _enumeration_cases():
        data = bow_data(d, p, theta)
        maps, kernel_maps, image_maps = _snapped(
            (data["maps"], data["kernel_maps"], data["image_maps"]))
        pos, required, avoid, cover, _ = _support_bits(
            data["dims"], data["maps"], data["kernel_maps"], data["image_maps"], ())
        got = []
        for mask in itertools.chain.from_iterable(_closed_supports(required)):
            support = frozenset(k for k, j in pos.items() if mask >> j & 1)
            got.append([(clause, support) for clause, ok in
                        (("kernel", not mask & avoid), ("image", mask & cover == cover)) if ok])
        assert got == _reference_supports(data["dims"], maps, kernel_maps, image_maps)


# --- stability: candidate lattice, gauge invariance, search report ---------------------


def _unitary_gauge(d, p, rng):
    g = {s: np.linalg.qr(cgauss(rng, d.dim(s), d.dim(s)))[0] for s in d.segments()}
    return gauge_action(d, g, p)


def _lattice(d, p):
    """candidate_lattice on the structure maps of p, seeded with the
    kernel of each b (full elsewhere) and the image of each a (zero
    elsewhere), and with the B's as endos, grown in full by a stop test
    that is never true; returns (seeds, lattice)."""
    dims = {s: d.dim(s) for s in d.segments()}
    seeds, endos = [], []
    for name, i in d.x_points():
        t = p.triangle(name, i)
        lo, hi = SegmentRef(name, i), SegmentRef(name, i + 1)
        ker = {s: Subspace.full(n) for s, n in dims.items()}
        ker[lo] = kernel_basis(t.b)
        im = {s: Subspace.zero(n) for s, n in dims.items()}
        im[hi] = image_basis(t.a)
        seeds += [GradedSubspace(ker), GradedSubspace(im)]
        endos += [(lo, t.B1), (hi, t.B2)]
    return seeds, candidate_lattice(dims, _all_maps(d, p), seeds, lambda g: False)


def _same_graded(g, h):
    return all(g.dim(s) == h.dim(s) and np.linalg.norm(
        g.parts[s].projector() - h.parts[s].projector()) <= SAME_SUBSPACE_TOL for s in g.parts)


@pytest.mark.parametrize("text", ("bow { wavy s [1, 2, 1]; }", CYCLE_11,
                                  "bow { wavy a [2, 1]; wavy b [1]; edge a -> b; }"))
def test_candidate_lattice_order_dedup_and_gauge_invariance(text):
    rng = np.random.default_rng(1618)
    d = parse_bow_diagram(text)
    p = random_point(d, rng)
    seeds, lattice = _lattice(d, p)
    assert isinstance(lattice, list) and len(lattice) < LATTICE_CAP
    zero = GradedSubspace({s: Subspace.zero(d.dim(s)) for s in d.segments()})
    full = GradedSubspace({s: Subspace.full(d.dim(s)) for s in d.segments()})
    heads = [zero, full, *seeds]
    assert all(_same_graded(g, want) for g, want in zip(lattice, heads))
    for i, g in enumerate(lattice):
        assert not any(_same_graded(g, h) for h in lattice[:i])
    _, moved = _lattice(d, _unitary_gauge(d, p, rng))
    assert len(moved) == len(lattice)


def _verdict_summary(v):
    dims = None if v.witness is None else {s: part.dim for s, part in v.witness.parts.items()}
    return v.kind, v.clause, dims


@pytest.mark.parametrize("case", range(12))
def test_heuristic_verdict_is_gauge_invariant(case):
    # masking leaves exact zeros, nilpotent B's and A's that kill a part;
    # a unitary gauge turns each into roundoff, which must not change the
    # seeds or the link (A) checks
    rng = np.random.default_rng([2718, case])
    d = parse_bow_diagram(S222)
    p = _mask_point(d, rng, zero_prob=(0.3, 0.5, 0.7)[case % 3])
    moved = _unitary_gauge(d, p, rng)
    for theta, stable in itertools.product((1, -1), (False, True)):
        want = check_semistable(d, p, {"s": theta}, mode="heuristic", stable=stable)
        got = check_semistable(d, moved, {"s": theta}, mode="heuristic", stable=stable)
        assert _verdict_summary(got) == _verdict_summary(want)


def test_heuristic_reports_search_size_and_cap(rng):
    d = parse_bow_diagram(CYCLE_444)
    big = check_semistable(d, random_point(d, rng), {"a": 1, "b": -1}, mode="heuristic")
    assert big.kind == "not-falsified" and big.capped and big.searched >= LATTICE_CAP
    # a segment of dimension 2, so that the lattice is searched
    d = parse_bow_diagram("bow { wavy s [1, 2, 1]; }")
    small = check_semistable(d, random_point(d, rng), {"s": 1}, mode="heuristic")
    assert small.kind == "not-falsified" and not small.capped
    assert 0 < small.searched < LATTICE_CAP
    d = parse_bow_diagram(INTERVAL_111)
    p = random_point(d, rng)
    exact = check_semistable(d, p, {"s": 1}, mode="exact01")
    assert exact.searched > 0 and not exact.capped
    # every dimension <= 1: heuristic mode enumerates the same supports
    assert check_semistable(d, p, {"s": 1}).searched == exact.searched
    # the report is not part of the verdict's value
    assert small == StabilityVerdict("not-falsified")


# --- dimension, local maps, stabilizer -------------------------------------------------


def test_expected_dimension_hand_values():
    assert expected_smooth_dimension(parse_bow_diagram(INTERVAL_111)) == 2
    assert expected_smooth_dimension(parse_bow_diagram(EMPTY_252)) == -10
    # no x-points at all: nothing but the gauge directions to remove
    assert expected_smooth_dimension(parse_bow_diagram("bow { wavy a [2]; }")) == -8
    # two x-point blocks of 4, two edges of 2, minus twice the gauge dim 4
    assert expected_smooth_dimension(parse_bow_diagram(CYCLE_11)) == 4


def test_stabilizer_dimension():
    # the gauge dimension minus the rank of the Lie algebra action
    d = parse_bow_diagram(INTERVAL_111)
    assert rank(action_differential(d, unflatten_point(d, np.zeros(point_dim(d))))) == 0
    report = solve_fiber(d, {"s": 0.7 - 0.2j}, seed=4, n_starts=10)
    assert isinstance(report, FiberSolveReport)
    assert rank(action_differential(d, report.point)) == gauge_dim(d)


# --- symplectic pairing -----------------------------------------------------------------


def _mu1_rows(d):
    n = 0
    for name, i in d.x_points():
        dims = d.seg_dims[name]
        n += dims[i] * dims[i + 1]
    return n


def _flat_tangents_on_locus(d, p, rng, count):
    # tangents must keep condition (a) to first order or the chart
    # differencing inside the pairing leaves the triangle locus
    jac = moment_jacobian(d, p)[:_mu1_rows(d)]
    ker = kernel_basis(jac)
    assert ker.dim > 0
    return [unflatten_point(d, ker.basis @ cgauss(rng, ker.dim, 1).ravel())
            for _ in range(count)]


# rectangular triangles, so the pairing's chart tangents are RectTangents
RECT_121 = "bow { wavy a [1, 2, 1]; }"


@pytest.mark.parametrize("text, lam", ((INTERVAL_111, 1.3), (RECT_121, 0.7)),
                         ids=(INTERVAL_111, RECT_121))
def test_pairing_antisymmetric(text, lam, rng):
    d = parse_bow_diagram(text)
    report = solve_fiber(d, {name: lam for name in d.bow.intervals}, seed=6, n_starts=10)
    assert isinstance(report, FiberSolveReport)
    p = report.point
    t1, t2 = _flat_tangents_on_locus(d, p, rng, 2)
    w12 = total_symplectic_pairing(d, p, t1, t2)
    w21 = total_symplectic_pairing(d, p, t2, t1)
    assert abs(w12 + w21) < 1e-9 * max(1.0, abs(w12))


@pytest.mark.parametrize("k", (1e-3, 1e-1, 10.0, 100.0, 1e4))
def test_pairing_is_linear_in_the_tangents_scale(k, rng):
    # the chart is differenced along the unit tangent, so a long tangent
    # does not step off the triangle locus
    d = parse_bow_diagram(INTERVAL_111)
    report = solve_fiber(d, {"s": 1.3}, seed=6, n_starts=10)
    assert isinstance(report, FiberSolveReport)
    p = report.point
    t1, t2 = _flat_tangents_on_locus(d, p, rng, 2)
    w = total_symplectic_pairing(d, p, t1, t2)
    scaled = unflatten_point(d, k * flatten_point(d, t1))
    assert abs(total_symplectic_pairing(d, p, scaled, t2) / k - w) < 1e-12 * abs(w)


@pytest.mark.parametrize("text, lam", ((INTERVAL_111, 1.0 + 0.4j), (CYCLE_11, 1.0 + 0.4j),
                                       (RECT_121, 0.7)), ids=(INTERVAL_111, CYCLE_11, RECT_121))
def test_pairing_hamiltonian_identity(text, lam, rng):
    d = parse_bow_diagram(text)
    lam = {name: lam for name in d.bow.intervals}
    report = solve_fiber(d, lam, seed=7, n_starts=10)
    assert isinstance(report, FiberSolveReport)
    p = report.point
    xi = {s: cgauss(rng, d.dim(s), d.dim(s)) for s in d.segments()}
    xi_m = unflatten_point(d, _action_vector(d, p, xi))
    (t,) = _flat_tangents_on_locus(d, p, rng, 1)

    def paired(s):
        mu = total_moment_map(d, unflatten_point(d, flatten_point(d, p)
                                                 + s * flatten_point(d, t)))
        return sum(np.trace(mu[seg] @ xi[seg]) for seg in d.segments())

    h = 1e-6
    lhs = total_symplectic_pairing(d, p, xi_m, t)
    rhs = (paired(h) - paired(-h)) / (2 * h)
    assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(lhs))


# --- plumbing ------------------------------------------------------------------------


@pytest.mark.parametrize("text", (EMPTY_252, RAGGED), ids=("empty_252", "ragged"))
def test_point_json_round_trip(text, rng):
    d = parse_bow_diagram(text)
    p = random_point(d, rng)
    data = point_to_json_dict(d, p)
    q = point_from_json_dict(d, json.loads(json.dumps(data)))
    assert maxabs(flatten_point(d, q) - flatten_point(d, p)) == 0.0
    for name in d.bow.intervals:
        for t, td in zip(p.triangles[name], data["triangles"][name]):
            assert list(td) == ["v1", "v2", "A", "B1", "B2", "a", "b"]
            assert (td["v1"], td["v2"]) == (t.v1, t.v2)
    assert [list(ed) for ed in data["edges"]] == [["C", "D"]] * len(d.bow.edges)
    assert point_to_json_dict(d, q) == data


def test_demo_point_file_round_trips_byte_for_byte():
    with open(DEMO_DATA / "s222.bow", encoding="utf-8") as fh:
        d = parse_bow_diagram(fh.read())
    # a solve report, the point under its "point" key
    text = (DEMO_DATA / "s222_point.json").read_text(encoding="utf-8")
    report = json.loads(text)
    report["point"] = point_to_json_dict(d, point_from_json_dict(d, report["point"]))
    assert json.dumps(report, indent=2) + "\n" == text


@pytest.mark.parametrize("v1", (2, -1, "x"))
def test_point_file_triangle_dims_must_be_the_diagrams(v1, rng):
    d = parse_bow_diagram("bow { wavy s [1, 1]; }")
    data = point_to_json_dict(d, random_point(d, rng))
    data["triangles"]["s"][0]["v1"] = v1
    with pytest.raises(ValueError, match=re.escape(f"({v1!r}, 1), the diagram's are (1, 1)")):
        point_from_json_dict(d, data)


MISSING = object()  # the key is deleted rather than set


@pytest.mark.parametrize("path, bad, message", (
    (("edges", 0, "D", 1), [[0.0, 0.0]] * 2, "D of edge 0: row 1: expected 1 entries, got 2"),
    (("triangles", "a", 0, "B2", 1), [[0.0, 0.0]] * 3,
     "B2 of triangle 0 of interval 'a': row 1: expected 2 entries, got 3"),
    (("triangles", "a", 0, "b", 0, 0), 5, "b of triangle 0 of interval 'a': "),
    (("triangles", "a", 0, "B1"), MISSING, "triangle 0 of interval 'a' has no 'B1' entry"),
    (("triangles", "a", 0, "v2"), MISSING, "triangle 0 of interval 'a' has no 'v2' entry"),
    (("edges", 0, "C"), MISSING, "edge 0 has no 'C' entry"),
    (("triangles", "a", 0, "A", 1, 0), [0.0, float("nan")],
     "A of triangle 0 of interval 'a': matrix has non-finite entries")))
def test_point_file_names_the_block_of_a_bad_matrix(path, bad, message, rng):
    d = parse_bow_diagram("bow { wavy a [2, 2]; wavy b [1]; edge a -> b; }")
    data = point_to_json_dict(d, random_point(d, rng))
    entry = data
    for key in path[:-1]:
        entry = entry[key]
    if bad is MISSING:
        del entry[path[-1]]
    else:
        entry[path[-1]] = bad
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        point_from_json_dict(d, data)


FROZEN_POINTS = Path(__file__).resolve().parent.parent / "benchmark" / "fixtures" / "points.json"
FROZEN_TEXTS = {"INTERVAL_111": INTERVAL_111, "LOOP_2": LOOP_2, "CYCLE_11": CYCLE_11,
                "S222": S222, "MIX_3333_33": MIX_3333_33, "CYCLE_444": CYCLE_444,
                "CYCLE3_11": CYCLE3_11, "CYCLE3_1x5": CYCLE3_1x5}


def _read_by_entry(d, data) -> list:
    """The point data's blocks in flat order, each read entry by entry by
    matrix_from_json: the reference for the one-array reader."""
    ms = [td[role] for name in d.bow.intervals for td in data["triangles"][name]
          for role in ("A", "B1", "B2", "a", "b")]
    ms += [ed[role] for ed in data["edges"] for role in ("C", "D")]
    return [matrix_from_json(m, rows, cols) for m, (rows, cols) in zip(ms, _compiled(d).layout)]


def _same_blocks(got: list, want: list) -> bool:
    """Equal shapes, complex dtype and bytes, so -0.0 is not 0.0."""
    return len(got) == len(want) and all(
        g.dtype == w.dtype == complex and g.shape == w.shape and g.tobytes() == w.tobytes()
        for g, w in zip(got, want))


@pytest.mark.parametrize("name", sorted(FROZEN_TEXTS))
def test_point_reader_reads_the_frozen_points_as_entry_by_entry(name):
    d = parse_bow_diagram(FROZEN_TEXTS[name])
    data = json.loads(FROZEN_POINTS.read_text(encoding="utf-8"))[name]["point"]
    got = check_shapes(d, point_from_json_dict(d, data))
    assert _same_blocks(got, _read_by_entry(d, data))


def _interval_data(rng):
    d = parse_bow_diagram(INTERVAL_111)
    return d, json.loads(json.dumps(point_to_json_dict(d, random_point(d, rng))))


@pytest.mark.parametrize("entry", ([-0.0, -0.0], [True, False], [100000000000000000000, 0],
                                   [2 ** 63, -1], [2 ** 64 - 1, 7], [3, 0.5]))
def test_point_reader_takes_every_entry_the_entry_by_entry_reader_takes(entry, rng):
    d, data = _interval_data(rng)
    data["triangles"]["s"][0]["A"][0][0] = entry
    data["triangles"]["s"][1]["b"][0][0] = entry
    got = check_shapes(d, point_from_json_dict(d, data))
    assert _same_blocks(got, _read_by_entry(d, data))
    assert got[0][0, 0] == complex(*entry)


A0 = "A of triangle 0 of interval 's': "


@pytest.mark.parametrize("role, edit, message", (
    ("A", lambda m: m.clear(), A0 + "expected 1 rows, got 0"),
    ("A", lambda m: m[0].append([1.0, 2.0]), A0 + "row 0: expected 1 entries, got 2"),
    ("A", lambda m: m[0].__setitem__(0, [1.0]),
     A0 + "not enough values to unpack (expected 2, got 1)"),
    ("A", lambda m: m[0].__setitem__(0, [1.0, 2.0, 3.0]),
     A0 + "too many values to unpack (expected 2)"),
    ("A", lambda m: m[0].__setitem__(0, 1.0), A0 + "cannot unpack non-iterable float object"),
    ("A", lambda m: m[0].__setitem__(0, ["1", 0]),
     A0 + "complex() can't take second arg if first is a string"),
    ("A", lambda m: m[0].__setitem__(0, [None, 0]),
     A0 + "complex() first argument must be a string or a number, not 'NoneType'"),
    ("A", lambda m: m[0].__setitem__(0, [[1.0], 0]),
     A0 + "complex() first argument must be a string or a number, not 'list'"),
    ("b", lambda m: m[0].__setitem__(0, [float("nan"), 0.0]),
     "b of triangle 1 of interval 's': matrix has non-finite entries"),
    ("A", lambda m: m[0].__setitem__(0, [10 ** 400, 0]),
     A0 + "row 0, entry 0: int too large to convert to float"),
))
def test_point_reader_errors_are_the_entry_by_entry_readers(role, edit, message, rng):
    d, data = _interval_data(rng)
    edit(data["triangles"]["s"][0 if role == "A" else 1][role])
    with pytest.raises(ValueError) as exc:
        point_from_json_dict(d, data)
    assert str(exc.value) == message


def test_point_reader_reports_the_first_bad_block_in_flat_order(rng):
    d, data = _interval_data(rng)
    data["triangles"]["s"][0]["B2"][0][0] = ["x", 0]
    data["triangles"]["s"][1]["A"].clear()
    del data["triangles"]["s"][1]["b"]
    with pytest.raises(ValueError, match="^B2 of triangle 0 of interval 's': complex"):
        point_from_json_dict(d, data)


def test_point_file_rejects_triangles_of_unknown_intervals(rng):
    d = parse_bow_diagram("bow { wavy s [1, 1]; }")
    data = point_to_json_dict(d, random_point(d, rng))
    data["triangles"]["zzz"] = [{"junk": 1}]
    with pytest.raises(ValueError, match=re.escape("['zzz']")):
        point_from_json_dict(d, data)


def test_check_shapes_rejects_mismatches(rng):
    d = parse_bow_diagram(INTERVAL_111)
    p = random_point(d, rng)
    with pytest.raises(ValueError):
        check_shapes(d, TotalSpacePoint({"wrong": p.triangles["s"]}, ()))
    with pytest.raises(ValueError):
        check_shapes(d, TotalSpacePoint({"s": p.triangles["s"][:1]}, ()))
    other = parse_bow_diagram(EMPTY_252)
    with pytest.raises(ValueError):
        check_shapes(other, TotalSpacePoint(
            {"a": (), "b": random_point(other, rng).triangles["b"]}, ()))
    # right counts, one block of the wrong shape: a triangle's A, an edge's C
    good = random_point(other, rng)
    wider = random_point(parse_bow_diagram("bow { wavy a [2]; wavy b [5, 3]; edge a -> b; }"), rng)
    with pytest.raises(ValueError, match=r"^A .* shape \(3, 5\), expected \(2, 5\)"):
        check_shapes(other, TotalSpacePoint(wider.triangles, good.edges))
    with pytest.raises(ValueError, match=r"^C .* shape \(4, 2\), expected \(5, 2\)"):
        check_shapes(other, TotalSpacePoint(
            good.triangles, (TwoWayData(np.zeros((4, 2)), np.zeros((2, 4))),)))


# a point laid out for a [3, 2] read on a [2, 3]: its A is 2 x 3, not 3 x 2
WIDE_23 = "bow { wavy a [2, 3]; }"
MISSHAPEN = (r"^A from SegmentRef\(interval='a', index=0\) to "
             r"SegmentRef\(interval='a', index=1\) has shape \(2, 3\), expected \(3, 2\)$")


@pytest.mark.parametrize("call", (
    lambda d, bad, good: flatten_point(d, bad),
    lambda d, bad, good: moment_jacobian(d, bad),
    lambda d, bad, good: moment_differential(d, bad, good),
    lambda d, bad, good: moment_differential(d, good, bad),
    lambda d, bad, good: action_differential(d, bad),
    lambda d, bad, good: open_conditions_hold(d, bad),
    lambda d, bad, good: total_symplectic_pairing(d, good, bad, good),
    lambda d, bad, good: total_symplectic_pairing(d, good, good, bad),
), ids=("flatten_point", "moment_jacobian", "moment_differential_point",
        "moment_differential_tangent", "action_differential", "open_conditions_hold",
        "symplectic_pairing_first_tangent", "symplectic_pairing_second_tangent"))
def test_a_point_laid_out_for_another_diagram_is_refused(call, rng):
    d = parse_bow_diagram(WIDE_23)
    bad = random_point(parse_bow_diagram("bow { wavy a [3, 2]; }"), rng)
    with pytest.raises(ValueError, match=MISSHAPEN):
        call(d, bad, random_point(d, rng))


@pytest.fixture
def cuts(monkeypatch):
    """Calls of check_shapes and _compiled, from whichever module calls them."""
    counts = collections.Counter()
    for name in ("check_shapes", "_compiled"):
        def counted(*args, real=getattr(total_space, name), name=name):
            counts[name] += 1
            return real(*args)
        for module in (total_space, reduction):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return counts


def _cut_once(counts, call):
    counts.clear()
    out = call()
    assert counts == {"check_shapes": 1, "_compiled": 1}
    return out


@pytest.mark.parametrize("theta, clause", ((1, "kernel"), (-1, "image")))
def test_a_routed_check_cuts_the_point_once(cuts, theta, clause):
    # LOOP_2 at lambda = 0 is unstable either way; the quiver witness is
    # carried back and re-checked on the bow's blocks
    d = parse_bow_diagram(LOOP_2)
    report = solve_fiber(d, {"a": 0}, seed=0, n_starts=10)
    v = _cut_once(cuts, lambda: check_semistable(d, report.point, {"a": theta}))
    assert (v.kind, v.clause) == ("unstable", clause)


def test_exact01_gauge_fix_json_and_gauge_action_cut_the_point_once(cuts, rng):
    d = parse_bow_diagram(CYCLE_11)
    p = solve_fiber(d, {"a": 0.4, "b": -0.4}, seed=0, n_starts=10).point
    v = _cut_once(cuts, lambda: check_semistable(d, p, {"a": 1, "b": -1}, mode="exact01"))
    assert v.kind == "semistable"
    _cut_once(cuts, lambda: reduction.gauge_fix_H(d, p))
    _cut_once(cuts, lambda: point_to_json_dict(d, p))
    g = {s: np.linalg.qr(cgauss(rng, d.dim(s), d.dim(s)))[0] for s in d.segments()}
    _cut_once(cuts, lambda: gauge_action(d, g, p))


# --- the framed quiver description on the compiled record --------------------

@pytest.mark.parametrize("text", (EMPTY_252, WIDE_23))
def test_a_diagram_that_is_not_cobalanced_has_no_framed_quiver_or_route(text):
    c = _compiled(parse_bow_diagram(text))
    assert c.framed is None and c.route is None


def _assert_framed(d):
    v, w, quiver = _compiled(d).framed
    assert (dict(v), dict(w)) == framed_dims_of_cobalanced(d)
    assert quiver == underlying_quiver(d.bow)
    for dims in (v, w):   # shared by every caller, so read-only
        with pytest.raises(TypeError):
            dims[d.bow.intervals[0]] = 5


def test_loop_2_has_a_framed_quiver_and_is_solved_on_the_bow_itself(monkeypatch):
    # cobalanced but with no x-point, so there is no route to solve on
    d = parse_bow_diagram(LOOP_2)
    _assert_framed(d)
    assert _compiled(d).route is None
    solved_on = []

    def spy(diagram, *args, real=total_space._start_loop):
        solved_on.append(diagram)
        return real(diagram, *args)

    monkeypatch.setattr(total_space, "_start_loop", spy)
    # [C, D] is traceless, so lambda = 0 is the only nonempty fiber
    report = solve_fiber(d, {"a": 0}, seed=0, n_starts=10)
    assert isinstance(report, FiberSolveReport)
    assert solved_on == [d]


def test_interval_111_has_a_framed_quiver_and_a_route():
    d = parse_bow_diagram(INTERVAL_111)
    _assert_framed(d)
    route = _compiled(d).route
    framing = total_space._FRAMING
    assert route.bow.intervals == ("s", framing)
    assert route.bow.edges == ((framing, "s"), (framing, "s"))
    assert route.seg_dims == {"s": (1,), framing: (1,)}


def test_a_warm_shape_does_not_rework_its_framed_quiver(monkeypatch):
    # the routed check, the H-gauge walk, the quiver point and its inverse
    # read (v, w, quiver) off the record once the shape is compiled
    d = parse_bow_diagram(CYCLE_11)
    p = solve_fiber(d, {"a": 0.4, "b": -0.4}, seed=0, n_starts=10).point

    def calls():
        assert check_semistable(d, p, {"a": 1, "b": -1}).kind == "semistable"
        reduction.from_quiver_point(d, reduction.to_quiver_point(reduction.gauge_fix_H(d, p)))

    calls()
    counts = collections.Counter()
    for name in ("is_cobalanced", "framed_dims_of_cobalanced", "underlying_quiver"):
        def counted(*args, real=getattr(diagrams, name), name=name):
            counts[name] += 1
            return real(*args)
        for module in (diagrams, total_space, reduction):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    calls()
    assert counts == {}


def test_random_point_scale():
    d = parse_bow_diagram(INTERVAL_111)
    assert unflatten_point(d, np.zeros(point_dim(d))).scale() == 0.0
