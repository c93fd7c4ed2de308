"""Acceptance suite: one test per shipped guarantee.

Every headline behavior of the package is pinned here end to end, at
the tolerance we advertise, from fixed seeds.  Each test prints a
single verdict line so the whole contract can be audited from one
`pytest -v tests/test_acceptance.py` run.  Finer-grained coverage
lives in the per-module suites; this file reuses their oracles instead
of duplicating them.
"""

import itertools
import json
import subprocess
import sys

import numpy as np

from bowlab.cli import _evidence_json
from bowlab.diagrams import (
    diagram_from_json_dict,
    diagram_to_json_dict,
    embed_deformation,
    embed_stability,
    lambda_of_nu,
    local_emptiness_check,
    parse_bow_diagram,
    serialize,
)
from bowlab.linalg import (
    RANK_TOL,
    Subspace,
    largest_invariant_inside,
    rank,
    smallest_invariant_containing,
)
from bowlab.quiver import (
    Quiver,
    QuiverRepPoint,
    quiver_point_from_json_dict,
    quiver_point_to_json_dict,
    rep_moment_map,
    rep_semistable,
    rep_symplectic_pairing,
)
from bowlab.reduction import SingularA, gauge_fix_H, to_quiver_point
from bowlab.solve import finite_diff_jacobian
from bowlab.total_space import (
    FiberSolveReport,
    InfeasibilityEvidence,
    action_differential,
    check_semistable,
    expected_smooth_dimension,
    flatten_point,
    gauge_action,
    gauge_dim,
    moment_jacobian,
    moment_residual,
    point_from_json_dict,
    point_to_json_dict,
    random_point,
    solve_fiber,
    total_moment_map,
    total_symplectic_pairing,
    translate_deformation,
    unflatten_point,
)
from bowlab.triangles import (
    TwoWayData,
    check_S1,
    check_S2,
    condition_a_residual,
    form_action_vector,
    hurtubise_symplectic_pairing,
    hurtubise_to_triangle,
    triangle_to_hurtubise,
    two_way_moment,
    two_way_symplectic_pairing,
)

# shared oracles and fixtures from the module suites
from conftest import cgauss, maxabs
from test_linalg import (
    _all_subspaces_p,
    _contains_p,
    _intersect_p,
    _is_invariant_p,
    _largest_invariant_inside_p,
    _smallest_invariant_containing_p,
    _span_p,
    _sum_p,
)
from test_quiver import _random_point as _random_rep_point
from test_reduction import _level_tangents, _quiver_diff
from test_total_space import (
    CYCLE_11,
    EMPTY_252,
    INTERVAL_111,
    _all_maps,
    _mask_point,
    _mu1_rows,
    _witness_support,
    brute_force_01_bow,
)
from test_triangles import (
    DIM_PAIRS,
    _form_distance,
    _mu_paired,
    _random_form,
    _random_rect_tangent,
    _random_square_tangent,
    _shift_rect,
    _shift_square,
)


def _ok(n, msg):
    print(f"criterion {n:02d}: PASS  {msg}")


def _solved(d, lam, seed, n_starts=20):
    report = solve_fiber(d, lam, seed=seed, n_starts=n_starts)
    assert isinstance(report, FiberSolveReport), \
        f"no open solution over {lam} (seed {seed})"
    return report


# --- 1: the smallest chain, end to end ------------------------------------------


def test_c01_chain_111_end_to_end():
    d = parse_bow_diagram(INTERVAL_111)
    assert expected_smooth_dimension(d) == 2

    solved = []
    for seed in range(24):
        report = solve_fiber(d, {"s": 0.0}, seed=seed, n_starts=10)
        if isinstance(report, FiberSolveReport):
            assert report.residual_norm < 1e-10
            solved.append(report.point)
    assert len(solved) >= 20

    theta = {"s": 1}
    n_stable = 0
    for p in solved:
        qp = to_quiver_point(gauge_fix_H(d, p))
        bow_v = check_semistable(d, p, theta, mode="exact01")
        rep_v = rep_semistable(qp, theta, mode="exact01")
        assert bow_v.kind == rep_v.kind
        if bow_v.kind == "semistable":
            # at lambda = 0 the image satisfies IJ = 0 and J separates
            assert maxabs(qp.I["s"] @ qp.J["s"]) < 1e-10
            assert maxabs(qp.J["s"]) > 1e-6

        strict = check_semistable(d, p, theta, mode="exact01", stable=True)
        n_stable += strict.kind == "semistable"
    assert n_stable >= 1
    _ok(1, f"[1,1,1]: dim 2, {len(solved)} solved points, checkers agree, "
           f"semistable ones have IJ = 0 and J != 0, {n_stable} stable")


# --- 2: emptiness evidence on the 2-5-2 diagram ----------------------------------


def test_c02_emptiness_evidence_252():
    d = parse_bow_diagram(EMPTY_252)
    assert local_emptiness_check(d) == []  # the counting test passes

    ev = solve_fiber(d, {"a": 0.6 + 0.3j, "b": -1.1 + 0.7j},
                     seed=0, n_starts=100)
    assert isinstance(ev, InfeasibilityEvidence)
    assert ev.n_starts == 100 and len(ev.starts) == 100
    for s in ev.starts:
        assert not (s.residual_norm < 1e-8 and s.open_conditions_ok)
    assert _evidence_json(ev)["note"] == "evidence, not proof"
    _ok(2, "2-5-2: counting test passes, 100/100 starts fail, "
           "report says 'evidence, not proof'")


# --- 3: normal-form round trips ---------------------------------------------------


def test_c03_chart_round_trips():
    for v1, v2 in DIM_PAIRS:
        for k in range(100):
            rng = np.random.default_rng([3, v1, v2, k])
            f = _random_form(rng, v1, v2)
            t = hurtubise_to_triangle(f)
            assert _form_distance(f, triangle_to_hurtubise(t)) < 1e-9
            assert maxabs(condition_a_residual(t)) < 1e-10
            assert check_S1(t) and check_S2(t)
            assert rank(t.A) == min(v1, v2)
    _ok(3, "600 chart round trips at 1e-9; images satisfy (a), (S1), "
           "(S2), full rank")


# --- 4: moment-map calculus -------------------------------------------------------

CALCULUS_SHAPES = (
    INTERVAL_111,
    EMPTY_252,
    "bow { wavy a [2]; edge a -> a; }",
    CYCLE_11,
    "bow { wavy a [2, 3]; wavy b [3]; edge a -> b; edge b -> a; }",
)


def test_c04_jacobian_and_equivariance():
    for di, text in enumerate(CALCULUS_SHAPES):
        d = parse_bow_diagram(text)
        for k in range(10):
            rng = np.random.default_rng([4, di, k])
            p = random_point(d, rng)

            def f(x):
                return moment_residual(d, unflatten_point(d, x), {})

            jac = moment_jacobian(d, p)
            fd = finite_diff_jacobian(f, flatten_point(d, p))
            assert maxabs(jac - fd) < 1e-6 * max(1.0, maxabs(jac))

            g = {s: 2 * np.eye(d.dim(s)) + cgauss(rng, d.dim(s), d.dim(s))
                 for s in d.segments()}
            mu = total_moment_map(d, p)
            moved = total_moment_map(d, gauge_action(d, g, p))
            for s in d.segments():
                conj = g[s] @ mu[s] @ np.linalg.inv(g[s])
                assert maxabs(moved[s] - conj) < 1e-10
    _ok(4, "50 points over 5 shapes: analytic Jacobian matches FD at "
           "rel 1e-6, gauge equivariance at 1e-10")


# --- 5: translation between fibers --------------------------------------------------

TRANSLATION_SHAPES = (
    INTERVAL_111,
    "bow { wavy s [2, 2, 2]; }",
    "bow { wavy s [1, 1, 1, 1]; }",
    CYCLE_11,
    "bow { wavy s [1, 2, 1]; }",
)


def test_c05_translation_between_fibers():
    for di, text in enumerate(TRANSLATION_SHAPES):
        d = parse_bow_diagram(text)
        for k in range(4):
            rng = np.random.default_rng([17, di, k])
            nu = {s: 0.5 * complex(rng.standard_normal(), rng.standard_normal())
                  for s in d.segments()}
            lam = lambda_of_nu(d, nu)
            q = _solved(d, lam, seed=k, n_starts=25).point

            p = translate_deformation(d, q, {s: -val for s, val in nu.items()})
            assert maxabs(moment_residual(d, p, nu)) < 1e-9

            r = translate_deformation(d, p, nu)
            assert maxabs(moment_residual(d, r, embed_deformation(d, lam))) < 1e-9
            assert maxabs(flatten_point(d, r) - flatten_point(d, q)) < 1e-10
    _ok(5, "20 instances: translation lands on the coarse fiber at 1e-9 "
           "and inverts at 1e-10")


# --- 6: rank properties at stable points ---------------------------------------------

STABLE_INSTANCES = (
    (INTERVAL_111, {"s": 0.9 + 0.4j}),
    ("bow { wavy s [1, 1]; }", {"s": -0.7 + 0.2j}),
    ("bow { wavy s [1, 1, 1, 1]; }", {"s": 1.1 - 0.6j}),
    (CYCLE_11, {"a": 0.8 + 0.1j, "b": -0.5 + 0.65j}),
    ("bow { wavy a [1, 1]; wavy b [1, 1]; wavy c [1, 1]; "
     "edge a -> b; edge b -> c; edge c -> a; }",
     {"a": 0.7 + 0.3j, "b": -0.4 - 0.8j, "c": 0.2 + 0.5j}),
)


def test_c06_ranks_at_stable_points():
    n_points = 0
    for text, lam in STABLE_INSTANCES:
        d = parse_bow_diagram(text)
        theta = {name: 1 for name in d.bow.intervals}
        for seed in range(4):
            p = _solved(d, lam, seed=seed).point
            strict = check_semistable(d, p, theta, mode="exact01", stable=True)
            assert strict.kind == "semistable"  # certified stable

            assert rank(action_differential(d, p)) == gauge_dim(d)
            jac = moment_jacobian(d, p)
            n1 = _mu1_rows(d)
            assert rank(jac[:n1]) == n1
            assert rank(jac) == jac.shape[0]
            n_points += 1
    assert n_points == 20
    _ok(6, "20 stable points: free action, both moment Jacobians have "
           "full row rank at RANK_TOL 1e-9")


# --- 7: Hamiltonian identities ---------------------------------------------------------


def test_c07_hamiltonian_identities():
    h = 1e-6

    for v1, v2 in ((1, 1), (2, 2), (1, 2)):
        for k in range(50):
            rng = np.random.default_rng([7, v1, v2, k])
            xi1, xi2 = cgauss(rng, v1, v1), cgauss(rng, v2, v2)
            f = _random_form(rng, v1, v2)
            if v1 == v2:
                t, shift = _random_square_tangent(rng, v1), _shift_square
            else:
                t, shift = _random_rect_tangent(rng, v1, v2), _shift_rect
            lhs = hurtubise_symplectic_pairing(f, form_action_vector(xi1, xi2, f), t)
            rhs = (_mu_paired(shift(f, t, h), xi1, xi2)
                   - _mu_paired(shift(f, t, -h), xi1, xi2)) / (2 * h)
            assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(lhs))

    vt, vh = 2, 3
    for k in range(50):
        rng = np.random.default_rng([7, 100, k])
        e = TwoWayData(C=cgauss(rng, vh, vt), D=cgauss(rng, vt, vh))
        xit, xih = cgauss(rng, vt, vt), cgauss(rng, vh, vh)
        xi_m = TwoWayData(C=xih @ e.C - e.C @ xit, D=xit @ e.D - e.D @ xih)
        t = TwoWayData(C=cgauss(rng, vh, vt), D=cgauss(rng, vt, vh))

        def paired(s):
            mt, mh = two_way_moment(TwoWayData(e.C + s * t.C, e.D + s * t.D))
            return np.trace(mt @ xit) + np.trace(mh @ xih)

        lhs = two_way_symplectic_pairing(xi_m, t)
        rhs = (paired(h) - paired(-h)) / (2 * h)
        assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(lhs))

    q = Quiver(("a", "b"), (("a", "b"), ("b", "b")))
    v, w = {"a": 2, "b": 2}, {"a": 1, "b": 2}
    for k in range(50):
        rng = np.random.default_rng([7, 200, k])
        p = _random_rep_point(rng, q, v, w)
        t = _random_rep_point(rng, q, v, w)
        xi = {i: cgauss(rng, v[i], v[i]) for i in q.vertices}
        xi_m = QuiverRepPoint(
            q, v, w,
            x=tuple(xi[h_] @ p.x[k_] - p.x[k_] @ xi[t_]
                    for k_, (t_, h_) in enumerate(q.arrows)),
            y=tuple(xi[t_] @ p.y[k_] - p.y[k_] @ xi[h_]
                    for k_, (t_, h_) in enumerate(q.arrows)),
            I={i: xi[i] @ p.I[i] for i in q.vertices},
            J={i: -p.J[i] @ xi[i] for i in q.vertices},
        )

        def rep_paired(s):
            shifted = QuiverRepPoint(
                q, v, w,
                x=tuple(p.x[k_] + s * t.x[k_] for k_ in range(len(q.arrows))),
                y=tuple(p.y[k_] + s * t.y[k_] for k_ in range(len(q.arrows))),
                I={i: p.I[i] + s * t.I[i] for i in q.vertices},
                J={i: p.J[i] + s * t.J[i] for i in q.vertices},
            )
            mu = rep_moment_map(shifted)
            return sum(np.trace(mu[i] @ xi[i]) for i in q.vertices)

        lhs = rep_symplectic_pairing(xi_m, t)
        rhs = (rep_paired(h) - rep_paired(-h)) / (2 * h)
        assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(lhs))

    _ok(7, "pairing of the action vector equals d(mu) on charts, two-way "
           "parts, and framed reps, 50 draws each at rel 1e-6")


# --- 8: checkers versus literal enumeration ----------------------------------------------


def _literal_optima_p(w, ops, p, dim):
    # scan the whole subspace lattice of F_p^dim
    best_lo = ()
    best_hi = _span_p(list(itertools.product(range(p), repeat=dim)), p, dim)
    for s in _all_subspaces_p(p, dim):
        if not _is_invariant_p(s, ops, p, dim):
            continue
        if _contains_p(w, s, p, dim):
            best_lo = _sum_p(best_lo, s, p, dim)
        if _contains_p(s, w, p, dim):
            best_hi = _intersect_p(best_hi, s, p, dim)
    return best_lo, best_hi


SMALL_01_SHAPES = (
    "bow { wavy a [1]; }",
    "bow { wavy a [1, 1]; }",
    "bow { wavy a [1, 0, 1]; }",
    "bow { wavy a [1, 1, 1, 1]; }",
    "bow { wavy a [1]; edge a -> a; }",
    "bow { wavy a [1, 1]; wavy b [1]; edge a -> b; edge b -> a; }",
    "bow { wavy a [1, 1]; wavy b [1, 1]; edge a -> b; edge b -> a; }",
    "bow { wavy a [1, 1, 1]; wavy b [1, 1, 1]; edge a -> b; }",
    "bow { wavy a [1, 1]; wavy b [1, 1]; wavy c [1, 1]; "
    "edge a -> b; edge b -> c; edge c -> a; }",
)


def test_c08_checkers_match_enumeration():
    # fixed-point iteration versus the full lattice over F_2 and F_3
    for p in (2, 3):
        for dim in (1, 2, 3):
            rng = np.random.default_rng([8, p, dim])
            for _ in range(10):
                ops = [[[int(x) for x in row]
                        for row in rng.integers(0, p, (dim, dim))]
                       for _ in range(int(rng.integers(1, 3)))]
                w = _span_p([tuple(int(x) for x in rng.integers(0, p, dim))
                             for _ in range(int(rng.integers(0, dim + 1)))],
                            p, dim)
                best_lo, best_hi = _literal_optima_p(w, ops, p, dim)
                assert _largest_invariant_inside_p(w, ops, p, dim) == best_lo
                assert _smallest_invariant_containing_p(w, ops, p, dim) == best_hi

    # float checkers on integer instances whose invariant lattice is the
    # same over F_p and over C: a nilpotent shift plus 0/1 projections
    # only ever admit the coordinate flags
    for p in (2, 3):
        for dim in (1, 2, 3):
            shift = [[1 if j == i + 1 else 0 for j in range(dim)]
                     for i in range(dim)]
            rng = np.random.default_rng([8, 50, p, dim])
            for _ in range(10):
                ops = [shift]
                if rng.integers(0, 2):
                    ops = ops + [[[int(i == j and rng.integers(0, 2))
                                   for j in range(dim)] for i in range(dim)]]
                cols = [tuple(int(x) for x in rng.integers(0, 2, dim))
                        for _ in range(int(rng.integers(0, dim + 1)))]
                w = _span_p(cols, p, dim)
                best_lo, best_hi = _literal_optima_p(w, ops, p, dim)

                wf = (Subspace.span(np.array(cols, dtype=float).T)
                      if cols else Subspace.span(np.zeros((dim, 0))))
                opsf = [np.array(op, dtype=float) for op in ops]
                assert largest_invariant_inside(wf, opsf).dim == len(best_lo)
                assert smallest_invariant_containing(wf, opsf).dim == len(best_hi)

    # the 0/1 decision procedure versus graded-support enumeration on
    # every small shape, up to six segments
    rng = np.random.default_rng(808)
    for k in range(45):
        d = parse_bow_diagram(SMALL_01_SHAPES[k % len(SMALL_01_SHAPES)])
        p = _mask_point(d, rng)
        theta = {name: int(rng.integers(-2, 3)) for name in d.bow.intervals}
        stable = bool(rng.integers(0, 2))
        nu = embed_stability(d, theta)
        nu = {s: nu.get(s, 0) for s in d.segments()}
        ztol = RANK_TOL * max(1.0, p.scale())
        want, _, _ = brute_force_01_bow(d, p, nu, stable, ztol)
        got = check_semistable(d, p, theta, mode="exact01", stable=stable)
        assert got.kind == want
        if got.kind == "unstable":
            s = _witness_support(got)
            assert not any(src in s and dst not in s and maxabs(m) > ztol
                           for src, dst, m in _all_maps(d, p))
    _ok(8, "invariant-subspace checkers match the full F_2/F_3 lattice; "
           "0/1 verdicts match graded-support enumeration on 45 instances")


# --- 9: moment and symplectic transport under reduction -------------------------------------

COBALANCED_INSTANCES = (
    (INTERVAL_111, {"s": 0.9 + 0.2j}),
    ("bow { wavy s [1, 1]; }", {"s": 0.6 - 0.4j}),
    ("bow { wavy a [2, 2]; }", {"a": 0.0}),
    ("bow { wavy a [2, 2, 2]; }", {"a": 0.75 + 0.1j}),
    (CYCLE_11, {"a": 0.5 + 0.0j, "b": -0.3 + 0.2j}),
    ("bow { wavy a [1, 1]; wavy b [1, 1]; wavy c [1, 1]; "
     "edge a -> b; edge b -> c; edge c -> a; }",
     {"a": 0.7 + 0.0j, "b": -0.2 + 0.4j, "c": -0.1 - 0.3j}),
    # no x-points: the trace of the cycle moment forces lam_b = -lam_a
    ("bow { wavy a [2]; wavy b [2]; edge a -> b; edge b -> a; }",
     {"a": 0.45 + 0.3j, "b": -0.45 - 0.3j}),
    ("bow { wavy a [2]; edge a -> a; }", {"a": 0.0}),
    ("bow { wavy a [1]; edge a -> a; }", {"a": 0.0}),
    ("bow { wavy a [2, 2]; wavy b [1]; edge a -> b; edge b -> a; }",
     {"a": 0.3 - 0.5j, "b": 0.8}),
)


def _unit_level_tangents(d, p, rng, count):
    # unit flat norm keeps the quadratic off-level drift inside the
    # gauge-fix residual gate when stepping p + h*t
    out = []
    for t in _level_tangents(d, p, rng, count):
        vec = flatten_point(d, t)
        out.append(unflatten_point(d, vec / np.linalg.norm(vec)))
    return out


def _chart_points(d, lam, count):
    # the reduction is only defined where every A inverts; some fibers
    # (e.g. [2,2,2]) carry a whole singular-A component the solver hits,
    # so scan seeds and keep the first points inside the chart
    picked = []
    for seed in range(12):
        report = solve_fiber(d, lam, seed=seed, n_starts=20)
        if not isinstance(report, FiberSolveReport):
            continue
        try:
            gauge_fix_H(d, report.point)
        except SingularA:
            continue
        picked.append(report.point)
        if len(picked) == count:
            return picked
    raise AssertionError(f"fewer than {count} chart points over {lam}")


def test_c09_reduction_transport():
    n_checked = 0
    for idx, (text, lam) in enumerate(COBALANCED_INSTANCES):
        d = parse_bow_diagram(text)
        for seed, p in enumerate(_chart_points(d, lam, 3)):
            qp = to_quiver_point(gauge_fix_H(d, p))
            mu = rep_moment_map(qp)
            for i in qp.quiver.vertices:
                target = complex(lam[i]) * np.eye(qp.v[i])
                assert maxabs(mu[i] - target) < 1e-9

            rng = np.random.default_rng([31, idx, seed])
            t1, t2 = _unit_level_tangents(d, p, rng, 2)
            down = total_symplectic_pairing(d, p, t1, t2)
            up = rep_symplectic_pairing(_quiver_diff(d, p, t1, h=1e-6),
                                        _quiver_diff(d, p, t2, h=1e-6))
            assert abs(up - down) < 1e-6 * max(1.0, abs(down))
            n_checked += 1
    assert n_checked == 30
    _ok(9, "30 cobalanced instances: reduced moment sits at lam to 1e-9, "
           "pairings transport at rel 1e-6")


# --- 10: determinism and serialization ------------------------------------------------------


def test_c10_determinism_and_serialization(tmp_path):
    f = tmp_path / "chain.bow"
    f.write_text(serialize(parse_bow_diagram(INTERVAL_111)), encoding="utf-8")
    argv = [sys.executable, "-m", "bowlab.cli",
            "solve", str(f), "--lambda", "0", "--seed", "5", "--starts", "6"]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    json.loads(first.stdout)  # and it is JSON

    for text in (INTERVAL_111, EMPTY_252, CYCLE_11,
                 "bow { wavy a [2]; edge a -> a; }"):
        d = parse_bow_diagram(text)
        assert parse_bow_diagram(serialize(d)) == d
        assert diagram_from_json_dict(
            json.loads(json.dumps(diagram_to_json_dict(d)))) == d

        rng = np.random.default_rng([10, hash(text) % 1000])
        p = random_point(d, rng)
        q = point_from_json_dict(
            d, json.loads(json.dumps(point_to_json_dict(d, p))))
        assert maxabs(flatten_point(d, q) - flatten_point(d, p)) == 0.0

    d = parse_bow_diagram(INTERVAL_111)
    qp = to_quiver_point(gauge_fix_H(d, _solved(d, {"s": 0.0}, seed=1).point))
    back = quiver_point_from_json_dict(
        json.loads(json.dumps(quiver_point_to_json_dict(qp))))
    assert all(maxabs(a - b) == 0.0 for a, b in zip(back.x, qp.x))
    assert all(maxabs(back.I[i] - qp.I[i]) == 0.0 for i in qp.quiver.vertices)
    _ok(10, "solver CLI output is byte-identical at a fixed seed; text and "
            "JSON round trips are exact")
