"""Gauss-Newton and finite differences against closed-form answers, and
the open check on a fiber solve's converged starts."""

import numpy as np
import pytest

from bowlab import solve
from bowlab.diagrams import embed_deformation, parse_bow_diagram
from bowlab.solve import finite_diff_jacobian, gauss_newton
from bowlab.total_space import (
    InfeasibilityEvidence,
    _start_loop,
    open_conditions_hold,
    solve_fiber,
    unflatten_point,
)
from bowlab.triangles import check_S1, check_S2

from conftest import cgauss


def fd(residual):
    """The finite-difference Jacobian of residual, for gauss_newton."""
    return lambda z: finite_diff_jacobian(residual, z)


def test_a_singular_damped_solve_raises_the_damping(rng, monkeypatch):
    # the first damped system raises LinAlgError; the solver retries at
    # DAMPING_UP times the damping instead of giving up
    a = cgauss(rng, 3, 3)
    b = cgauss(rng, 3, 1)[:, 0]
    dampings, linalg_solve = [], np.linalg.solve

    def failing_once(m, rhs):
        dampings.append(float((m - a @ a.conj().T)[0, 0].real))
        if len(dampings) == 1:
            raise np.linalg.LinAlgError("singular matrix")
        return linalg_solve(m, rhs)

    monkeypatch.setattr(np.linalg, "solve", failing_once)
    res = gauss_newton(lambda x: a @ x - b, np.zeros(3), jacobian=lambda x: a)
    assert res.reason is None and res.residual_norm < solve.RESIDUAL_TOL
    assert dampings[:2] == pytest.approx([solve.DAMPING_INIT,
                                          solve.DAMPING_INIT * solve.DAMPING_UP])


def test_inconsistent_linear_system_stops_at_lstsq_answer(rng):
    # an inconsistent overdetermined linear residual cannot reach the
    # tolerance; the solver must stop unconverged, carrying (nearly) the
    # normal-equation minimizer as its last iterate
    a = cgauss(rng, 6, 3)
    b = cgauss(rng, 6, 1)[:, 0]
    res = gauss_newton(lambda x: a @ x - b, np.zeros(3), jacobian=lambda x: a)
    assert res.reason is not None
    expect, *_ = np.linalg.lstsq(a, b, rcond=None)
    assert np.linalg.norm(res.x - expect) < 1e-6
    assert abs(res.residual_norm - np.linalg.norm(a @ expect - b)) < 1e-8


def test_linear_consistent_system(rng):
    a = cgauss(rng, 4, 4)
    x_true = cgauss(rng, 4, 1)[:, 0]
    b = a @ x_true
    res = gauss_newton(lambda x: a @ x - b, np.zeros(4), jacobian=lambda x: a)
    assert np.linalg.norm(res.x - x_true) < 1e-8


def test_complex_square_root():
    target = 2.0 + 1.5j
    f = lambda z: z * z - target
    res = gauss_newton(f, np.array([1.0 + 0.5j]), jacobian=fd(f))
    assert abs(res.x[0] ** 2 - target) < 1e-10


def test_matrix_commutator_system(rng):
    # solve [X, A] = 0 with X constrained by an affine pin; residual is
    # polynomial, exactly the shape of the moment equations downstream
    a = cgauss(rng, 2, 2)

    def residual(x):
        m = x.reshape(2, 2)
        comm = m @ a - a @ m
        pin = m[0, 0] - 1.0  # rule out the zero solution
        return np.concatenate([comm.ravel(), [pin]])

    res = gauss_newton(residual, cgauss(rng, 4, 1)[:, 0], jacobian=fd(residual))
    m = res.x.reshape(2, 2)
    assert np.linalg.norm(m @ a - a @ m) < 1e-10


def test_no_solution_stops_with_last_iterate(monkeypatch):
    # |z^2 + 1|^2 + 1 > 0 always: residual cannot vanish
    monkeypatch.setattr(solve, "MAX_ITERS", 50)
    f = lambda z: np.array([z[0] ** 2 + 1.0, 1.0])
    res = gauss_newton(f, np.array([0.3 + 0.1j]), jacobian=fd(f))
    assert res.reason is not None
    assert res.residual_norm >= 1.0
    assert res.x.shape == (1,)


def test_budget_boundary(monkeypatch):
    # a run that converges in k steps converges on a budget of k, and on
    # k - 1 stops for the budget at its last iterate, the point the full
    # run took its k-th Jacobian at
    target = 2.0 + 1.5j
    f = lambda z: z * z - target
    seen = []

    def jacobian(z):
        seen.append(z.copy())
        return finite_diff_jacobian(f, z)

    x0 = np.array([1.0 + 0.5j])
    k = gauss_newton(f, x0, jacobian=jacobian).iterations
    assert k >= 2
    monkeypatch.setattr(solve, "MAX_ITERS", k)
    seen.clear()
    full = gauss_newton(f, x0, jacobian=jacobian)
    assert full.reason is None and full.iterations == k and len(seen) == k
    monkeypatch.setattr(solve, "MAX_ITERS", k - 1)
    short = gauss_newton(f, x0, jacobian=jacobian)
    assert short.reason == "budget" and short.iterations == k - 1
    assert np.array_equal(short.x, seen[k - 1])
    assert short.residual_norm == np.linalg.norm(f(short.x)) >= solve.RESIDUAL_TOL


def test_determinism(rng):
    a = cgauss(rng, 5, 5)
    b = cgauss(rng, 5, 1)[:, 0]
    x0 = cgauss(rng, 5, 1)[:, 0]
    f = lambda x: a @ x - b
    r1 = gauss_newton(f, x0, jacobian=fd(f))
    r2 = gauss_newton(f, x0, jacobian=fd(f))
    assert np.array_equal(r1.x, r2.x)
    assert r1.iterations == r2.iterations


def test_finite_diff_matches_analytic_polynomial(rng):
    a = cgauss(rng, 3, 3)

    def f(z):
        return np.array([z[0] ** 2 + a[0, 1] * z[1],
                         z[1] * z[2],
                         a[2, 2] * z[0] + z[2] ** 3])

    z = cgauss(rng, 3, 1)[:, 0]
    jac = finite_diff_jacobian(f, z)
    expect = np.array([
        [2 * z[0], a[0, 1], 0],
        [0, z[2], z[1]],
        [a[2, 2], 0, 3 * z[2] ** 2],
    ])
    assert np.max(np.abs(jac - expect)) < 1e-7


@pytest.mark.parametrize("m, n", ((3, 7), (7, 3)))
@pytest.mark.parametrize("damping", (1e-3, 1.0, 50.0))
def test_one_iteration_is_the_normal_equations_step(m, n, damping, rng, monkeypatch):
    # the m-space step J^H (J J^H + l I)^-1 (-r) equals (J^H J + l I)^-1 J^H (-r)
    monkeypatch.setattr(solve, "MAX_ITERS", 1)
    monkeypatch.setattr(solve, "DAMPING_INIT", damping)
    a = cgauss(rng, m, n)
    b = cgauss(rng, m, 1)[:, 0]
    x0 = cgauss(rng, n, 1)[:, 0]
    res = gauss_newton(lambda x: a @ x - b, x0, jacobian=lambda x: a)
    jh = a.conj().T
    expect = x0 + np.linalg.solve(jh @ a + damping * np.eye(n), -jh @ (a @ x0 - b))
    assert res.iterations == 1 and res.reason == "budget"
    assert np.linalg.norm(res.x - expect) < 1e-10 * max(1.0, np.linalg.norm(expect - x0))


def test_stalled_start_says_so():
    # at z = 0 the Jacobian of (z^2 + 1, 1) vanishes: no damping level moves
    f = lambda z: np.array([z[0] ** 2 + 1.0, 1.0])
    res = gauss_newton(f, np.zeros(1, dtype=complex), jacobian=fd(f))
    assert res.reason == "stalled"
    assert res.iterations == 0
    assert res.x.tolist() == [0j] and res.residual_norm == np.sqrt(2.0)


def test_open_check_rejects_a_converged_start_off_the_open_locus():
    # [2, 1] is not cobalanced, so solve_fiber runs the bow's own starts
    # and checks (S1)/(S2) on each solution.  Start 0 converges to a point
    # with b = 0, B1 = 0 and Ker A != 0, which (S1) rejects; start 1 is open
    d = parse_bow_diagram("bow { wavy a [2, 1]; }")
    first = solve_fiber(d, {"a": 0.0}, seed=0, n_starts=1)
    assert isinstance(first, InfeasibilityEvidence)
    (start,) = first.starts
    assert start.converged and start.residual_norm < 1e-10
    assert start.open_conditions_ok is False
    out = solve_fiber(d, {"a": 0.0}, seed=0)
    assert out.start_index == 1 and out.open_conditions_ok


def _reported_norm(r) -> float:
    """The residual norm gauss_newton reports at a start where r is the
    residual everywhere and the Jacobian vanishes: it stalls at once,
    unless r is already below RESIDUAL_TOL."""
    res = gauss_newton(lambda x: r, np.zeros(1, dtype=complex),
                       jacobian=lambda x: np.zeros((r.size, 1), dtype=complex))
    assert res.iterations == 0 and res.reason in (None, "stalled")
    return res.residual_norm


def test_the_residual_norm_is_np_linalg_norm_bit_for_bit(rng):
    z = np.zeros(0, dtype=complex)
    signed = np.array([0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)])
    vectors = [z, signed, signed * 1e-13]
    for scale in (1.0, 1e-170, 1e-13, 1e150):   # squares underflow, or come near overflow
        for size in (1, 3, 17, 64):
            r = cgauss(rng, size, 1)[:, 0] * scale
            vectors += [r, np.concatenate([r, signed])]
    vectors.append(cgauss(rng, 64, 1)[:, 0] * rng.choice([1e-150, 1.0, 1e150], 64))
    for r in vectors:
        assert np.float64(_reported_norm(r)).tobytes() == np.linalg.norm(r).tobytes(), r


def test_solve_fiber_needs_a_non_negative_seed():
    d = parse_bow_diagram("bow { wavy s [1, 1, 1]; }")
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        solve_fiber(d, {"s": 0.0}, seed=-1, n_starts=1)


@pytest.mark.parametrize("text, lam", (
    # the quiver route's framing moment -2 lam overflows to -inf
    ("bow { wavy a [2, 2]; }", {"a": 1e308}),
    # -(2 lam_a + 2 lam_b) is -(inf - inf): NaN
    ("bow { wavy a [2, 2]; wavy b [2, 2]; edge a -> b; }", {"a": 1.7e308, "b": -1.7e308}),
    # finite, but its modulus overflows, off the route and on it
    ("bow { wavy a [2]; wavy b [5, 2]; edge a -> b; }", {"a": complex(1.7e308, 1.7e308)}),
    ("bow { wavy a [2, 2]; }", {"a": complex(1.7e308, 1.7e308)}),
))
def test_solve_fiber_refuses_a_lambda_whose_moments_overflow(text, lam):
    with pytest.raises(ValueError, match="lam is too large"):
        solve_fiber(parse_bow_diagram(text), lam, seed=0, n_starts=2)


def _converged_starts(text, lam, n_starts):
    """The flat solutions of the bow's own converged starts, none accepted."""
    d = parse_bow_diagram(text)
    xs = []
    out = _start_loop(d, embed_deformation(d, lam), 0, n_starts, lambda _, x: xs.append(x))
    assert isinstance(out, InfeasibilityEvidence) and all(s.converged for s in out.starts)
    return [unflatten_point(d, x) for x in xs], d


@pytest.mark.parametrize("text, lam, n_starts, expected", (
    # every start converges onto the non-open locus
    ("bow { wavy a [2]; wavy b [5, 2]; edge a -> b; }", {"a": 0.6, "b": -1.1}, 8, [False] * 8),
    # start 0 is (S1)'s refusal of the CI step, start 1 is open
    ("bow { wavy a [2, 1]; }", {"a": 0.0}, 2, [False, True]),
))
def test_open_conditions_hold_decides_as_check_S1_and_check_S2(text, lam, n_starts, expected):
    points, d = _converged_starts(text, lam, n_starts)
    by_reports = [all(check_S1(t) and check_S2(t) for ts in p.triangles.values() for t in ts)
                  for p in points]
    assert [open_conditions_hold(d, p) for p in points] == by_reports == expected
