"""Triangles, their normal-form charts, and the conversion pair.

The chart conversion is validated three ways: the forward map is pinned
to its case formulas entry by entry, the composite is the identity at
1e-9 over six dimension pairs, and the forward map carries the gauge
action's vector field to the chart's.
"""

import numpy as np
import pytest

from bowlab.linalg import Subspace, snap_roundoff
from bowlab.triangles import (
    ConditionReport,
    NotATriangle,
    RectForm,
    RectTangent,
    SingularU,
    SquareForm,
    SquareTangent,
    TriangleData,
    TwoWayData,
    _cgauss,
    _well_conditioned,
    check_S1,
    check_S2,
    condition_a_residual,
    form_action_vector,
    hurtubise_symplectic_pairing,
    hurtubise_to_triangle,
    random_rect_form,
    rect_blocks,
    rect_form_from_blocks,
    triangle_gauge_action,
    triangle_moment,
    triangle_to_hurtubise,
    two_way_moment,
    two_way_symplectic_pairing,
)

from conftest import cgauss, maxabs

DIM_PAIRS = ((1, 1), (2, 2), (1, 3), (3, 1), (2, 3), (3, 2))


def random_square_form(rng, n):
    """Random chart point at v1 = v2 = n with a well-conditioned u."""
    return SquareForm(u=_well_conditioned(rng, n), h=_cgauss(rng, n, n),
                      I=_cgauss(rng, n, 1), J=_cgauss(rng, 1, n))


def _random_form(rng, v1, v2):
    if v1 == v2:
        return random_square_form(rng, v1)
    return random_rect_form(rng, v1, v2)


def _form_distance(f, g):
    if isinstance(f, SquareForm):
        return max(maxabs(f.u - g.u), maxabs(f.h - g.h),
                   maxabs(f.I - g.I), maxabs(f.J - g.J))
    return max(maxabs(f.u - g.u), maxabs(f.eta - g.eta))


# --- conditions ---------------------------------------------------------------


def test_condition_a_residual():
    t = TriangleData(A=np.eye(2), B1=np.eye(2), B2=np.eye(2),
                     a=np.zeros((2, 1)), b=np.zeros((1, 2)))
    assert condition_a_residual(t) == 0.0
    t2 = TriangleData(A=np.eye(2), B1=np.zeros((2, 2)), B2=np.eye(2),
                      a=np.zeros((2, 1)), b=np.zeros((1, 2)))
    assert condition_a_residual(t2) == pytest.approx(np.sqrt(2))


def test_S1_fails_on_shared_kernel():
    # Ker A ∩ Ker b is everything and B1 preserves it
    t = TriangleData(A=np.zeros((2, 2)), B1=np.eye(2), B2=np.zeros((2, 2)),
                     a=np.zeros((2, 1)), b=np.zeros((1, 2)))
    rep = check_S1(t)
    assert not rep.ok
    assert rep.witness.dim == 2


def test_S1_holds_when_b_separates():
    # Ker A = span(e2) but b e2 != 0
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    t = TriangleData(A=A, B1=np.eye(2), B2=np.eye(2) - A @ np.eye(2) * 0,
                     a=np.zeros((2, 1)), b=np.array([[0.0, 1.0]]))
    assert check_S1(t).ok


def test_S2_fails_without_generation():
    t = TriangleData(A=np.zeros((2, 2)), B1=np.zeros((2, 2)), B2=np.eye(2),
                     a=np.zeros((2, 1)), b=np.zeros((1, 2)))
    rep = check_S2(t)
    assert not rep.ok
    assert rep.witness.dim == 0


def test_S1_reads_a_roundoff_B1_as_zero(rng):
    # Ker A ∩ Ker b = span(e2), invariant under B1 = 0; a B1 of 1e-17 on a
    # triangle of scale 1 is roundoff, not a map that moves e2 out
    t = TriangleData(A=np.diag([1.0, 0.0]), B1=1e-17 * cgauss(rng, 2, 2),
                     B2=np.zeros((2, 2)), a=np.zeros((2, 1)), b=np.zeros((1, 2)))
    rep = check_S1(t)
    assert not rep.ok
    assert rep.witness.dim == 1


def test_S2_reads_a_roundoff_B2_as_zero(rng):
    # Im A + Im a = span(e1), invariant under B2 = 0; a B2 of 1e-17 on a
    # triangle of scale 1 is roundoff, not a map that generates the plane
    t = TriangleData(A=np.diag([1.0, 0.0]), B1=np.zeros((2, 2)),
                     B2=1e-17 * cgauss(rng, 2, 2), a=np.array([[1.0], [0.0]]),
                     b=np.zeros((1, 2)))
    rep = check_S2(t)
    assert not rep.ok
    assert rep.witness.dim == 1


def test_S2_holds_via_B2_orbit():
    # a = e1 and B2 the shift-up: e1 -> e2 generates the plane
    B2 = np.array([[0.0, 0.0], [1.0, 0.0]])
    t = TriangleData(A=np.zeros((2, 0)), B1=np.zeros((0, 0)), B2=B2,
                     a=np.array([[1.0], [0.0]]), b=np.zeros((1, 0)))
    assert check_S2(t).ok
    assert bool(ConditionReport(True)) is True
    assert bool(ConditionReport(False)) is False


def _degenerate_B(rng, n):
    kind = rng.integers(0, 5)
    if kind == 0:
        return np.diag(rng.integers(0, 2, n).astype(float))
    if kind == 1:
        return np.triu(rng.integers(0, 2, (n, n))).astype(float)
    if kind == 2:
        return np.zeros((n, n))
    if kind == 3:
        return 1e-17 * cgauss(rng, n, n)
    return cgauss(rng, n, n)


def _degenerate_triangle(rng):
    """A tuple (A, B1, B2, a, b), not necessarily satisfying (a), whose
    pieces are often rank-deficient or zero: A of low rank, each B a 0/1
    diagonal, 0/1 upper-triangular, zero, roundoff or generic, a and b
    zero or generic."""
    v1, v2 = (int(v) for v in rng.integers(0, 5, 2))
    r = int(rng.integers(0, min(v1, v2) + 1))
    A = cgauss(rng, v2, r) @ cgauss(rng, r, v1)
    a = cgauss(rng, v2, 1) * rng.integers(0, 2)
    b = cgauss(rng, 1, v1) * rng.integers(0, 2)
    return TriangleData(A=A, B1=_degenerate_B(rng, v1), B2=_degenerate_B(rng, v2), a=a, b=b)


def _rank(m):
    s = np.linalg.svd(m, compute_uv=False) if m.size else np.zeros(0)
    return int(np.sum(s > 1e-9 * s[0])) if s.size else 0


def _escapes(basis, m):
    """Size of the part of m's columns outside the span of basis."""
    return maxabs(m - basis @ (basis.conj().T @ m))


def test_open_conditions_match_kalman_rank_tests():
    # (S1) is observability of (B1, [A; b]) and (S2) controllability of
    # (B2, [A a]); both are decided here by the rank of the Kalman matrix
    # on the snapped blocks, and every failure's witness is checked
    rng = np.random.default_rng(1963)
    failures = 0
    for _ in range(500):
        t = _degenerate_triangle(rng)
        A, B1, B2, a, b = snap_roundoff([t.A, t.B1, t.B2, t.a, t.b])
        v1, v2 = t.v1, t.v2
        c, m = np.vstack([A, b]), np.hstack([A, a])
        obs = _rank(np.vstack([c] + [c @ np.linalg.matrix_power(B1, k) for k in range(1, v1)]))
        ctrl = _rank(np.hstack([m] + [np.linalg.matrix_power(B2, k) @ m for k in range(1, v2)]))
        s1, s2 = check_S1(t), check_S2(t)
        assert s1.ok == (obs == v1)
        assert s2.ok == (ctrl == v2)
        tol = 1e-8 * max(1.0, t.scale())
        if not s1.ok:
            w = Subspace(v1, s1.witness.basis).basis
            assert w.shape[1] == v1 - obs
            assert maxabs(A @ w) < tol and maxabs(b @ w) < tol
            assert _escapes(w, B1 @ w) < tol
        if not s2.ok:
            w = Subspace(v2, s2.witness.basis).basis
            assert w.shape[1] == ctrl
            assert _escapes(w, A) < tol and _escapes(w, a) < tol
            assert _escapes(w, B2 @ w) < tol
        failures += (not s1.ok) + (not s2.ok)
    assert failures > 100


# --- forward chart map ----------------------------------------------------------


def test_square_chart_formulas(rng):
    f = random_square_form(rng, 3)
    t = hurtubise_to_triangle(f)
    uinv = np.linalg.inv(f.u)
    assert maxabs(t.A - f.u) == 0.0
    assert maxabs(t.B1 - uinv @ f.h @ f.u) < 1e-12
    assert maxabs(t.B2 - (f.h - f.I @ f.J)) == 0.0
    assert maxabs(t.a - f.I) == 0.0
    assert maxabs(t.b - f.J @ f.u) < 1e-12


def test_wide_chart_formulas(rng):
    # v1 > v2: u acts on the larger side V1
    v1, v2 = 3, 1
    f = random_rect_form(rng, v1, v2)
    t = hurtubise_to_triangle(f)
    blocks = rect_blocks(f)
    uinv = np.linalg.inv(f.u)
    n, m = 3, 1
    assert maxabs(t.A - f.u[:m]) == 0.0
    assert maxabs(t.B1 - uinv @ f.eta @ f.u) < 1e-11
    assert maxabs(t.B2 - blocks["h"]) == 0.0
    assert maxabs(t.a - blocks["g"]) == 0.0
    assert maxabs(t.b - f.u[n - 1:]) == 0.0


def test_tall_chart_formulas(rng):
    # v1 < v2: all signs flip and u acts on V2
    v1, v2 = 1, 3
    f = random_rect_form(rng, v1, v2)
    t = hurtubise_to_triangle(f)
    blocks = rect_blocks(f)
    uinv = np.linalg.inv(f.u)
    n, m = 3, 1
    assert maxabs(t.A + uinv[:, :m]) < 1e-11
    assert maxabs(t.B1 + blocks["h"]) == 0.0
    assert maxabs(t.B2 + uinv @ f.eta @ f.u) < 1e-11
    assert maxabs(t.a - uinv @ np.eye(n)[:, m:m + 1]) < 1e-11
    assert maxabs(t.b + blocks["f"]) == 0.0


@pytest.mark.parametrize("v1,v2", DIM_PAIRS)
def test_chart_image_is_a_triangle(v1, v2):
    for k in range(25):
        rng = np.random.default_rng([101, v1, v2, k])
        t = hurtubise_to_triangle(_random_form(rng, v1, v2))
        assert condition_a_residual(t) < 1e-10 * max(1.0, t.scale())
        assert check_S1(t).ok
        assert check_S2(t).ok
        assert np.linalg.matrix_rank(t.A) == min(v1, v2)


def test_singular_u_rejected(rng):
    u = np.zeros((2, 2), dtype=complex)
    with pytest.raises(SingularU):
        hurtubise_to_triangle(SquareForm(u, cgauss(rng, 2, 2),
                                         cgauss(rng, 2, 1), cgauss(rng, 1, 2)))


# --- inverse and round trips ----------------------------------------------------


@pytest.mark.parametrize("v1,v2", DIM_PAIRS)
def test_round_trip_form_to_form(v1, v2):
    worst = 0.0
    for k in range(50):
        rng = np.random.default_rng([7, v1, v2, k])
        f = _random_form(rng, v1, v2)
        g = triangle_to_hurtubise(hurtubise_to_triangle(f))
        worst = max(worst, _form_distance(f, g))
    assert worst < 1e-9


@pytest.mark.parametrize("v1,v2", DIM_PAIRS)
def test_round_trip_triangle_to_triangle(v1, v2):
    for k in range(10):
        rng = np.random.default_rng([8, v1, v2, k])
        t = hurtubise_to_triangle(_random_form(rng, v1, v2))
        t2 = hurtubise_to_triangle(triangle_to_hurtubise(t))
        for name in ("A", "B1", "B2", "a", "b"):
            assert maxabs(getattr(t, name) - getattr(t2, name)) < 1e-9


def test_rejects_non_triangles():
    bad_a = TriangleData(A=np.eye(2), B1=np.eye(2), B2=2 * np.eye(2),
                         a=np.zeros((2, 1)), b=np.zeros((1, 2)))
    with pytest.raises(NotATriangle):
        triangle_to_hurtubise(bad_a)
    bad_s1 = TriangleData(A=np.zeros((2, 2)), B1=np.eye(2), B2=np.eye(2),
                          a=np.zeros((2, 1)), b=np.zeros((1, 2)))
    with pytest.raises(NotATriangle):
        triangle_to_hurtubise(bad_s1)
    # A = a = 0: Im A + Im a = 0 is invariant, a (S2) witness of dim 0;
    # condition (a) and (S1) hold, b = 1 killing no vector
    z = np.zeros((1, 1))
    bad_s2 = TriangleData(A=z, B1=z, B2=z, a=z, b=np.ones((1, 1)))
    with pytest.raises(NotATriangle) as exc:
        triangle_to_hurtubise(bad_s2)
    assert str(exc.value) == "(S2) fails: invariant subspace of dim 0 contains Im A + Im a"



def test_a_nan_condition_a_residual_is_not_a_triangle():
    # B2 A = 1e309 and a b = -1e320 overflow to inf and -inf, so the
    # residual of condition (a) is NaN, which is never zero
    t = TriangleData(A=np.full((1, 1), 10.0), B1=np.zeros((1, 1)), B2=np.full((1, 1), 1e308),
                     a=np.full((1, 1), 1e160), b=np.full((1, 1), -1e160))
    with np.errstate(all="ignore"), pytest.raises(NotATriangle) as exc:
        triangle_to_hurtubise(t)
    assert str(exc.value) == "condition (a) residual nan too large"


def test_chart_forms_are_checked():
    with pytest.raises(ValueError) as exc:
        RectForm(1, 1, np.eye(1), np.zeros((1, 1)))
    assert str(exc.value) == "RectForm requires v1 != v2; use SquareForm"
    with pytest.raises(TypeError) as exc:
        hurtubise_to_triangle(np.eye(2))
    assert str(exc.value) == "expected SquareForm or RectForm, got ndarray"

# --- gauge action -----------------------------------------------------------------


def _random_gl(rng, n):
    # shifted away from the singular locus
    return cgauss(rng, n, n) + 2.0 * np.eye(n)


@pytest.mark.parametrize("v1,v2", DIM_PAIRS)
def test_gauge_action_preserves_conditions(v1, v2):
    rng = np.random.default_rng([9, v1, v2])
    t = hurtubise_to_triangle(_random_form(rng, v1, v2))
    g1, g2 = _random_gl(rng, v1), _random_gl(rng, v2)
    moved = triangle_gauge_action(g1, g2, t)
    assert condition_a_residual(moved) < 1e-9 * max(1.0, moved.scale())
    assert check_S1(moved).ok
    assert check_S2(moved).ok
    # moment transforms by conjugation in each factor
    m1, m2 = triangle_moment(t)
    n1, n2 = triangle_moment(moved)
    assert maxabs(n1 - g1 @ m1 @ np.linalg.inv(g1)) < 1e-9
    assert maxabs(n2 - g2 @ m2 @ np.linalg.inv(g2)) < 1e-9


@pytest.mark.parametrize("v1,v2", DIM_PAIRS)
def test_conversion_is_equivariant(v1, v2):
    # chart fixing commutes with the gauge action to first order: moving
    # the triangle along (xi1, xi2) moves its chart along form_action_vector
    rng = np.random.default_rng([10, v1, v2])
    f = _random_form(rng, v1, v2)
    xi1, xi2 = cgauss(rng, v1, v1), cgauss(rng, v2, v2)
    t = hurtubise_to_triangle(f)
    h = 1e-6
    plus, minus = (triangle_to_hurtubise(
        triangle_gauge_action(np.eye(v1) + s * xi1, np.eye(v2) + s * xi2, t)) for s in (h, -h))
    expect = form_action_vector(xi1, xi2, triangle_to_hurtubise(t))
    for name in ("u", "h", "I", "J") if isinstance(f, SquareForm) else ("u", "eta"):
        fd = (getattr(plus, name) - getattr(minus, name)) / (2 * h)
        vec = getattr(expect, "d" + name)
        assert maxabs(fd - vec) < 1e-6 * max(1.0, maxabs(vec))


def test_moment_is_the_B_pair(rng):
    t = hurtubise_to_triangle(random_square_form(rng, 2))
    m1, m2 = triangle_moment(t)
    assert maxabs(m1 - t.B1) == 0.0
    assert maxabs(m2 + t.B2) == 0.0


# --- symplectic structure ----------------------------------------------------------


def _mu_paired(f, xi1, xi2):
    m1, m2 = triangle_moment(hurtubise_to_triangle(f))
    return np.trace(m1 @ xi1) + np.trace(m2 @ xi2)


def _shift_square(f, t, s):
    return SquareForm(f.u + s * t.du, f.h + s * t.dh, f.I + s * t.dI, f.J + s * t.dJ)


def _shift_rect(f, t, s):
    return RectForm(f.v1, f.v2, f.u + s * t.du, f.eta + s * t.deta)


def _random_square_tangent(rng, n):
    return SquareTangent(du=cgauss(rng, n, n), dh=cgauss(rng, n, n),
                         dI=cgauss(rng, n, 1), dJ=cgauss(rng, 1, n))


def _random_rect_tangent(rng, v1, v2):
    n, m = max(v1, v2), min(v1, v2)
    deta = rect_form_from_blocks(
        v1, v2, u=np.zeros((n, n)), h=cgauss(rng, m, m), g=cgauss(rng, m, 1),
        f=cgauss(rng, 1, m), e0=cgauss(rng, 1, 1), e=cgauss(rng, n - m - 1, 1),
    ).eta.copy()
    deta[m + 1:n, m:n - 1] = 0  # tangents carry zero in the pinned band
    return RectTangent(v1, v2, du=cgauss(rng, n, n), deta=deta)


@pytest.mark.parametrize("v1,v2", ((1, 1), (2, 2), (1, 2), (2, 1), (2, 3)))
def test_chart_hamiltonian_identity(v1, v2):
    h = 1e-6
    for k in range(15):
        rng = np.random.default_rng([11, v1, v2, k])
        xi1, xi2 = cgauss(rng, v1, v1), cgauss(rng, v2, v2)
        if v1 == v2:
            f = random_square_form(rng, v1)
            t = _random_square_tangent(rng, v1)
            shift = _shift_square
        else:
            f = random_rect_form(rng, v1, v2)
            t = _random_rect_tangent(rng, v1, v2)
            shift = _shift_rect
        lhs = hurtubise_symplectic_pairing(f, form_action_vector(xi1, xi2, f), t)
        rhs = (_mu_paired(shift(f, t, h), xi1, xi2)
               - _mu_paired(shift(f, t, -h), xi1, xi2)) / (2 * h)
        assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(lhs))


def test_pairing_antisymmetry(rng):
    f = random_square_form(rng, 2)
    t1 = _random_square_tangent(rng, 2)
    t2 = _random_square_tangent(rng, 2)
    assert abs(hurtubise_symplectic_pairing(f, t1, t2)
               + hurtubise_symplectic_pairing(f, t2, t1)) < 1e-12


# --- two-way parts ------------------------------------------------------------------


def test_two_way_moment_signs(rng):
    e = TwoWayData(C=cgauss(rng, 3, 2), D=cgauss(rng, 2, 3))
    mt, mh = two_way_moment(e)
    assert maxabs(mt + e.D @ e.C) == 0.0
    assert maxabs(mh - e.C @ e.D) == 0.0


def test_two_way_hamiltonian_identity(rng):
    h = 1e-6
    vt, vh = 2, 3
    for _ in range(10):
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


# --- chart blocks --------------------------------------------------------------------


def test_eta_block_constraints_enforced(rng):
    n = 3
    eta = np.zeros((n, n), dtype=complex)
    with pytest.raises(ValueError):
        RectForm(1, 3, cgauss(rng, n, n), eta)  # missing identity band
    good = rect_form_from_blocks(1, 3, u=cgauss(rng, n, n), h=[[1.0]],
                                 g=[[0.0]], f=[[0.0]], e0=[[0.0]], e=[[0.0]])
    bad_eta = good.eta.copy()
    bad_eta[2, 0] = 1.0  # mandated zero block
    with pytest.raises(ValueError):
        RectForm(1, 3, good.u, bad_eta)
