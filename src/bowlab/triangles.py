"""Triangles, their normal-form chart, and two-way edge data.

A triangle on the pair (V1, V2) is a tuple (A, B1, B2, a, b) with

    B2 A - A B1 + a b = 0                                  (a)

together with two open conditions: no nonzero B1-invariant subspace
inside Ker A ∩ Ker b (S1), and no proper B2-invariant subspace
containing Im A + Im a (S2).  Such tuples form a single gauge orbit
over a normal-form chart:

    v1 = v2 = n:  (u, h, I, J), u invertible,
                  triangle = (u, u^-1 h u, h - IJ, I, J u)
    v1 != v2:     (u, eta), u invertible n x n (n = max, m = min),
                  eta constrained to the block shape

                      [ h | 0  | g  ]      rows    m / 1 / n-m-1
                      [ f | 0  | e0 ]      columns m / n-m-1 / 1
                      [ 0 | id | e  ]

with the middle band deleted when n - m = 1.  Conversion back out of a
triangle is exact linear algebra: the chart equations pin u column by
column (Krylov chains of a or b), and the remaining free blocks solve a
single square linear system.

TriangleData and TwoWayData check every input; the package skips those
checks (linalg._trusted) only on blocks it has just built and checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    Subspace,
    _complement,
    _is_zero_residual,
    _largest_entry,
    _sweep,
    as_matrix,
    image_basis,
    rank,
    snap_roundoff,
)

__all__ = [
    "TriangleData",
    "SquareForm",
    "RectForm",
    "SquareTangent",
    "RectTangent",
    "TwoWayData",
    "ConditionReport",
    "SingularU",
    "NotATriangle",
    "GaugeFixFailed",
    "condition_a_residual",
    "check_S1",
    "check_S2",
    "hurtubise_to_triangle",
    "triangle_to_hurtubise",
    "triangle_moment",
    "triangle_gauge_action",
    "form_action_vector",
    "hurtubise_symplectic_pairing",
    "two_way_moment",
    "two_way_symplectic_pairing",
    "rect_blocks",
    "rect_form_from_blocks",
    "random_rect_form",
]


class SingularU(np.linalg.LinAlgError):
    """The chart matrix u is numerically singular."""


class NotATriangle(ValueError):
    """Input failed condition (a), (S1), or (S2)."""


class GaugeFixFailed(np.linalg.LinAlgError):
    """The chart-recovery linear system is numerically singular."""


@dataclass(frozen=True)
class TriangleData:
    """Triangle (A, B1, B2, a, b); dims read from A (v2 x v1)."""

    A: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = as_matrix(self.A)
        v2, v1 = A.shape
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B1", as_matrix(self.B1, v1, v1))
        object.__setattr__(self, "B2", as_matrix(self.B2, v2, v2))
        object.__setattr__(self, "a", as_matrix(self.a, v2, 1))
        object.__setattr__(self, "b", as_matrix(self.b, 1, v1))

    @property
    def v1(self) -> int:
        return self.A.shape[1]

    @property
    def v2(self) -> int:
        return self.A.shape[0]

    def scale(self) -> float:
        return _largest_entry(self.A, self.B1, self.B2, self.a, self.b)


def _eta_spans(n: int, m: int):
    """Row and column block index ranges of the constrained matrix."""
    rows = (slice(0, m), slice(m, m + 1), slice(m + 1, n))
    cols = (slice(0, m), slice(m, n - 1), slice(n - 1, n))
    return rows, cols


def rect_form_from_blocks(v1: int, v2: int, u, h, g, f, e0, e) -> "RectForm":
    """Assemble eta from its free blocks; fixed blocks written exactly."""
    n, m = max(v1, v2), min(v1, v2)
    rows, cols = _eta_spans(n, m)
    eta = np.zeros((n, n), dtype=complex)
    eta[rows[0], cols[0]] = as_matrix(h, m, m)
    eta[rows[0], cols[2]] = as_matrix(g, m, 1)
    eta[rows[1], cols[0]] = as_matrix(f, 1, m)
    eta[rows[1], cols[2]] = as_matrix(e0, 1, 1)
    eta[rows[2], cols[1]] = np.eye(n - m - 1)
    eta[rows[2], cols[2]] = as_matrix(e, n - m - 1, 1)
    return RectForm(v1, v2, u, eta)


def rect_blocks(form: "RectForm") -> dict:
    """Free blocks of eta: keys h, g, f, e0, e."""
    n, m = form.n, form.m
    rows, cols = _eta_spans(n, m)
    return {
        "h": form.eta[rows[0], cols[0]],
        "g": form.eta[rows[0], cols[2]],
        "f": form.eta[rows[1], cols[0]],
        "e0": form.eta[rows[1], cols[2]],
        "e": form.eta[rows[2], cols[2]],
    }


def _check_eta_fixed(eta: np.ndarray, n: int, m: int, what: str, identity: bool):
    rows, cols = _eta_spans(n, m)
    mid = eta[rows[2], cols[1]]
    want = np.eye(n - m - 1) if identity else np.zeros((n - m - 1, n - m - 1))
    if not np.array_equal(mid, want):
        raise ValueError(f"{what}: the band block must be {'id' if identity else '0'} exactly")
    zero_slots = [eta[rows[0], cols[1]], eta[rows[1], cols[1]], eta[rows[2], cols[0]]]
    for block in zero_slots:
        if block.size and np.any(block != 0):
            raise ValueError(f"{what}: mandated zero block of eta is not exactly zero")


@dataclass(frozen=True)
class RectForm:
    """Chart point (u, eta) for v1 != v2; n = max(v1, v2), m = min."""

    v1: int
    v2: int
    u: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        if self.v1 == self.v2:
            raise ValueError("RectForm requires v1 != v2; use SquareForm")
        n = max(self.v1, self.v2)
        object.__setattr__(self, "u", as_matrix(self.u, n, n))
        object.__setattr__(self, "eta", as_matrix(self.eta, n, n))
        _check_eta_fixed(self.eta, n, self.m, "RectForm", identity=True)

    @property
    def n(self) -> int:
        return max(self.v1, self.v2)

    @property
    def m(self) -> int:
        return min(self.v1, self.v2)


@dataclass(frozen=True)
class SquareForm:
    """Chart point (u, h, I, J) for v1 = v2 = n."""

    u: np.ndarray
    h: np.ndarray
    I: np.ndarray
    J: np.ndarray

    def __post_init__(self):
        u = as_matrix(self.u)
        n = u.shape[0]
        object.__setattr__(self, "u", as_matrix(u, n, n))
        object.__setattr__(self, "h", as_matrix(self.h, n, n))
        object.__setattr__(self, "I", as_matrix(self.I, n, 1))
        object.__setattr__(self, "J", as_matrix(self.J, 1, n))

    @property
    def n(self) -> int:
        return self.u.shape[0]


@dataclass(frozen=True)
class SquareTangent:
    du: np.ndarray
    dh: np.ndarray
    dI: np.ndarray
    dJ: np.ndarray

    def __post_init__(self):
        du = as_matrix(self.du)
        n = du.shape[0]
        object.__setattr__(self, "du", as_matrix(du, n, n))
        object.__setattr__(self, "dh", as_matrix(self.dh, n, n))
        object.__setattr__(self, "dI", as_matrix(self.dI, n, 1))
        object.__setattr__(self, "dJ", as_matrix(self.dJ, 1, n))


@dataclass(frozen=True)
class RectTangent:
    """Tangent (du, deta); deta vanishes on every fixed block of eta."""

    v1: int
    v2: int
    du: np.ndarray
    deta: np.ndarray

    def __post_init__(self):
        n, m = max(self.v1, self.v2), min(self.v1, self.v2)
        object.__setattr__(self, "du", as_matrix(self.du, n, n))
        object.__setattr__(self, "deta", as_matrix(self.deta, n, n))
        _check_eta_fixed(self.deta, n, m, "RectTangent", identity=False)


@dataclass(frozen=True)
class TwoWayData:
    """Edge pair C: V_t -> V_h and D: V_h -> V_t."""

    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        C = as_matrix(self.C)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", as_matrix(self.D, C.shape[1], C.shape[0]))


def _cgauss(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return (re + 1j * im) / np.sqrt(2.0)


def _well_conditioned(rng: np.random.Generator, n: int) -> np.ndarray:
    # resample until cond(u) is modest so round-trips stay near machine precision
    while True:
        u = _cgauss(rng, n, n)
        if n == 0 or np.linalg.cond(u) < 8.0:
            return u


def random_rect_form(rng: np.random.Generator, v1: int, v2: int) -> "RectForm":
    """Random chart point at v1 != v2 with a well-conditioned u."""
    n, m = max(v1, v2), min(v1, v2)
    return rect_form_from_blocks(
        v1, v2,
        u=_well_conditioned(rng, n),
        h=_cgauss(rng, m, m),
        g=_cgauss(rng, m, 1),
        f=_cgauss(rng, 1, m),
        e0=_cgauss(rng, 1, 1),
        e=_cgauss(rng, n - m - 1, 1),
    )


@dataclass(frozen=True)
class ConditionReport:
    """Boolean verdict plus the offending subspace when it fails."""

    ok: bool
    witness: Subspace | None = None

    def __bool__(self) -> bool:
        return self.ok


def condition_a_residual(t: TriangleData) -> float:
    """Frobenius norm of B2 A - A B1 + a b."""
    return float(np.linalg.norm(t.B2 @ t.A - t.A @ t.B1 + t.a @ t.b))


def check_S1(t: TriangleData) -> ConditionReport:
    """No nonzero B1-invariant subspace inside Ker A ∩ Ker b: the pair
    (B1, [A; b]) is observable.  The witness of a failure is the
    complement of the sweep of Im [A; b]^H under B1^H.

    A block that is roundoff on the triangle's scale is made exactly
    zero first, so that no rank reads it as full; (S2) likewise."""
    A, B1, _, _, b = snap_roundoff([t.A, t.B1, t.B2, t.a, t.b])
    seen = _observed(A, B1, b)
    if seen.dim == t.v1:
        return ConditionReport(True)
    return ConditionReport(False, _complement(seen))


def check_S2(t: TriangleData) -> ConditionReport:
    """No proper B2-invariant subspace containing Im A + Im a: the pair
    (B2, [A a]) is controllable.  The witness of a failure is the sweep
    of Im [A a] under B2."""
    A, _, B2, a, _ = snap_roundoff([t.A, t.B1, t.B2, t.a, t.b])
    reached = _reached(A, B2, a)
    if reached.dim == t.v2:
        return ConditionReport(True)
    return ConditionReport(False, reached)


def _observed(A, B1, b) -> Subspace:
    """(S1)'s sweep: Im [A; b]^H swept under B1^H, all of V1 exactly when (S1) holds."""
    return _sweep(image_basis(np.vstack([A, b]).conj().T), [B1.conj().T])


def _reached(A, B2, a) -> Subspace:
    """(S2)'s sweep: Im [A a] swept under B2, all of V2 exactly when (S2) holds."""
    return _sweep(image_basis(np.hstack([A, a])), [B2])


def _open(blocks) -> bool:
    """check_S1(t) and check_S2(t) for the triangle t of the blocks
    (A, B1, B2, a, b), whose shapes the caller has checked: the sweeps'
    dimensions alone, with no witness built for a failure."""
    A, B1, B2, a, b = snap_roundoff(blocks)
    return (_observed(A, B1, b).dim == A.shape[1]
            and _reached(A, B2, a).dim == A.shape[0])


def _invert_or_raise(u: np.ndarray, exc_type, what: str) -> np.ndarray:
    n = u.shape[0]
    if n == 0:
        return u.copy()
    if rank(u) < n:
        raise exc_type(f"{what} is numerically singular")
    return np.linalg.inv(u)


def hurtubise_to_triangle(f) -> TriangleData:
    """Case formulas of the chart, producing a genuine triangle.

    v1 = v2:  (u, u^-1 h u, h - IJ, I, J u)
    v1 > v2:  ([id 0 0] u, u^-1 eta u, h, g, [0 0 1] u)
    v1 < v2:  (-u^-1 [id;0;0], -h, -u^-1 eta u, u^-1 [0;1;0], -f)
    """
    if isinstance(f, SquareForm):
        uinv = _invert_or_raise(f.u, SingularU, "u")
        return TriangleData(
            A=f.u,
            B1=uinv @ f.h @ f.u,
            B2=f.h - f.I @ f.J,
            a=f.I,
            b=f.J @ f.u,
        )
    if not isinstance(f, RectForm):
        raise TypeError(f"expected SquareForm or RectForm, got {type(f).__name__}")
    n, m = f.n, f.m
    uinv = _invert_or_raise(f.u, SingularU, "u")
    blocks = rect_blocks(f)
    if f.v1 > f.v2:
        return TriangleData(
            A=f.u[:m, :],
            B1=uinv @ f.eta @ f.u,
            B2=blocks["h"],
            a=blocks["g"],
            b=f.u[n - 1:n, :],
        )
    return TriangleData(
        A=-uinv[:, :m],
        B1=-blocks["h"],
        B2=-uinv @ f.eta @ f.u,
        a=uinv[:, m:m + 1],
        b=-blocks["f"],
    )


def _require_triangle(t: TriangleData):
    res = condition_a_residual(t)
    if not _is_zero_residual(res, t.scale()):
        raise NotATriangle(f"condition (a) residual {res:.3e} too large")
    s1 = check_S1(t)
    if not s1:
        raise NotATriangle(f"(S1) fails: invariant subspace of dim {s1.witness.dim} "
                           "inside Ker A ∩ Ker b")
    s2 = check_S2(t)
    if not s2:
        raise NotATriangle(f"(S2) fails: invariant subspace of dim {s2.witness.dim} "
                           "contains Im A + Im a")


def triangle_to_hurtubise(t: TriangleData):
    """Invert the chart on a verified triangle.

    The square case is direct algebra.  In the rectangular cases the
    chart equations determine u exactly: one side of u is A (or -A),
    the next column/row is a (or b), and the middle band is the Krylov
    chain of a under -B2 (of b under B1).  The free eta blocks then
    satisfy one square linear system.  (S1)/(S2) make these systems
    invertible in exact arithmetic, so a singular system means the
    input was not a triangle to working precision.
    """
    _require_triangle(t)
    v1, v2 = t.v1, t.v2

    if v1 == v2:
        uinv = _invert_or_raise(t.A, GaugeFixFailed, "A")
        return SquareForm(u=t.A, h=t.A @ t.B1 @ uinv, I=t.a, J=t.b @ uinv)

    if v1 < v2:
        n, m = v2, v1
        cols = [-t.A] if m else []
        vec = t.a
        chain = [vec]
        for _ in range(n - m - 1):
            vec = -t.B2 @ vec
            chain.append(vec)
        w = np.hstack(cols + chain)
        if rank(w) < n:
            raise GaugeFixFailed("Krylov completion of u is numerically singular")
        z = np.linalg.solve(w, -t.B2 @ w[:, n - 1:n])
        return rect_form_from_blocks(
            v1, v2,
            u=np.linalg.inv(w),
            h=-t.B1, g=z[:m], f=-t.b, e0=z[m:m + 1], e=z[m + 1:],
        )

    n, m = v1, v2
    q = n - m - 1
    kappa = [t.b]
    for _ in range(q + 1):
        kappa.append(kappa[-1] @ t.B1)
    M = np.hstack(([t.A.T] if m else []) + [k.T for k in kappa[:q + 1]])
    if rank(M) < n:
        raise GaugeFixFailed("row completion of u is numerically singular")
    z = np.linalg.solve(M, kappa[q + 1].T)
    fvec = z[:m].T
    e0 = z[m:m + 1]
    evec = z[m + 1:]
    rows: list = []
    prev = t.b
    for k in range(q - 1, -1, -1):
        prev = prev @ t.B1 - evec[k, 0] * t.b
        rows.insert(0, prev)
    u = np.vstack([t.A] + rows + [t.b])
    return rect_form_from_blocks(v1, v2, u=u, h=t.B2, g=t.a, f=fvec, e0=e0, e=evec)


def triangle_moment(t: TriangleData) -> tuple:
    """Moment pair (B1, -B2)."""
    return (t.B1.copy(), -t.B2)


def triangle_gauge_action(g1, g2, t: TriangleData) -> TriangleData:
    """(A, B1, B2, a, b) -> (g2 A g1^-1, g1 B1 g1^-1, g2 B2 g2^-1, b g1^-1, g2 a)."""
    g1 = as_matrix(g1, t.v1, t.v1)
    g2 = as_matrix(g2, t.v2, t.v2)
    g1i = np.linalg.inv(g1)
    g2i = np.linalg.inv(g2)
    return TriangleData(
        A=g2 @ t.A @ g1i,
        B1=g1 @ t.B1 @ g1i,
        B2=g2 @ t.B2 @ g2i,
        a=g2 @ t.a,
        b=t.b @ g1i,
    )


def form_action_vector(xi1, xi2, f):
    """Vector field of the chart action at f for Lie element (xi1, xi2)."""
    if isinstance(f, SquareForm):
        n = f.n
        xi1 = as_matrix(xi1, n, n)
        xi2 = as_matrix(xi2, n, n)
        return SquareTangent(du=xi2 @ f.u - f.u @ xi1,
                             dh=xi2 @ f.h - f.h @ xi2,
                             dI=xi2 @ f.I, dJ=-f.J @ xi2)
    xin, xim = (xi1, xi2) if f.v1 > f.v2 else (xi2, xi1)
    xin = as_matrix(xin, f.n, f.n)
    xim = as_matrix(xim, f.m, f.m)
    xihat = np.zeros((f.n, f.n), dtype=complex)
    xihat[:f.m, :f.m] = xim
    return RectTangent(f.v1, f.v2,
                       du=xihat @ f.u - f.u @ xin,
                       deta=xihat @ f.eta - f.eta @ xihat)


def hurtubise_symplectic_pairing(f, t1, t2) -> complex:
    """Chart symplectic form on two tangents.

    Rectangular: tr(deta ∧ du u^-1 + eta du u^-1 ∧ du u^-1).
    Square: same with h in place of eta, plus tr(dI ∧ dJ).
    """
    uinv = np.linalg.inv(f.u)
    x1 = t1.du @ uinv
    x2 = t2.du @ uinv
    if isinstance(f, SquareForm):
        val = np.trace(t1.dh @ x2) - np.trace(t2.dh @ x1)
        val += np.trace(f.h @ (x1 @ x2 - x2 @ x1))
        val += np.trace(t1.dI @ t2.dJ) - np.trace(t2.dI @ t1.dJ)
        return complex(val)
    val = np.trace(t1.deta @ x2) - np.trace(t2.deta @ x1)
    val += np.trace(f.eta @ (x1 @ x2 - x2 @ x1))
    return complex(val)


def two_way_moment(d: TwoWayData) -> tuple:
    """Edge contribution (-DC, CD) at (tail, head)."""
    return (-d.D @ d.C, d.C @ d.D)


def two_way_symplectic_pairing(t1: TwoWayData, t2: TwoWayData) -> complex:
    """tr(dC ∧ dD) on a pair of edge tangents."""
    return complex(np.trace(t2.D @ t1.C) - np.trace(t1.D @ t2.C))
