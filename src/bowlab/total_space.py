"""The ambient space of a bow diagram and its moment-map geometry.

A point assigns a triangle tuple (A, B1, B2, a, b) to every x-point
and a two-way pair (C, D) to every edge.  Per segment, the moment map
collects the edge terms CD / -DC plus the B's of the adjacent
x-points:

    mu_seg = sum_{head edges} C D - sum_{tail edges} D C
             + B1 of the x-point at the segment's right end (if any)
             - B2 of the x-point at the segment's left end  (if any)

mu1 is the per-x-point relation B2 A - A B1 + a b, zero exactly on
triangle configurations.  Points are flattened to complex vectors in a
fixed order (intervals in declaration order, per x-point A, B1, B2, a,
b, then per edge C, D) for the solver and the analytic Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagrams import BowDiagram, SegmentRef, embed_deformation, embed_stability
from .graded import StabilityVerdict, find_destabilizer
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    matrix_from_json,
    matrix_to_json,
    rank,
)
from .quiver import integerize_weights
from .solve import MaxItersExceeded, SolveConfig, gauss_newton
from .triangles import (
    RectTangent,
    SquareForm,
    SquareTangent,
    TriangleData,
    TwoWayData,
    check_S1,
    check_S2,
    hurtubise_symplectic_pairing,
    triangle_from_json_dict,
    triangle_gauge_action,
    triangle_to_hurtubise,
    triangle_to_json_dict,
    two_way_symplectic_pairing,
)

__all__ = [
    "TotalSpacePoint",
    "FiberSolveReport",
    "StartDiagnostic",
    "InfeasibilityEvidence",
    "LocalMapReport",
    "zero_point",
    "random_point",
    "check_shapes",
    "point_dim",
    "gauge_dim",
    "flatten_point",
    "unflatten_point",
    "total_moment_map",
    "mu1_residual",
    "moment_residual",
    "moment_differential",
    "moment_jacobian",
    "gauge_action",
    "gauge_action_vector",
    "action_differential",
    "solve_fiber",
    "check_semistable",
    "translate_deformation",
    "expected_smooth_dimension",
    "check_local_maps",
    "stabilizer_dimension",
    "total_symplectic_pairing",
    "open_conditions_hold",
    "point_to_json_dict",
    "point_from_json_dict",
]


@dataclass(frozen=True)
class TotalSpacePoint:
    """Triangles per x-point (keyed by interval, indexed left to right)
    and two-way pairs per edge (in bow edge order)."""

    triangles: dict
    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "triangles",
                           {name: tuple(ts) for name, ts in self.triangles.items()})
        object.__setattr__(self, "edges", tuple(self.edges))

    def triangle(self, interval: str, i: int) -> TriangleData:
        return self.triangles[interval][i]

    def scale(self) -> float:
        vals = [t.scale() for ts in self.triangles.values() for t in ts]
        for e in self.edges:
            for m in (e.C, e.D):
                if m.size:
                    vals.append(float(np.max(np.abs(m))))
        return max(vals, default=0.0)


def check_shapes(d: BowDiagram, p: TotalSpacePoint):
    """Raise unless p's matrix shapes match the diagram's segment dims."""
    if set(p.triangles) != set(d.bow.intervals):
        raise ValueError("triangles must be keyed by the diagram's intervals")
    for name in d.bow.intervals:
        ts = p.triangles[name]
        if len(ts) != d.x_point_count(name):
            raise ValueError(f"interval {name!r}: expected {d.x_point_count(name)} "
                             f"triangles, got {len(ts)}")
        dims = d.seg_dims[name]
        for i, t in enumerate(ts):
            if (t.v1, t.v2) != (dims[i], dims[i + 1]):
                raise ValueError(f"triangle ({name!r}, {i}) has dims "
                                 f"({t.v1}, {t.v2}), expected ({dims[i]}, {dims[i + 1]})")
    if len(p.edges) != len(d.bow.edges):
        raise ValueError(f"expected {len(d.bow.edges)} edge pairs, got {len(p.edges)}")
    for k, e in enumerate(p.edges):
        vt = d.dim(d.edge_tail_segment(k))
        vh = d.dim(d.edge_head_segment(k))
        if e.C.shape != (vh, vt):
            raise ValueError(f"edge {k}: C has shape {e.C.shape}, expected ({vh}, {vt})")


def zero_point(d: BowDiagram) -> TotalSpacePoint:
    triangles = {}
    for name in d.bow.intervals:
        dims = d.seg_dims[name]
        ts = []
        for i in range(d.x_point_count(name)):
            v1, v2 = dims[i], dims[i + 1]
            ts.append(TriangleData(
                A=np.zeros((v2, v1)), B1=np.zeros((v1, v1)), B2=np.zeros((v2, v2)),
                a=np.zeros((v2, 1)), b=np.zeros((1, v1))))
        triangles[name] = tuple(ts)
    edges = []
    for k in range(len(d.bow.edges)):
        vt = d.dim(d.edge_tail_segment(k))
        vh = d.dim(d.edge_head_segment(k))
        edges.append(TwoWayData(C=np.zeros((vh, vt)), D=np.zeros((vt, vh))))
    return TotalSpacePoint(triangles, tuple(edges))


def _cgauss(rng: np.random.Generator, rows: int, cols: int, scale: float) -> np.ndarray:
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return scale * (re + 1j * im) / np.sqrt(2.0)


def random_point(d: BowDiagram, rng: np.random.Generator, scale: float = 1.0) -> TotalSpacePoint:
    """Independent complex-Gaussian entries everywhere."""
    triangles = {}
    for name in d.bow.intervals:
        dims = d.seg_dims[name]
        ts = []
        for i in range(d.x_point_count(name)):
            v1, v2 = dims[i], dims[i + 1]
            ts.append(TriangleData(
                A=_cgauss(rng, v2, v1, scale), B1=_cgauss(rng, v1, v1, scale),
                B2=_cgauss(rng, v2, v2, scale), a=_cgauss(rng, v2, 1, scale),
                b=_cgauss(rng, 1, v1, scale)))
        triangles[name] = tuple(ts)
    edges = []
    for k in range(len(d.bow.edges)):
        vt = d.dim(d.edge_tail_segment(k))
        vh = d.dim(d.edge_head_segment(k))
        edges.append(TwoWayData(C=_cgauss(rng, vh, vt, scale), D=_cgauss(rng, vt, vh, scale)))
    return TotalSpacePoint(triangles, tuple(edges))


# --- flattening ------------------------------------------------------------

def _triangle_mats(t: TriangleData):
    return (t.A, t.B1, t.B2, t.a, t.b)


def point_dim(d: BowDiagram) -> int:
    """Complex dimension of the ambient space."""
    n = 0
    for name, i in d.x_points():
        dims = d.seg_dims[name]
        v1, v2 = dims[i], dims[i + 1]
        n += v1 * v2 + v1 * v1 + v2 * v2 + v2 + v1
    for k in range(len(d.bow.edges)):
        n += 2 * d.dim(d.edge_tail_segment(k)) * d.dim(d.edge_head_segment(k))
    return n


def gauge_dim(d: BowDiagram) -> int:
    return sum(d.dim(s) ** 2 for s in d.segments())


def flatten_point(d: BowDiagram, p: TotalSpacePoint) -> np.ndarray:
    chunks = []
    for name in d.bow.intervals:
        for t in p.triangles[name]:
            chunks.extend(m.ravel() for m in _triangle_mats(t))
    for e in p.edges:
        chunks.append(e.C.ravel())
        chunks.append(e.D.ravel())
    if not chunks:
        return np.zeros(0, dtype=complex)
    return np.concatenate(chunks).astype(complex)


def unflatten_point(d: BowDiagram, vec: np.ndarray) -> TotalSpacePoint:
    vec = np.asarray(vec, dtype=complex).ravel()
    pos = 0

    def take(rows, cols):
        nonlocal pos
        block = vec[pos:pos + rows * cols].reshape(rows, cols)
        pos += rows * cols
        return block

    triangles = {}
    for name in d.bow.intervals:
        dims = d.seg_dims[name]
        ts = []
        for i in range(d.x_point_count(name)):
            v1, v2 = dims[i], dims[i + 1]
            ts.append(TriangleData(A=take(v2, v1), B1=take(v1, v1), B2=take(v2, v2),
                                   a=take(v2, 1), b=take(1, v1)))
        triangles[name] = tuple(ts)
    edges = []
    for k in range(len(d.bow.edges)):
        vt = d.dim(d.edge_tail_segment(k))
        vh = d.dim(d.edge_head_segment(k))
        edges.append(TwoWayData(C=take(vh, vt), D=take(vt, vh)))
    if pos != vec.size:
        raise ValueError(f"flat vector has {vec.size} entries, expected {pos}")
    return TotalSpacePoint(triangles, tuple(edges))


# --- moment map -------------------------------------------------------------

def total_moment_map(d: BowDiagram, p: TotalSpacePoint) -> dict:
    """Per-segment moment matrices (see module docstring for the rule)."""
    check_shapes(d, p)
    mu = {s: np.zeros((d.dim(s), d.dim(s)), dtype=complex) for s in d.segments()}
    for k in range(len(d.bow.edges)):
        e = p.edges[k]
        mu[d.edge_head_segment(k)] += e.C @ e.D
        mu[d.edge_tail_segment(k)] -= e.D @ e.C
    for name in d.bow.intervals:
        for i, t in enumerate(p.triangles[name]):
            mu[SegmentRef(name, i)] += t.B1       # x-point at the right end
            mu[SegmentRef(name, i + 1)] -= t.B2   # x-point at the left end
    return mu


def mu1_residual(d: BowDiagram, p: TotalSpacePoint) -> dict:
    """B2 A - A B1 + a b at every x-point, keyed (interval, index)."""
    out = {}
    for name, i in d.x_points():
        t = p.triangle(name, i)
        out[(name, i)] = t.B2 @ t.A - t.A @ t.B1 + t.a @ t.b
    return out


def _flatten_moment(d: BowDiagram, mu1: dict, mu2: dict) -> np.ndarray:
    chunks = [mu1[(name, i)].ravel() for name, i in d.x_points()]
    chunks.extend(mu2[s].ravel() for s in d.segments())
    if not chunks:
        return np.zeros(0, dtype=complex)
    return np.concatenate(chunks)


def moment_residual(d: BowDiagram, p: TotalSpacePoint, nu: dict) -> np.ndarray:
    """Flattened (mu1, mu2 - nu id); nu is a per-segment scalar dict."""
    mu2 = total_moment_map(d, p)
    for s in d.segments():
        mu2[s] = mu2[s] - complex(nu.get(s, 0.0)) * np.eye(d.dim(s))
    return _flatten_moment(d, mu1_residual(d, p), mu2)


def moment_differential(d: BowDiagram, p: TotalSpacePoint, t: TotalSpacePoint) -> np.ndarray:
    """Directional derivative of (mu1, mu2) at p along tangent t, flattened."""
    dmu1 = {}
    for name, i in d.x_points():
        b = p.triangle(name, i)
        dt = t.triangle(name, i)
        dmu1[(name, i)] = (b.B2 @ dt.A + dt.B2 @ b.A - dt.A @ b.B1 - b.A @ dt.B1
                           + dt.a @ b.b + b.a @ dt.b)
    dmu2 = {s: np.zeros((d.dim(s), d.dim(s)), dtype=complex) for s in d.segments()}
    for k in range(len(d.bow.edges)):
        e, de = p.edges[k], t.edges[k]
        dmu2[d.edge_head_segment(k)] += de.C @ e.D + e.C @ de.D
        dmu2[d.edge_tail_segment(k)] -= de.D @ e.C + e.D @ de.C
    for name in d.bow.intervals:
        for i, dt in enumerate(t.triangles[name]):
            dmu2[SegmentRef(name, i)] += dt.B1
            dmu2[SegmentRef(name, i + 1)] -= dt.B2
    return _flatten_moment(d, dmu1, dmu2)


def moment_jacobian(d: BowDiagram, p: TotalSpacePoint) -> np.ndarray:
    """Analytic Jacobian of the flattened (mu1, mu2) in the flattened
    coordinates; columns are the differential on basis directions."""
    n = point_dim(d)
    cols = []
    basis = np.zeros(n, dtype=complex)
    for j in range(n):
        basis[j] = 1.0
        cols.append(moment_differential(d, p, unflatten_point(d, basis)))
        basis[j] = 0.0
    if not cols:
        return np.zeros((0, 0), dtype=complex)
    return np.column_stack(cols)


# --- gauge action ------------------------------------------------------------

def gauge_action(d: BowDiagram, g: dict, p: TotalSpacePoint) -> TotalSpacePoint:
    """Segment-wise base change; g maps SegmentRef -> invertible matrix."""
    check_shapes(d, p)
    triangles = {}
    for name in d.bow.intervals:
        ts = []
        for i, t in enumerate(p.triangles[name]):
            g1 = g[SegmentRef(name, i)]
            g2 = g[SegmentRef(name, i + 1)]
            ts.append(triangle_gauge_action(g1, g2, t))
        triangles[name] = tuple(ts)
    edges = []
    for k, e in enumerate(p.edges):
        gt = as_matrix(g[d.edge_tail_segment(k)])
        gh = as_matrix(g[d.edge_head_segment(k)])
        edges.append(TwoWayData(C=gh @ e.C @ np.linalg.inv(gt),
                                D=gt @ e.D @ np.linalg.inv(gh)))
    return TotalSpacePoint(triangles, tuple(edges))


def gauge_action_vector(d: BowDiagram, xi: dict, p: TotalSpacePoint) -> TotalSpacePoint:
    """Infinitesimal gauge action: the tangent d(psi)(xi) at p."""
    triangles = {}
    for name in d.bow.intervals:
        ts = []
        for i, t in enumerate(p.triangles[name]):
            x1 = as_matrix(xi[SegmentRef(name, i)], t.v1, t.v1)
            x2 = as_matrix(xi[SegmentRef(name, i + 1)], t.v2, t.v2)
            ts.append(TriangleData(
                A=x2 @ t.A - t.A @ x1,
                B1=x1 @ t.B1 - t.B1 @ x1,
                B2=x2 @ t.B2 - t.B2 @ x2,
                a=x2 @ t.a,
                b=-t.b @ x1))
        triangles[name] = tuple(ts)
    edges = []
    for k, e in enumerate(p.edges):
        xt = as_matrix(xi[d.edge_tail_segment(k)])
        xh = as_matrix(xi[d.edge_head_segment(k)])
        edges.append(TwoWayData(C=xh @ e.C - e.C @ xt, D=xt @ e.D - e.D @ xh))
    return TotalSpacePoint(triangles, tuple(edges))


def action_differential(d: BowDiagram, p: TotalSpacePoint) -> np.ndarray:
    """Matrix of the Lie algebra action, columns indexed by the E_kl basis
    of every gl(v_seg) in segment order, rows by flattened tangents."""
    cols = []
    zero_xi = {s: np.zeros((d.dim(s), d.dim(s)), dtype=complex) for s in d.segments()}
    for s in d.segments():
        v = d.dim(s)
        for kk in range(v):
            for ll in range(v):
                xi = dict(zero_xi)
                e = np.zeros((v, v), dtype=complex)
                e[kk, ll] = 1.0
                xi[s] = e
                cols.append(flatten_point(d, gauge_action_vector(d, xi, p)))
    if not cols:
        return np.zeros((point_dim(d), 0), dtype=complex)
    return np.column_stack(cols)


# --- fiber solving -----------------------------------------------------------

@dataclass(frozen=True)
class StartDiagnostic:
    start_index: int
    converged: bool
    residual_norm: float
    iterations: int
    open_conditions_ok: bool | None  # None when the start did not converge


@dataclass(frozen=True)
class FiberSolveReport:
    point: TotalSpacePoint
    residual_norm: float
    iterations: int
    open_conditions_ok: bool
    seed: int
    start_index: int


@dataclass(frozen=True)
class InfeasibilityEvidence:
    """All starts failed.  Evidence only: a solver that never converges
    to an open point does not prove the fiber is empty."""

    n_starts: int
    best_residual: float
    seed: int
    starts: tuple


def open_conditions_hold(d: BowDiagram, p: TotalSpacePoint,
                         tol: Tolerances = DEFAULT_TOL) -> bool:
    """(S1) and (S2) at every x-point."""
    for name, i in d.x_points():
        t = p.triangle(name, i)
        if not check_S1(t, tol) or not check_S2(t, tol):
            return False
    return True


def solve_fiber(d: BowDiagram, lam: dict, seed: int = 0, n_starts: int = 20,
                cfg: SolveConfig | None = None, tol: Tolerances = DEFAULT_TOL,
                start_scale: float = 1.0):
    """Find a moment fiber point over the deformation lam (per interval).

    Each start k draws an independent random point from seed pair
    (seed, k), runs damped Gauss-Newton with the analytic Jacobian, and
    accepts only solutions that also satisfy the open conditions
    (S1)/(S2) at every x-point.  Returns a FiberSolveReport on the first
    accepted solution, else an InfeasibilityEvidence record.
    """
    cfg = cfg or SolveConfig()
    nu = embed_deformation(d, lam)

    def residual(x):
        return moment_residual(d, unflatten_point(d, x), nu)

    def jacobian(x):
        return moment_jacobian(d, unflatten_point(d, x))

    diags = []
    best = np.inf
    for k in range(n_starts):
        rng = np.random.default_rng([seed, k])
        x0 = flatten_point(d, random_point(d, rng, start_scale))
        try:
            res = gauss_newton(residual, x0, cfg, jacobian=jacobian)
        except MaxItersExceeded as stuck:
            best = min(best, stuck.residual_norm)
            diags.append(StartDiagnostic(k, False, stuck.residual_norm,
                                         stuck.iterations, None))
            continue
        point = unflatten_point(d, res.x)
        ok = open_conditions_hold(d, point, tol)
        best = min(best, res.residual_norm)
        diags.append(StartDiagnostic(k, True, res.residual_norm, res.iterations, ok))
        if ok:
            return FiberSolveReport(point=point, residual_norm=res.residual_norm,
                                    iterations=res.iterations, open_conditions_ok=True,
                                    seed=seed, start_index=k)
    return InfeasibilityEvidence(n_starts=n_starts, best_residual=float(best),
                                 seed=seed, starts=tuple(diags))


# --- stability ---------------------------------------------------------------

def _bow_maps(d: BowDiagram, p: TotalSpacePoint) -> list:
    """(src, dst, matrix) list of all structure maps between segments."""
    maps = []
    for name, i in d.x_points():
        t = p.triangle(name, i)
        lo, hi = SegmentRef(name, i), SegmentRef(name, i + 1)
        maps.append((lo, hi, t.A))
        maps.append((lo, lo, t.B1))
        maps.append((hi, hi, t.B2))
    for k, e in enumerate(p.edges):
        maps.append((d.edge_tail_segment(k), d.edge_head_segment(k), e.C))
        maps.append((d.edge_head_segment(k), d.edge_tail_segment(k), e.D))
    return maps


def check_semistable(d: BowDiagram, p: TotalSpacePoint, theta: dict,
                     mode: str = "heuristic", stable: bool = False,
                     tol: Tolerances = DEFAULT_TOL) -> StabilityVerdict:
    """Kernel/image stability criterion for bow points.

    A graded subspace qualifies for the kernel clause when it is
    invariant under every structure map, killed by every b, and every A
    restricts to an isomorphism on it; the stability pairing must then
    be <= 0 (semistable) or < 0 (stable, unless the subspace is 0).
    The image clause is dual: contains every Im a, A descends to
    quotient isomorphisms, copairing >= 0 (or > 0 unless full).

    theta is per interval (embedded onto first segments); mode exact01
    decides, mode heuristic falsifies or returns "not-falsified".
    """
    check_shapes(d, p)
    nu = embed_stability(d, integerize_weights(theta))
    kernel_maps, image_maps, links, endos = [], [], [], []
    for name, i in d.x_points():
        t = p.triangle(name, i)
        lo, hi = SegmentRef(name, i), SegmentRef(name, i + 1)
        kernel_maps.append((lo, t.b))
        image_maps.append((hi, t.a))
        links.append((lo, hi, t.A))
        endos += [(lo, t.B1), (hi, t.B2)]
    return find_destabilizer({s: d.dim(s) for s in d.segments()}, _bow_maps(d, p),
                             kernel_maps, image_maps,
                             {s: nu.get(s, 0) for s in d.segments()},
                             links=links, endos=endos, mode=mode, stable=stable, tol=tol)


# --- translation, dimension, local maps --------------------------------------

def translate_deformation(d: BowDiagram, p: TotalSpacePoint, nu: dict) -> TotalSpacePoint:
    """Shift both B's of x-point i by the partial sum of nu over the
    segments to its right.  Sends the segment-granular fiber mu^-1(nu)
    to the interval-granular fiber over lambda_of_nu(nu), preserving
    conditions (a), (S1), (S2), equivariantly."""
    check_shapes(d, p)
    triangles = {}
    for name in d.bow.intervals:
        w = d.x_point_count(name)
        ts = []
        for i, t in enumerate(p.triangles[name]):
            shift = sum(complex(nu.get(SegmentRef(name, j), 0.0))
                        for j in range(i + 1, w + 1))
            ts.append(TriangleData(
                A=t.A, B1=t.B1 + shift * np.eye(t.v1), B2=t.B2 + shift * np.eye(t.v2),
                a=t.a, b=t.b))
        triangles[name] = tuple(ts)
    return TotalSpacePoint(triangles, p.edges)


def expected_smooth_dimension(d: BowDiagram) -> int:
    """dim of the ambient space, minus the x-point Hom(V-, V+) blocks,
    minus twice the gauge dimension; the stable-locus dimension when
    that locus is nonempty."""
    dim = 0
    for name, i in d.x_points():
        dims = d.seg_dims[name]
        v1, v2 = dims[i], dims[i + 1]
        dim += v1 * v1 + v2 * v2 + v1 + v2
    for k in range(len(d.bow.edges)):
        dim += 2 * d.dim(d.edge_tail_segment(k)) * d.dim(d.edge_head_segment(k))
    return dim - 2 * gauge_dim(d)


@dataclass(frozen=True)
class LocalMapReport:
    interval: str
    x_index: int
    config: str  # "injective" or "surjective"
    rank: int
    required: int

    @property
    def ok(self) -> bool:
        return self.rank == self.required


def check_local_maps(d: BowDiagram, p: TotalSpacePoint,
                     tol: Tolerances = DEFAULT_TOL) -> list:
    """Rank tests at boundary x-points.

    At an x-point whose left segment is the first of its interval, the
    stacked (A, b, D_e over incoming edges) must be injective; at one
    whose right segment is the last, the concatenated (A, a, D_e over
    outgoing edges) must be surjective.
    """
    check_shapes(d, p)
    reports = []
    for name, i in d.x_points():
        t = p.triangle(name, i)
        w = d.x_point_count(name)
        if i == 0:
            first = SegmentRef(name, 0)
            blocks = [t.A, t.b]
            for k, e in enumerate(p.edges):
                if d.edge_head_segment(k) == first:
                    blocks.append(e.D)
            alpha = np.vstack(blocks)
            reports.append(LocalMapReport(name, i, "injective",
                                          rank(alpha, tol), t.v1))
        if i == w - 1:
            last = SegmentRef(name, w)
            blocks = [t.A, t.a]
            for k, e in enumerate(p.edges):
                if d.edge_tail_segment(k) == last:
                    blocks.append(e.D)
            beta = np.hstack(blocks)
            reports.append(LocalMapReport(name, i, "surjective",
                                          rank(beta, tol), t.v2))
    return reports


def stabilizer_dimension(d: BowDiagram, p: TotalSpacePoint,
                         tol: Tolerances = DEFAULT_TOL) -> int:
    """dim of the gauge Lie algebra minus the rank of its action at p."""
    return gauge_dim(d) - rank(action_differential(d, p), tol)


# --- symplectic pairing -------------------------------------------------------

def _shifted_triangle(t: TriangleData, dt: TriangleData, s: float) -> TriangleData:
    return TriangleData(A=t.A + s * dt.A, B1=t.B1 + s * dt.B1, B2=t.B2 + s * dt.B2,
                        a=t.a + s * dt.a, b=t.b + s * dt.b)


def _chart_tangent(t: TriangleData, dt: TriangleData, step: float, tol: Tolerances):
    plus = triangle_to_hurtubise(_shifted_triangle(t, dt, step), tol)
    minus = triangle_to_hurtubise(_shifted_triangle(t, dt, -step), tol)
    inv = 1.0 / (2.0 * step)
    if isinstance(plus, SquareForm):
        return SquareTangent(du=(plus.u - minus.u) * inv, dh=(plus.h - minus.h) * inv,
                             dI=(plus.I - minus.I) * inv, dJ=(plus.J - minus.J) * inv)
    return RectTangent(plus.v1, plus.v2, du=(plus.u - minus.u) * inv,
                       deta=(plus.eta - minus.eta) * inv)


def total_symplectic_pairing(d: BowDiagram, p: TotalSpacePoint,
                             t1: TotalSpacePoint, t2: TotalSpacePoint,
                             tol: Tolerances = DEFAULT_TOL) -> complex:
    """Ambient symplectic pairing of two tangents at p.

    Each x-point contributes the normal-form pairing pulled back along
    the chart, with chart tangents computed by central differences of
    triangle_to_hurtubise; each edge contributes tr(dC ∧ dD).  The
    triangles of p must be chart-invertible, and the tangents must
    preserve condition (a) to first order, or the differencing leaves
    the triangle locus.
    """
    check_shapes(d, p)
    step = tol.fd_step
    val = 0.0 + 0.0j
    for name, i in d.x_points():
        base = p.triangle(name, i)
        form = triangle_to_hurtubise(base, tol)
        ct1 = _chart_tangent(base, t1.triangle(name, i), step, tol)
        ct2 = _chart_tangent(base, t2.triangle(name, i), step, tol)
        val += hurtubise_symplectic_pairing(form, ct1, ct2)
    for k in range(len(d.bow.edges)):
        val += two_way_symplectic_pairing(t1.edges[k], t2.edges[k])
    return complex(val)


# --- serialization ------------------------------------------------------------

def point_to_json_dict(d: BowDiagram, p: TotalSpacePoint) -> dict:
    check_shapes(d, p)
    return {
        "triangles": {name: [triangle_to_json_dict(t) for t in p.triangles[name]]
                      for name in d.bow.intervals},
        "edges": [{"C": matrix_to_json(e.C), "D": matrix_to_json(e.D)} for e in p.edges],
    }


def point_from_json_dict(d: BowDiagram, data: dict) -> TotalSpacePoint:
    if not isinstance(data, dict) or "triangles" not in data or "edges" not in data:
        raise ValueError("point data must carry 'triangles' and 'edges' entries")
    missing = [name for name in d.bow.intervals if name not in data["triangles"]]
    if missing:
        raise ValueError(f"point data lacks triangles for interval(s) {missing}")
    if len(data["edges"]) != len(d.bow.edges):
        raise ValueError(f"point data has {len(data['edges'])} edge entries, "
                         f"the diagram has {len(d.bow.edges)}")
    triangles = {}
    for name in d.bow.intervals:
        triangles[name] = tuple(triangle_from_json_dict(td)
                                for td in data["triangles"][name])
    edges = []
    for k, ed in enumerate(data["edges"]):
        vt = d.dim(d.edge_tail_segment(k))
        vh = d.dim(d.edge_head_segment(k))
        edges.append(TwoWayData(C=matrix_from_json(ed["C"], vh, vt),
                                D=matrix_from_json(ed["D"], vt, vh)))
    p = TotalSpacePoint(triangles, tuple(edges))
    check_shapes(d, p)
    return p
