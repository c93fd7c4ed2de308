"""The ambient space of a bow diagram and its moment-map geometry.

A point assigns a triangle tuple (A, B1, B2, a, b) to every x-point
and a two-way pair (C, D) to every edge.  Per segment, the moment map
collects the edge terms CD / -DC plus the B's of the adjacent
x-points:

    mu_seg = sum_{head edges} C D - sum_{tail edges} D C
             + B1 of the x-point at the segment's right end (if any)
             - B2 of the x-point at the segment's left end  (if any)

mu1 is the per-x-point relation B2 A - A B1 + a b, zero exactly on
triangle configurations.

One cached record per diagram shape, `_compiled(d)`, fixes how a point
flattens to a complex vector: intervals in declaration order, per
x-point the blocks A, B1, B2, a, b, then per edge C, D, each tagged
with the segments it maps from and to (none on the framing side of a
and b).  It is memoised on d after the first lookup, so that a lookup
per solver iteration is an attribute read; equal diagrams share
_compile's record.  Flattening, the gauge action and its Lie algebra
action, the stability data and the point file's reader and writer all
walk its one block list.  A public function cuts a point into that list once, by
check_shapes, looks the record up once and hands both down; the solver
works on flat vectors alone until a start converges.  On a cobalanced
diagram the record also holds the framed quiver (v, w, quiver), the
route solve_fiber solves and route_blocks, a point's quiver data in the
route's order (each edge's C, D, then each x-point's a, b): the H-gauge
walk moves just these, the quiver point reads them, and _lift, the one
lift of solve_fiber's route, gauge_fix_H and from_quiver_point, writes
the A = id point they determine into one flat vector, which is checked
for finiteness and cut into blocks once.  A flat vector becomes a point
by that one check and cut too, as do a point file's [re, im] pairs,
which point_from_json_dict reads into one array.  A converged start's
(S1)/(S2) check reads the sweeps' dimensions on its blocks before any
point is built: a refused start builds neither the point nor
check_S1's witness.

The moment map is quadratic, so by vec(M X N) = (M kron N^T) vec(X)
each Jacobian entry is +-x[src], +-1 or a sum of two such terms, and
the record lists them once.  A monomial x_p x_q of mu is the term in
column p reading x_q and the one in column q reading x_p; the record
keeps the first (p < q) and the +-B terms, so the moment map is a
bincount over that monomial table, as the Jacobian is over the terms.
A solver start is one draw of 2 n real Gaussians, which the record's
draw table gathers into the flat vector: per block its real parts, then
its imaginary parts, the stream of drawing the blocks one by one.  The
gauge action's matrix is the action evaluated on the gauge Lie
algebra's basis, by matmul broadcasting over a leading axis.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import islice
from types import MappingProxyType

import numpy as np

from .diagrams import (
    Bow,
    BowDiagram,
    NotCobalanced,
    SegmentRef,
    embed_deformation,
    embed_stability,
    framed_dims_of_cobalanced,
    is_cobalanced,
    underlying_quiver,
)
from .graded import (
    GradedSubspace,
    StabilityVerdict,
    _check_mode,
    _is_destabilizer,
    find_destabilizer,
)
from .linalg import (
    _field,
    _is_zero_residual,
    _largest_entry,
    _trusted,
    as_matrix,
    matrix_from_json,
    matrix_to_json,
    rank,
    subspace_image,
)
from .quiver import QuiverRepPoint, _destabilizer, integerize_weights
from .solve import FD_STEP, gauss_newton
from .triangles import (
    RectTangent,
    SquareForm,
    SquareTangent,
    TriangleData,
    TwoWayData,
    _open,
    hurtubise_symplectic_pairing,
    triangle_to_hurtubise,
    two_way_symplectic_pairing,
)

__all__ = [
    "TotalSpacePoint",
    "FiberSolveReport",
    "StartDiagnostic",
    "InfeasibilityEvidence",
    "random_point",
    "check_shapes",
    "point_dim",
    "gauge_dim",
    "flatten_point",
    "unflatten_point",
    "total_moment_map",
    "moment_residual",
    "moment_differential",
    "moment_jacobian",
    "gauge_action",
    "action_differential",
    "solve_fiber",
    "check_semistable",
    "translate_deformation",
    "expected_smooth_dimension",
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
        return _largest_entry(*(m for ts in self.triangles.values() for t in ts
                                for m in (t.A, t.B1, t.B2, t.a, t.b)),
                              *(m for e in self.edges for m in (e.C, e.D)))


def check_shapes(d: BowDiagram, p: TotalSpacePoint) -> list:
    """Raise unless p's matrix shapes match the diagram's segment dims;
    return p's matrices in flat order (as _assemble reads them).

    TriangleData ties a triangle's other shapes to its A's, and
    TwoWayData D's to C's, so the shapes checked are A's and C's."""
    _check_counts(d, p.triangles, p.edges)
    blocks = []
    for name in d.bow.intervals:
        dims = d.seg_dims[name]
        for i, t in enumerate(p.triangles[name]):
            if t.A.shape != (dims[i + 1], dims[i]):
                raise _misshapen("A", t.A, SegmentRef(name, i), SegmentRef(name, i + 1),
                                 (dims[i + 1], dims[i]))
            blocks += (t.A, t.B1, t.B2, t.a, t.b)
    for k, e in enumerate(p.edges):
        tail, head = d.edge_tail_segment(k), d.edge_head_segment(k)
        if e.C.shape != (d.dim(head), d.dim(tail)):
            raise _misshapen("C", e.C, tail, head, (d.dim(head), d.dim(tail)))
        blocks += (e.C, e.D)
    return blocks


def _misshapen(role: str, m: np.ndarray, src, dst, shape: tuple) -> ValueError:
    return ValueError(f"{role} from {src} to {dst} has shape {m.shape}, expected {shape}")


def _check_counts(d: BowDiagram, triangles: dict, edges) -> None:
    """Raise unless triangles, keyed by interval, and edges number as d's."""
    missing = [name for name in d.bow.intervals if name not in triangles]
    unknown = [name for name in triangles if name not in d.bow.intervals]
    if missing or unknown:
        raise ValueError(f"triangles must be keyed by the diagram's intervals; missing "
                         f"{missing}, not intervals {unknown}")
    for name in d.bow.intervals:
        if len(triangles[name]) != d.x_point_count(name):
            raise ValueError(f"interval {name!r}: expected {d.x_point_count(name)} "
                             f"triangles, got {len(triangles[name])}")
    if len(edges) != len(d.bow.edges):
        raise ValueError(f"expected {len(d.bow.edges)} edge pairs, got {len(edges)}")


# --- the compiled layout --------------------------------------------------------

# What a diagram's flat coordinates fix, whatever the point.  Block k,
# of shape layout[k], is tags[k] = (role, row, col): a map from segment
# position col to row, either None on the framing side.  Jacobian term t
# adds (x, 1, -x, -1)[jac_src[t]] to the flat m x n entry e and monomial
# u adds x[mono_col[u]] (x, 1, -x, -1)[mono_src[u]] to mu's row e, each
# by a bincount over floats: its real part at *_target[2 u] = 2 e, its
# imaginary part at *_target[2 u + 1].  A start's draw of 2 n reals holds
# flat entry i's parts at draw[2 i] and draw[2 i + 1].  solve_fiber's
# rescaling multiplies flat entry i by t ** lam_power[i].  Residual row e
# is 1 + the position of its segment, eye_rows[e], on the mu2 rows and 0
# on the mu1 rows; eye_pattern[e] is 1 where the row is a diagonal entry
# of its segment's block, else 0: the moment of nu id is the per-row
# value of nu times that pattern.  lift_base is the flat vector with every
# A the identity and every other entry 0, which _lift fills.  framed is a
# cobalanced diagram's (v, w, quiver), v and w read-only, route its quiver
# route (see solve_fiber) if it has an x-point; otherwise each is None.
# route_blocks index the blocks the route reads, in its order.
_Compiled = namedtuple("_Compiled", "tags layout segs seg_dims x_segs edge_segs n m "
                                    "jac_target jac_src mono_col mono_src mono_target "
                                    "draw lam_power eye_rows eye_pattern lift_base framed "
                                    "route route_blocks")

# the power of t by which solve_fiber's rescaling multiplies each role's block
_LAMBDA_POWER = {"B1": 1, "B2": 1, "a": 1, "C": 0.5, "D": 0.5}


def _compiled(d: BowDiagram) -> _Compiled:
    """d's record, memoised on d after the first lookup; _compile's cache
    holds one record per shape, so equal diagrams share theirs."""
    try:
        return d._compiled
    except AttributeError:
        # BowDiagram holds a dict, so the cache is keyed on what defines it
        c = _compile(d.bow, tuple(d.seg_dims[name] for name in d.bow.intervals))
        object.__setattr__(d, "_compiled", c)   # not a field: ==, repr and replace ignore it
        return c


@lru_cache(maxsize=64)
def _compile(bow, dims: tuple) -> _Compiled:
    d = BowDiagram(bow, dict(zip(bow.intervals, dims)))
    segs = tuple(d.segments())
    pos = {s: j for j, s in enumerate(segs)}
    tags = []
    for name, i in d.x_points():
        lo, hi = pos[SegmentRef(name, i)], pos[SegmentRef(name, i + 1)]
        tags += [("A", hi, lo), ("B1", lo, lo), ("B2", hi, hi), ("a", hi, None), ("b", None, lo)]
    for k in range(len(d.bow.edges)):
        t, h = pos[d.edge_tail_segment(k)], pos[d.edge_head_segment(k)]
        tags += [("C", h, t), ("D", t, h)]
    seg_dims = tuple(d.dim(s) for s in segs)
    layout = [tuple(1 if j is None else seg_dims[j] for j in (row, col)) for _, row, col in tags]
    x_segs = [(lo, hi) for role, hi, lo in tags if role == "A"]
    edge_segs = [(t, h) for role, h, t in tags if role == "C"]
    sizes = np.array([r * c for r, c in layout], dtype=int)
    offs = np.cumsum([0, *sizes]).tolist()
    n = offs[-1]
    # residual rows: mu1 per x-point (shaped like A), then mu2 per segment
    rows = np.cumsum([0] + [r * c for r, c in layout[:5 * len(x_segs):5]]
                     + [v * v for v in seg_dims]).tolist()
    index, src = [np.zeros(0, int)], [np.zeros(0, int)]

    def term(row, sign, entry, col, read):   # read: the flat index of x read, n for 1
        index.append((rows[row] + entry) * n + col)
        src.append(read + (0 if sign > 0 else n + 1))

    def product(row, sign, p, q):   # sign d(P Q) = sign (dP Q + P dQ)
        (r, k), c = layout[p], layout[q][1]
        i, j, l = np.indices((r, c, k)).reshape(3, -1)   # entry (i, j) sums over l
        term(row, sign, i * c + j, offs[p] + i * k + l, offs[q] + l * c + j)   # dP Q reads Q[l, j]
        term(row, sign, i * c + j, offs[q] + l * c + j, offs[p] + i * k + l)   # P dQ reads P[i, l]

    # in the order of the module docstring's formulas, in which an entry
    # of the Jacobian or the moment map made of several terms adds them
    for ix in range(len(x_segs)):
        A, B1, B2, a, b = range(5 * ix, 5 * ix + 5)
        product(ix, 1, B2, A)
        product(ix, -1, A, B1)
        product(ix, 1, a, b)
    mu2 = len(x_segs)   # row block of the first segment
    for k, (t, h) in enumerate(edge_segs):
        C = 5 * len(x_segs) + 2 * k
        product(mu2 + h, 1, C, C + 1)
        product(mu2 + t, -1, C + 1, C)
    for ix, (lo, hi) in enumerate(x_segs):   # dB1 and -dB2, on the constant's slot
        for row, sign, x in ((lo, 1, 5 * ix + 1), (hi, -1, 5 * ix + 2)):
            e = np.arange(offs[x + 1] - offs[x])
            term(mu2 + row, sign, e, offs[x] + e, np.full(e.size, n))
    index, src = np.concatenate(index), np.concatenate(src)
    mono = index % n < src % (n + 1)   # the monomial table; a +-B term reads n or 2 n + 1
    # in the block draw's order: block b's real parts from 2 offs[b] on, then its imaginary parts
    real = np.repeat(np.cumsum(sizes) - sizes, sizes) + np.arange(n)
    draw = np.stack([real, real + np.repeat(sizes, sizes)], 1).ravel()
    lam_power = np.repeat([float(_LAMBDA_POWER.get(role, 0)) for role, _, _ in tags], sizes)
    mu1 = rows[len(x_segs)]
    eye_rows = np.repeat(np.arange(len(segs) + 1), [mu1] + [v * v for v in seg_dims])
    eye_pattern = np.concatenate([np.zeros(mu1, dtype=complex),
                                  *(np.eye(v, dtype=complex).ravel() for v in seg_dims)])
    lift_base = np.zeros(n, dtype=complex)
    for (role, _, _), block in zip(tags, _split(layout, lift_base)):
        if role == "A":
            block[...] = np.eye(*block.shape)
    tables = (_float_targets(index), src, index[mono] % n, src[mono],
              _float_targets(index[mono] // n), draw, lam_power, eye_rows, eye_pattern,
              lift_base)
    for table in tables:
        table.flags.writeable = False   # shared by every caller
    framed = route = None
    if is_cobalanced(d):
        v, w = framed_dims_of_cobalanced(d)
        framed = (MappingProxyType(v), MappingProxyType(w), underlying_quiver(bow))
        if x_segs:
            frames = tuple((_FRAMING, name) for name, _ in d.x_points())
            route = BowDiagram(Bow(bow.intervals + (_FRAMING,), bow.edges + frames),
                               {**{name: (dim,) for name, dim in v.items()}, _FRAMING: (1,)})
    route_blocks = tuple(j for rs in ("CD", "ab") for j, t in enumerate(tags) if t[0] in rs)
    return _Compiled(tuple(tags), tuple(layout), segs, seg_dims, tuple(x_segs),
                     tuple(edge_segs), n, rows[-1], *tables, framed, route, route_blocks)


# The framing vertex of a quiver route: an interval name that no other
# diagram holds, since no other diagram can refer to this object.
_FRAMING = object()


def _float_targets(entries: np.ndarray) -> np.ndarray:
    """Where a bincount over complex floats puts the parts of each entry's value."""
    return np.stack([2 * entries, 2 * entries + 1], 1).ravel()


def _split(layout: list, arr: np.ndarray) -> list:
    """Cut an array of shape (..., n) into blocks of shape (..., rows, cols)."""
    lead = arr.shape[:-1]
    n = sum(r * c for r, c in layout)
    if arr.shape[-1] != n:
        raise ValueError(f"flat vector has {arr.shape[-1]} entries, expected {n}")
    blocks, pos = [], 0
    for r, c in layout:
        blocks.append(arr[..., pos:pos + r * c].reshape(*lead, r, c))
        pos += r * c
    return blocks


def _join(blocks: list, lead: tuple = ()) -> np.ndarray:
    """Inverse of _split: blocks of shape (*lead, rows, cols) to (*lead, n)."""
    # explicit sizes: reshape(-1) is ambiguous when a block or lead is empty
    flat = [m.reshape(*lead, m.shape[-2] * m.shape[-1]) for m in blocks]
    if not flat:
        return np.zeros((*lead, 0), dtype=complex)
    return np.concatenate(flat, axis=-1)


def _assemble(d: BowDiagram, blocks) -> TotalSpacePoint:
    """The point whose blocks, in flat order and each at its layout shape,
    are `blocks`, checked for finiteness once, all together."""
    blocks = [np.asarray(m, dtype=complex) for m in blocks]
    _finite(_join(blocks))
    return _point(d, blocks)


def _finite(x: np.ndarray) -> np.ndarray:
    """x, refused unless every entry is finite."""
    if not np.isfinite(x).all():
        raise ValueError("point has non-finite entries")
    return x


def _point(d: BowDiagram, blocks: list) -> TotalSpacePoint:
    """The point of complex blocks in flat order at their layout shapes,
    which the caller has checked for finiteness."""
    it = iter(blocks)
    triangles = {name: tuple(_trusted(TriangleData, *islice(it, 5))
                             for _ in range(d.x_point_count(name))) for name in d.bow.intervals}
    return _trusted(TotalSpacePoint, triangles,
                    tuple(_trusted(TwoWayData, *islice(it, 2)) for _ in d.bow.edges))


def _draw(c: _Compiled, rng: np.random.Generator) -> np.ndarray:
    """Independent complex Gaussians at every flat entry, from one call for
    2 n reals, divided as complex numbers for the bits of the block draw."""
    return rng.standard_normal(2 * c.n)[c.draw].view(complex) / np.sqrt(2.0)


def random_point(d: BowDiagram, rng: np.random.Generator) -> TotalSpacePoint:
    """Independent complex-Gaussian entries everywhere."""
    return unflatten_point(d, _draw(_compiled(d), rng))


def point_dim(d: BowDiagram) -> int:
    """Complex dimension of the ambient space."""
    return _compiled(d).n


def gauge_dim(d: BowDiagram) -> int:
    return sum(d.dim(s) ** 2 for s in d.segments())


def flatten_point(d: BowDiagram, p: TotalSpacePoint) -> np.ndarray:
    """p's flat vector, its shapes checked by check_shapes."""
    return _join(check_shapes(d, p))


def unflatten_point(d: BowDiagram, vec: np.ndarray) -> TotalSpacePoint:
    """The point at the flat vector vec, checked and cut once: its blocks
    are views of vec as a complex vector."""
    x = _finite(np.asarray(vec, dtype=complex).ravel())
    return _point(d, _split(_compiled(d).layout, x))


# --- moment map -------------------------------------------------------------

_ONE = np.ones(1, dtype=complex)   # a term's value is (x, 1, -x, -1)[src]


def _moment(c: _Compiled, x: np.ndarray) -> np.ndarray:
    """The flat (mu1 per x-point, mu2 per segment) at the complex flat
    vector x: one bincount of c's monomials over the result's floats."""
    prod = x[c.mono_col] * np.concatenate([x, _ONE, -x, -_ONE])[c.mono_src]
    return np.bincount(c.mono_target, prod.view(float), 2 * c.m).view(complex)


def _shift(c: _Compiled, nu: dict) -> np.ndarray:
    """The flat moment of nu id, nu a per-segment scalar dict: 0 on the mu1 rows."""
    return np.array([0j] + [complex(nu.get(s, 0.0)) for s in c.segs])[c.eye_rows] * c.eye_pattern


def total_moment_map(d: BowDiagram, p: TotalSpacePoint) -> dict:
    """Per-segment moment matrices (see module docstring for the rule)."""
    x = flatten_point(d, p)
    c = _compiled(d)
    mu2 = _moment(c, x)[c.m - sum(v * v for v in c.seg_dims):]
    return dict(zip(c.segs, _split([(v, v) for v in c.seg_dims], mu2)))


def moment_residual(d: BowDiagram, p: TotalSpacePoint, nu: dict) -> np.ndarray:
    """Flattened (mu1, mu2 - nu id); nu is a per-segment scalar dict."""
    x = flatten_point(d, p)
    c = _compiled(d)
    return _moment(c, x) - _shift(c, nu)


def moment_differential(d: BowDiagram, p: TotalSpacePoint, t: TotalSpacePoint) -> np.ndarray:
    """Directional derivative of (mu1, mu2) at p along tangent t, flattened;
    both points' shapes checked."""
    return moment_jacobian(d, p) @ flatten_point(d, t)


def moment_jacobian(d: BowDiagram, p) -> np.ndarray:
    """Analytic Jacobian of the flattened (mu1, mu2) in the flattened
    coordinates, at the point p (its shapes checked) or at the flat vector p."""
    x = flatten_point(d, p) if isinstance(p, TotalSpacePoint) else np.asarray(p, dtype=complex)
    c = _compiled(d)
    if x.shape != (c.n,):
        raise ValueError(f"flat vector has shape {x.shape}, expected ({c.n},)")
    # in table order, so an entry of two terms is a - b as the formulas compute it
    terms = np.concatenate([x, _ONE, -x, -_ONE])[c.jac_src]
    jac = np.bincount(c.jac_target, terms.view(float), 2 * c.m * c.n).view(complex)
    return jac.reshape(c.m, c.n)


# --- gauge action ------------------------------------------------------------

def gauge_action(d: BowDiagram, g: dict, p: TotalSpacePoint) -> TotalSpacePoint:
    """Segment-wise base change X -> g_row X g_col^-1 of every block, no
    factor on the framing side; g maps SegmentRef -> invertible matrix
    and is read only at the segments some block joins."""
    blocks = check_shapes(d, p)
    c = _compiled(d)
    joined = {j for _, row, col in c.tags for j in (row, col)} - {None}
    gs = {j: as_matrix(g[c.segs[j]], c.seg_dims[j], c.seg_dims[j]) for j in joined}
    return _assemble(d, _gauged(c.tags, blocks, gs))


def _gauged(tags, blocks, gs: dict) -> list:
    """The blocks, tagged by tags, moved by X -> g_row X g_col^-1, gs keyed
    by segment position and holding every segment they join."""
    inv = {j: np.linalg.inv(gs[j]) for j in {col for _, _, col in tags} - {None}}
    out = []
    for (_, row, col), m in zip(tags, blocks):
        if row is not None:
            m = gs[row] @ m
        out.append(m if col is None else m @ inv[col])
    return out


def action_differential(d: BowDiagram, p: TotalSpacePoint) -> np.ndarray:
    """Matrix of the Lie algebra action, columns indexed by the E_kl basis
    of every gl(v_seg) in segment order, rows by flattened tangents.
    Along xi, block X moves by xi_row X - X xi_col, with no term on the
    framing side: every basis direction at once, by matmul broadcasting."""
    blocks = check_shapes(d, p)
    c = _compiled(d)
    xis = np.eye(sum(v * v for v in c.seg_dims), dtype=complex)
    x = _split([(v, v) for v in c.seg_dims], xis)
    moved = []
    for (_, row, col), m in zip(c.tags, blocks):
        left = 0 if row is None else x[row] @ m
        moved.append(left if col is None else left - m @ x[col])
    return np.ascontiguousarray(_join(moved, xis.shape[:-1]).T)


# --- fiber solving -----------------------------------------------------------

@dataclass(frozen=True)
class StartDiagnostic:
    """How one solve_fiber start ended: residual_norm is |mu - nu| at its
    last iterate.  For a start that used up its iteration budget (reason
    "budget") that number is roundoff drift, not a property of the
    fiber: such a start is still drifting toward a nonzero floor of the
    residual when the budget ends, so where it stops depends on
    roundoff, and noise in the last bits of the start moves the printed
    value in its third decimal.  Only whether a start converged, and
    whether its point was open, says something about the fiber."""

    start_index: int
    converged: bool
    residual_norm: float
    iterations: int
    open_conditions_ok: bool | None  # None when the start did not converge
    reason: str | None = None        # SolveResult.reason; None when it converged


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
    to an open point does not prove the fiber is empty.  On a cobalanced
    diagram with an x-point the starts are those of its quiver route
    (see solve_fiber), none of which converged: a converged quiver start
    is always accepted."""

    n_starts: int
    best_residual: float
    seed: int
    starts: tuple


def open_conditions_hold(d: BowDiagram, p: TotalSpacePoint) -> bool:
    """(S1) and (S2) at every x-point, decided as check_S1 and check_S2
    decide them."""
    return _is_open(_compiled(d), check_shapes(d, p))


def _is_open(c: _Compiled, blocks: list) -> bool:
    """(S1) and (S2) at every x-point of the point of the flat-order
    blocks, from the sweeps' dimensions: no failure builds a witness."""
    return all(_open(blocks[k:k + 5]) for k in range(0, 5 * len(c.x_segs), 5))


def solve_fiber(d: BowDiagram, lam: dict, seed: int = 0, n_starts: int = 20):
    """Find a moment fiber point over the deformation lam (per interval).

    Each start k draws an independent random point from seed pair
    (seed, k), runs damped Gauss-Newton with the analytic Jacobian, and
    accepts only solutions that also satisfy the open conditions
    (S1)/(S2) at every x-point.  Returns a FiberSolveReport on the first
    accepted solution, else an InfeasibilityEvidence record.  n_starts
    must be at least 1: evidence from no start is no evidence; seed must
    be non-negative, as numpy's seeding needs; lam must be finite, or
    there is no fiber to search.

    A cobalanced diagram with an x-point is solved on its framed quiver
    (Nakajima), written as a bow with no x-points, its quiver route: one
    one-segment interval of dimension v_i per interval, one more of
    dimension 1 for the framing (Crawley-Boevey), and w_i edges from the
    framing to interval i, one per x-point in x-point order, whose (C, D)
    are that x-point's (a, b).  The framing's moment is fixed by the trace
    identity at -sum_i lam_i v_i.  The route has no x-points, so its
    first converged start's flat solution is lifted to the bow point
    with every A = id, the arrows' (C, D) and the B's of the backward
    recursion that zeroes the moment on every non-first segment
    (reduction.from_quiver_point); the lift needs no open check, since an
    invertible A makes (S1) and (S2) hold outright.  Conversely every
    open bow point has invertible A's (see reduction), so the route loses
    no fiber.  Other diagrams are solved as they are.

    The moment map is homogeneous: (A, t B, t a, b, sqrt(t) C, sqrt(t) D)
    has moment t mu and the same (S1)/(S2).  So the starts, drawn at
    scale 1, solve over lam / t with t = max(1, max |lam_i|) (on the
    quiver route the framing's value counts too), and each solution is
    carried back by that map; residuals are reported over lam itself, t
    times those over lam / t.  A finite lam whose t or framing value
    overflows a float is refused with a ValueError before any start.
    """
    if n_starts < 1:
        raise ValueError(f"n_starts must be at least 1, got {n_starts}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if not all(np.isfinite(complex(v)) for v in lam.values()):
        raise ValueError(f"lam must be finite, got {lam}")
    nu = embed_deformation(d, lam)
    c = _compiled(d)
    if c.route is None:
        return _start_loop(d, nu, seed, n_starts)
    nu = embed_deformation(c.route, lam)
    nu[SegmentRef(c.route.bow.intervals[-1], 0)] = -sum(val * c.route.dim(s)
                                                       for s, val in nu.items())
    layout = _compiled(c.route).layout
    return _start_loop(c.route, nu, seed, n_starts, lambda _, x: _lift(d, c, _split(layout, x)))


def _open_point(d: BowDiagram, x: np.ndarray) -> TotalSpacePoint | None:
    """The point at the complex flat vector x if it is open, else None:
    a refused x builds no point."""
    c = _compiled(d)
    blocks = _split(c.layout, _finite(x))
    return _point(d, blocks) if _is_open(c, blocks) else None


def _start_loop(d: BowDiagram, nu: dict, seed: int, n_starts: int, accept=_open_point):
    """solve_fiber's starts on the diagram d itself, over the per-segment
    deformation nu; accept(d, x) is the point a converged start's flat
    solution x reports, or None where x is not open.  The rescaling by t
    is skipped at t = 1, where it changes no bit.  Raises ValueError,
    before any start, where some nu_s or t is not finite: a framing
    moment or a modulus beyond the largest float."""
    try:
        t = max([1.0] + [abs(v) for v in nu.values()])
    except OverflowError:   # abs of a finite complex number
        t = math.inf
    if not (math.isfinite(t) and all(cmath.isfinite(v) for v in nu.values())):
        raise ValueError("lam is too large to solve over: its moments or their modulus "
                         "overflow a float")
    c = _compiled(d)
    shift = _shift(c, nu)
    back = None
    if t != 1.0:
        shift = shift / t
        back = t ** c.lam_power

    def residual(x):
        return _moment(c, x) - shift

    jacobian = partial(moment_jacobian, d)
    diags = []
    for k in range(n_starts):
        rng = np.random.default_rng([seed, k])
        res = gauss_newton(residual, _draw(c, rng), jacobian=jacobian)
        converged = res.reason is None
        point = None
        if converged:
            point = accept(d, res.x if back is None else res.x * back)
        rnorm = res.residual_norm if back is None else t * res.residual_norm
        diags.append(StartDiagnostic(k, converged, rnorm, res.iterations,
                                     point is not None if converged else None, res.reason))
        if point is not None:
            return FiberSolveReport(point=point, residual_norm=rnorm,
                                    iterations=res.iterations, open_conditions_ok=True,
                                    seed=seed, start_index=k)
    return InfeasibilityEvidence(n_starts=n_starts, seed=seed, starts=tuple(diags),
                                 best_residual=float(min(s.residual_norm for s in diags)))


# --- stability ---------------------------------------------------------------

def _bow_data(c: _Compiled, blocks: list, nu: dict) -> dict:
    """find_destabilizer's arguments for the point of the flat-order
    blocks: every block between segments as a map (the B's and
    one-segment self-edges seed the search as self-maps), each b as a
    kernel map, each a as an image map, each A also as a link; nu's
    integer weights, per segment."""
    maps, kernel_maps, image_maps, links = [], [], [], []
    for (role, row, col), m in zip(c.tags, blocks):
        if row is None:
            kernel_maps.append((c.segs[col], m))
        elif col is None:
            image_maps.append((c.segs[row], m))
        else:
            maps.append((c.segs[col], c.segs[row], m))
            if role == "A":
                links.append(maps[-1])
    return dict(dims=dict(zip(c.segs, c.seg_dims)), maps=maps, kernel_maps=kernel_maps,
                image_maps=image_maps, weights={s: nu.get(s, 0) for s in c.segs}, links=links)


# --- the H-gauge and the framed quiver description -----------------------------
# reduction.gauge_fix_H and to_quiver_point are these, wrapped; they live
# here so that check_semistable can reduce without importing reduction,
# which imports this module.

class SingularA(np.linalg.LinAlgError):
    """An A_x was numerically singular, so the gauge walk cannot cross it."""


class MuHNonzero(ValueError):
    """The point is not on the zero level of the non-first-segment moment
    components by linalg's residual rule (a NaN or infinite residual, as
    where the moments overflow, never is), so no H-orbit representative
    with A = id can be built."""


def _fix_H(c: _Compiled, blocks: list) -> list:
    """The blocks c.route_blocks of the point of the flat-order blocks,
    whose shapes the caller has checked, moved by the H-gauge that makes
    every A the identity (the walk of reduction.gauge_fix_H)."""
    if c.framed is None:
        raise NotCobalanced("diagram is not cobalanced: an x-point has unequal adjacent dims")
    first = np.repeat([s.index == 0 for s in c.segs], [v * v for v in c.seg_dims])
    flat = _join(blocks)
    mu2 = _moment(c, flat)[c.m - first.size:]
    res = float(np.linalg.norm(mu2[~first]))
    if not _is_zero_residual(res, _largest_entry(flat)):
        raise MuHNonzero(f"moment residual {res:.3e} on non-first segments")

    g = {j: np.eye(c.seg_dims[j], dtype=complex) for j, s in enumerate(c.segs) if s.index == 0}
    # the A's, every fifth block, run along each wavy line from its first segment
    for (lo, hi), A in zip(c.x_segs, blocks[::5]):
        if rank(A) < A.shape[1]:
            seg = c.segs[lo]
            raise SingularA(f"A at ({seg.interval!r}, {seg.index}) is numerically singular")
        g[hi] = g[lo] @ np.linalg.inv(A)
    return _gauged([c.tags[j] for j in c.route_blocks], [blocks[j] for j in c.route_blocks], g)


def _quiver_point(c: _Compiled, blocks: list) -> QuiverRepPoint:
    """The framed representation of the blocks c.route_blocks of a point
    with every A = id (the identification of reduction.to_quiver_point):
    each edge's (C, D) is an arrow's (x, y), and along each interval the
    a's are I's columns and the b's J's rows (none without an x-point).
    Checked for finiteness once, as _assemble checks a bow point."""
    if not np.isfinite(_join(blocks)).all():
        raise ValueError("quiver point has non-finite entries")
    v, w, quiver = c.framed
    e = 2 * len(c.edge_segs)
    I = {name: [np.zeros((dim, 0), dtype=complex)] for name, dim in v.items()}
    J = {name: [np.zeros((0, dim), dtype=complex)] for name, dim in v.items()}
    for (lo, _), a, b in zip(c.x_segs, blocks[e::2], blocks[e + 1::2]):
        I[c.segs[lo].interval].append(a)
        J[c.segs[lo].interval].append(b)
    return _trusted(QuiverRepPoint, quiver, dict(v), dict(w),
                    tuple(blocks[:e:2]), tuple(blocks[1:e:2]),
                    {name: np.hstack(ms) for name, ms in I.items()},
                    {name: np.vstack(ms) for name, ms in J.items()})


def _lift(d: BowDiagram, c: _Compiled, blocks: list) -> TotalSpacePoint:
    """The bow point with every A = id over the blocks of c's quiver
    route: each edge's (C, D), then per x-point the framing edge's (C, D)
    as (a, b).  The B's come from the backward recursion
    B2_{w-1} = -sum_{tail edges} D C, B1_i = B2_i + a_i b_i,
    B2_{i-1} = B1_i, which zeroes mu1 and the moment on every non-first
    segment (the inverse of _fix_H and reduction.to_quiver_point).  All
    of it is written into one flat vector, a copy of c.lift_base, which
    is checked for finiteness and cut once."""
    e = 2 * len(c.edge_segs)
    x = c.lift_base.copy()
    out = _split(c.layout, x)
    # B[j]: segment j's B, the B1 of the x-point at its right end and the B2 at its left
    B = [np.zeros((v, v), dtype=complex) for v in c.seg_dims]
    for (tail, _), C, D in zip(c.edge_segs, blocks[:e:2], blocks[1:e:2]):
        B[tail] = B[tail] - D @ C
    for ix in reversed(range(len(c.x_segs))):
        lo, hi = c.x_segs[ix]
        a, b = blocks[e + 2 * ix], blocks[e + 2 * ix + 1]
        B[lo] = B[hi] + a @ b
        for block, m in zip(out[5 * ix + 1:5 * ix + 5], (B[lo], B[hi], a, b)):
            block[...] = m
    for block, m in zip(out[5 * len(c.x_segs):], blocks[:e]):
        block[...] = m
    _finite(x)
    return _point(d, out)


def _quiver_semistable(c: _Compiled, blocks: list, nu: dict,
                       stable: bool) -> StabilityVerdict | None:
    """The verdict of the blocks' framed quiver point at nu's first-segment
    weights, a witness carried back to the segments but not re-checked on
    the bow; None where the reduction does not apply."""
    if c.framed is None:
        return None
    try:
        fixed = _fix_H(c, blocks)
    except (MuHNonzero, SingularA):
        return None
    weights = {s.interval: nu[s] for s in c.segs if s.index == 0}
    verdict = _destabilizer(_quiver_point(c, fixed), weights, stable)
    if verdict.kind != "unstable":
        return verdict
    # the walk's gauge is g_0 = id, g_{i+1} = g_i A_i^-1, so the vertex
    # subspace V' sits at S_0 = V' and S_{i+1} = A_i S_i
    parts = {s: verdict.witness.parts[s.interval] for s in c.segs if s.index == 0}
    for (lo, hi), A in zip(c.x_segs, blocks[::5]):
        parts[c.segs[hi]] = subspace_image(A, parts[c.segs[lo]])
    return StabilityVerdict("unstable", GradedSubspace({s: parts[s] for s in c.segs}),
                            verdict.clause, verdict.searched, verdict.capped)


def check_semistable(d: BowDiagram, p: TotalSpacePoint, theta: dict,
                     mode: str = "heuristic", stable: bool = False) -> StabilityVerdict:
    """Kernel/image stability criterion for bow points.

    A graded subspace qualifies for the kernel clause when it is
    invariant under every structure map, killed by every b, and every A
    restricts to an isomorphism on it; the stability pairing must then
    be <= 0 (semistable) or < 0 (stable, unless the subspace is 0).
    The image clause is dual: contains every Im a, A descends to
    quotient isomorphisms, copairing >= 0 (or > 0 unless full).

    theta is per interval (embedded onto first segments).  The
    dimensions pick the test; mode only checks the input: exact01
    raises Exact01Unavailable where some segment is above dimension 1,
    except at all-zero weights with stable off, which are "semistable"
    with no test at any dimension.
    Where every segment has dimension <= 1 find_destabilizer decides
    exactly, over the 0/1 supports (see graded._exact01).

    Above dimension 1, on a cobalanced diagram, the test runs on the
    framed quiver point of gauge_fix_H and to_quiver_point (one key per
    interval, not one per segment).  There the moment-map trace
    certificate (see quiver._trace_certificate) goes first; every bow
    witness with A-isos transports to a quiver subspace, so a
    certificate covers the bow, and the verdict is "semistable" with
    searched = 0.  Otherwise the quiver lattice is searched.  A quiver
    witness V' is carried back along the A's (S_0 = V',
    S_{i+1} = A_i S_i) and re-checked on the bow: killed by the b's or
    containing the a's images, the A links, the sign, invariance under
    the snapped structure maps.  searched and capped then count quiver
    lattice elements.  The bow's own lattice search runs instead when
    the diagram is not cobalanced (no framed quiver), p is off the zero
    level of the non-first-segment moment map (MuHNonzero, e.g. a
    random point or one whose moments overflow), some A is singular
    (SingularA), or the carried witness fails the re-check.
    """
    blocks = check_shapes(d, p)
    c = _compiled(d)
    nu = embed_stability(d, integerize_weights(theta))
    data = _bow_data(c, blocks, nu)
    _check_mode(mode, data["dims"], nu, stable, lambda s: f"segment {s.interval}:{s.index}")
    verdict = _quiver_semistable(c, blocks, nu, stable) if any(n > 1 for n in c.seg_dims) else None
    # a routed witness stands once the bow's own data re-checks it
    if verdict is not None and (verdict.kind != "unstable" or _is_destabilizer(
            verdict.witness, verdict.clause, **data, stable=stable)):
        return verdict
    return find_destabilizer(**data, stable=stable)


# --- translation, dimension --------------------------------------------------

def translate_deformation(d: BowDiagram, p: TotalSpacePoint, nu: dict) -> TotalSpacePoint:
    """Shift both B's of x-point i by the partial sum of nu over the
    segments to its right.  Sends the segment-granular fiber mu^-1(nu)
    to the interval-granular fiber over lambda_of_nu(nu), preserving
    conditions (a), (S1), (S2), equivariantly."""
    blocks = check_shapes(d, p)
    for ix, (name, i) in enumerate(d.x_points()):
        shift = sum(complex(nu.get(SegmentRef(name, j), 0.0))
                    for j in range(i + 1, d.x_point_count(name) + 1))
        for k in (5 * ix + 1, 5 * ix + 2):   # B1, B2
            blocks[k] = blocks[k] + shift * np.eye(len(blocks[k]))
    return _assemble(d, blocks)


def expected_smooth_dimension(d: BowDiagram) -> int:
    """dim of the ambient space, minus the x-point Hom(V-, V+) blocks,
    minus twice the gauge dimension; the stable-locus dimension when
    that locus is nonempty."""
    c = _compiled(d)
    a_blocks = sum(r * k for (role, _, _), (r, k) in zip(c.tags, c.layout) if role == "A")
    return point_dim(d) - a_blocks - 2 * gauge_dim(d)


# --- symplectic pairing -------------------------------------------------------

def _shifted_triangle(t: TriangleData, dt: TriangleData, s: float) -> TriangleData:
    return TriangleData(A=t.A + s * dt.A, B1=t.B1 + s * dt.B1, B2=t.B2 + s * dt.B2,
                        a=t.a + s * dt.a, b=t.b + s * dt.b)


def _chart_tangent(t: TriangleData, dt: TriangleData):
    """The chart's derivative at t along dt, by central differences of step
    h = FD_STEP sqrt(max(1, scale)) along dt / |dt|, times |dt|: the shifted
    triangles' condition (a) residual, order h^2, stays below the cutoff."""
    size = np.sqrt(sum(np.vdot(m, m).real for m in (dt.A, dt.B1, dt.B2, dt.a, dt.b))) or 1.0
    step = FD_STEP * np.sqrt(max(1.0, t.scale())) / size
    plus = triangle_to_hurtubise(_shifted_triangle(t, dt, step))
    minus = triangle_to_hurtubise(_shifted_triangle(t, dt, -step))
    inv = 1.0 / (2.0 * step)
    if isinstance(plus, SquareForm):
        return SquareTangent(du=(plus.u - minus.u) * inv, dh=(plus.h - minus.h) * inv,
                             dI=(plus.I - minus.I) * inv, dJ=(plus.J - minus.J) * inv)
    return RectTangent(plus.v1, plus.v2, du=(plus.u - minus.u) * inv,
                       deta=(plus.eta - minus.eta) * inv)


def total_symplectic_pairing(d: BowDiagram, p: TotalSpacePoint,
                             t1: TotalSpacePoint, t2: TotalSpacePoint) -> complex:
    """Ambient symplectic pairing of two tangents at p.

    Each x-point contributes the normal-form pairing pulled back along
    the chart, with chart tangents computed by central differences of
    triangle_to_hurtubise; each edge contributes tr(dC ∧ dD).  The
    triangles of p must be chart-invertible, and the tangents must
    preserve condition (a) to first order, or the differencing leaves
    the triangle locus.
    """
    for q in (p, t1, t2):
        check_shapes(d, q)
    val = 0.0 + 0.0j
    for name, i in d.x_points():
        base = p.triangle(name, i)
        form = triangle_to_hurtubise(base)
        ct1 = _chart_tangent(base, t1.triangle(name, i))
        ct2 = _chart_tangent(base, t2.triangle(name, i))
        val += hurtubise_symplectic_pairing(form, ct1, ct2)
    for k in range(len(d.bow.edges)):
        val += two_way_symplectic_pairing(t1.edges[k], t2.edges[k])
    return complex(val)


# --- serialization ------------------------------------------------------------

def point_to_json_dict(d: BowDiagram, p: TotalSpacePoint) -> dict:
    """p as nested lists: per interval a list of its triangles, each
    {v1, v2, A, B1, B2, a, b}, then per edge {C, D}."""
    blocks = check_shapes(d, p)
    c = _compiled(d)
    triangles = {name: [] for name in d.bow.intervals}
    edges = []
    for (role, _, col), m in zip(c.tags, blocks):
        if role == "A":
            entry = {"v1": m.shape[1], "v2": m.shape[0]}
            triangles[c.segs[col].interval].append(entry)
        elif role == "C":
            entry = {}
            edges.append(entry)
        entry[role] = matrix_to_json(m)
    return {"triangles": triangles, "edges": edges}


def point_from_json_dict(d: BowDiagram, data: dict) -> TotalSpacePoint:
    """Inverse of point_to_json_dict.  Every matrix is read at the shape
    the diagram gives it; a triangle's v1 and v2 must be the diagram's.

    Each block's row count and row lengths are checked and the [re, im]
    pairs of all blocks go into one np.array, read as complex, checked
    for finiteness once and cut by the compiled layout.  Data that this
    cannot take as it is (a missing entry or a wrong shape, an entry
    that is not a pair of JSON numbers, an integer beyond 64 bits, a
    non-finite value) is read again block by block by
    linalg.matrix_from_json: its error, prefixed with the block's name,
    is the message, and a point that passes there comes from there."""
    if not isinstance(data, dict) or "triangles" not in data or "edges" not in data:
        raise ValueError("point data must carry 'triangles' and 'edges' entries")
    _check_counts(d, data["triangles"], data["edges"])
    c = _compiled(d)
    try:
        x = _read_pairs(_json_blocks(d, c, data))
    except (TypeError, ValueError):   # a len() of a scalar, a missing entry, a ragged array
        x = None
    if x is not None:
        return _point(d, _split(c.layout, x))
    blocks = []
    for role, where, m, rows, cols in _json_blocks(d, c, data):
        try:
            blocks.append(matrix_from_json(m, rows, cols))
        except (TypeError, ValueError) as err:
            raise ValueError(f"{role} of {where}: {err}") from err
    return _assemble(d, blocks)


def _json_blocks(d: BowDiagram, c: _Compiled, data: dict):
    """Per block of point data in flat order: its role, where it is, its
    entry and its layout shape.  A missing entry, or a triangle's (v1,
    v2) that is not the diagram's, raises when its block is reached."""
    triangles = iter([td for name in d.bow.intervals for td in data["triangles"][name]])
    edges = enumerate(data["edges"])
    for (role, _, col), (rows, cols) in zip(c.tags, c.layout):
        if role == "A":
            entry = next(triangles)
            seg = c.segs[col]
            where = f"triangle {seg.index} of interval {seg.interval!r}"
            v1, v2 = _field(entry, "v1", where), _field(entry, "v2", where)
            if [v1, v2] != [cols, rows]:
                raise ValueError(f"{where} has (v1, v2) = ({v1!r}, {v2!r}), "
                                 f"the diagram's are ({cols}, {rows})")
        elif role == "C":
            k, entry = next(edges)
            where = f"edge {k}"
        yield role, where, _field(entry, role, where), rows, cols


def _read_pairs(blocks) -> np.ndarray | None:
    """The flat complex vector of the blocks' [re, im] pairs, or None
    where a block's shape, an entry or a value is not one it can take."""
    pairs = []
    for _, _, m, rows, cols in blocks:
        if len(m) != rows:
            return None
        for row in m:
            if len(row) != cols:
                return None
            pairs += row
    arr = np.array(pairs)   # no dtype: "1" must stay a string
    if arr.shape != (len(pairs), 2) or arr.dtype.kind not in "biuf":
        return None
    x = arr.astype(float, copy=False).view(complex).ravel()
    return x if np.isfinite(x).all() else None
