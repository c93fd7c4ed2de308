"""Framed double-quiver representation spaces.

A representation point lives in T*Rep(Q, v) plus framing maps: for each
arrow e an x_e: V_{t(e)} -> V_{h(e)} with its reverse y_e, and at each
vertex a pair I_i: W_i -> V_i, J_i: V_i -> W_i.  The moment map of the
GL(v) base-change action is [x, y] + IJ vertex by vertex, and the
semistability test is the kernel/image subrepresentation criterion.

Loops and parallel arrows are allowed, so arrows are addressed by their
index in Quiver.arrows, not by endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import isfinite, lcm, prod, sqrt

import numpy as np

from .graded import Exact01Unavailable, StabilityVerdict, _check_mode, find_destabilizer
from .linalg import (
    _field,
    _is_zero_residual,
    _largest_entry,
    _zero_slack,
    as_matrix,
    matrix_from_json,
    matrix_to_json,
)
from .solve import _norm

__all__ = [
    "Quiver",
    "QuiverRepPoint",
    "StabilityVerdict",
    "Exact01Unavailable",
    "rep_moment_map",
    "rep_symplectic_pairing",
    "rep_semistable",
    "integerize_weights",
    "quiver_point_to_json_dict",
    "quiver_point_from_json_dict",
]

# the trace certificate enumerates every dimension vector 0 <= s <= v;
# above this many it leaves the decision to the lattice search
CERTIFICATE_CAP = 1 << 16


@dataclass(frozen=True)
class Quiver:
    """Finite quiver; loops and parallel arrows allowed."""

    vertices: tuple
    arrows: tuple

    def __init__(self, vertices, arrows):
        object.__setattr__(self, "vertices", tuple(vertices))
        object.__setattr__(self, "arrows", tuple((t, h) for t, h in arrows))
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        vset = set(self.vertices)
        for t, h in self.arrows:
            if t not in vset or h not in vset:
                raise ValueError(f"arrow ({t!r}, {h!r}) references unknown vertex")


@dataclass(frozen=True)
class QuiverRepPoint:
    """Point of the framed doubled representation space.

    x[k], y[k] belong to arrow k of `quiver.arrows`; I and J are keyed by
    vertex.  Tangent vectors reuse this container (same shapes).
    """

    quiver: Quiver
    v: dict
    w: dict
    x: tuple
    y: tuple
    I: dict
    J: dict

    def __post_init__(self):
        q = self.quiver
        if set(self.v) != set(q.vertices) or set(self.w) != set(q.vertices):
            raise ValueError("v and w must be keyed by the quiver vertices")
        for dims in (self.v, self.w):
            for i, d in dims.items():
                if int(d) != d or d < 0:
                    raise ValueError(f"dimension at {i!r} must be a nonnegative integer")
        object.__setattr__(self, "v", {i: int(self.v[i]) for i in q.vertices})
        object.__setattr__(self, "w", {i: int(self.w[i]) for i in q.vertices})
        if len(self.x) != len(q.arrows) or len(self.y) != len(q.arrows):
            raise ValueError("need one (x, y) pair per arrow")
        object.__setattr__(self, "x", tuple(
            as_matrix(m, self.v[h], self.v[t])
            for m, (t, h) in zip(self.x, q.arrows)))
        object.__setattr__(self, "y", tuple(
            as_matrix(m, self.v[t], self.v[h])
            for m, (t, h) in zip(self.y, q.arrows)))
        object.__setattr__(self, "I", {
            i: as_matrix(self.I[i], self.v[i], self.w[i]) for i in q.vertices})
        object.__setattr__(self, "J", {
            i: as_matrix(self.J[i], self.w[i], self.v[i]) for i in q.vertices})

    def scale(self) -> float:
        """Largest entry magnitude over all matrices; 0 for the zero point."""
        return _largest_entry(*self.x, *self.y, *self.I.values(), *self.J.values())


def rep_moment_map(p: QuiverRepPoint) -> dict:
    """[x, y] + IJ at every vertex: sum of x_e y_e over incoming arrows
    minus y_e x_e over outgoing, plus I_i J_i."""
    q = p.quiver
    mu = {i: (p.I[i] @ p.J[i]).astype(complex) for i in q.vertices}
    for k, (t, h) in enumerate(q.arrows):
        mu[h] = mu[h] + p.x[k] @ p.y[k]
        mu[t] = mu[t] - p.y[k] @ p.x[k]
    return mu


def rep_symplectic_pairing(t1: QuiverRepPoint, t2: QuiverRepPoint) -> complex:
    """tr(dx ∧ dy + dI ∧ dJ) on a pair of tangents (constant coefficients)."""
    if t1.quiver is not t2.quiver and t1.quiver != t2.quiver:
        raise ValueError("tangents belong to different quivers")
    val = 0.0 + 0.0j
    for k in range(len(t1.quiver.arrows)):
        val += np.trace(t2.y[k] @ t1.x[k]) - np.trace(t1.y[k] @ t2.x[k])
    for i in t1.quiver.vertices:
        val += np.trace(t2.J[i] @ t1.I[i]) - np.trace(t1.J[i] @ t2.I[i])
    return complex(val)


def integerize_weights(theta: dict) -> dict:
    """Scale rational weights to integers by the LCM of denominators.

    Accepts ints, Fractions, and finite floats, numpy's included (taken
    at exact binary value); a bool, Python's or numpy's, is the int 0
    or 1.  Semistability is invariant under positive rescaling, so the
    scaled weights decide the same condition.
    """
    ints = (int, np.integer, np.bool_)
    if all(isinstance(val, ints) for val in theta.values()):
        return {key: int(val) for key, val in theta.items()}
    fracs = {}
    for key, val in theta.items():
        # checked first: Fraction(val) would also parse a string such as "1/2"
        if not isinstance(val, (*ints, float, np.floating, Fraction)):
            raise TypeError(f"weight for {key!r} must be int, float, or Fraction")
        if isinstance(val, (float, np.floating)):
            if not isfinite(val):
                raise ValueError(f"weight for {key!r} must be finite, got {val}")
            val = Fraction(*val.as_integer_ratio())   # exact for every float width
        fracs[key] = Fraction(int(val) if isinstance(val, np.bool_) else val)
    denom = lcm(*(f.denominator for f in fracs.values())) if fracs else 1
    return {key: int(f * denom) for key, f in fracs.items()}


def rep_semistable(p: QuiverRepPoint, theta: dict, mode: str = "heuristic") -> StabilityVerdict:
    """Kernel/image semistability criterion for framed representations.

    A point is semistable iff every (x, y)-invariant graded subspace V'
    contained in Ker J has theta-pairing <= 0, and every one containing
    Im I has theta-copairing >= 0.

    Where every v_i <= 1 all graded supports are enumerated, an exact
    verdict.  Otherwise the moment-map trace certificate (see
    _trace_certificate) goes first, proving "semistable" (searched = 0)
    from the dimension vectors alone when p lies on a fiber
    mu = lambda id; then a finite lattice of invariant subspaces is
    searched: "unstable" comes with a verified witness, "not-falsified"
    is not a proof.  mode only checks the input, as in check_semistable:
    exact01 raises Exact01Unavailable where some v_i > 1, except at
    all-zero weights, which are "semistable" with no test.

    A vertex theta omits has weight 0, as an interval has in
    check_semistable; a key naming no vertex is an error.
    """
    vertices = p.quiver.vertices
    unknown = sorted(set(theta) - set(vertices), key=repr)
    if unknown:
        raise ValueError(f"theta names unknown vertex(es) {unknown}; "
                         f"the quiver's vertices are {list(vertices)}")
    weights = dict.fromkeys(vertices, 0) | integerize_weights(theta)
    _check_mode(mode, p.v, weights, False, lambda i: f"vertex {i!r}")
    return _destabilizer(p, weights, False)


def _trace_certificate(p: QuiverRepPoint, weights: dict, stable: bool) -> bool:
    """Whether the moment map alone rules out every destabilizing
    subspace of p for the integer weights (with stable, every one of
    find_destabilizer's stable clauses).

    Where every mu_i is lam_i id, an (x, y)-invariant graded subspace S
    inside Ker J has lam . dim S = sum tr([x, y]|_S) = 0: the two traces
    of each arrow's commutator cancel and IJ vanishes on S.  One
    containing Im I has lam . codim S = 0 on the quotients
    (Crawley-Boevey, Compositio Math. 126, 2001).  lam_i is read as
    tr mu_i / v_i and E_i = mu_i - lam_i id; where |E|, by linalg's
    residual rule as in the H-gauge walk, is not zero (a NaN or infinite
    one never is) there is no certificate.  Otherwise |lam . s| is at
    most sum_i s_i (|E_i|_F + slack), where the slack bounds the trace
    error of what linalg's zero rule lets pass as invariant or as zero
    (linalg._zero_slack of the maps' total Frobenius norm, once per
    dimension of the framed space).  A dimension vector past that bound
    is neither the dimension vector of a kernel-clause witness nor the
    codimension vector of an image-clause one.  So p is semistable when
    every vector left pairs to 0 with the weights, and stable when 0 is
    the only one left.
    """
    verts = [i for i in p.quiver.vertices if p.v[i]]
    sizes = tuple(p.v[i] + 1 for i in verts)
    if prod(sizes) > CERTIFICATE_CAP:
        return False
    lam, err = _fiber_scalars(p, verts)
    # the largest entry and the Frobenius norms from one array of every
    # matrix's entries; one zero stands in when all are empty
    mats = [m.ravel() for m in (*p.x, *p.y, *p.I.values(), *p.J.values()) if m.size]
    mats = mats or [np.zeros(1)]
    entries = np.abs(np.concatenate(mats))
    if not _is_zero_residual(sqrt(err.dot(err)), float(entries.max())):
        return False
    starts = list(accumulate((m.size for m in mats[:-1]), initial=0))
    total = float(np.sqrt(np.add.reduceat(entries * entries, starts)).sum())
    slack = _zero_slack(total, sum(p.v[i] + p.w[i] for i in p.quiver.vertices))
    s, s_real, s_complex = _dimension_vectors(sizes)
    kept = np.abs(s_complex @ lam) <= s_real @ (err + slack)
    pairing = s @ np.array([weights[i] for i in verts])
    # s = 0 is row 0, and every other row is a nonzero s
    return not ((kept & (pairing != 0)).any() or stable and kept[1:].any())


def _fiber_scalars(p: QuiverRepPoint, verts: list) -> tuple:
    """(lam, err) over verts, vertices of nonzero dimension, as a complex
    and a float array: lam_i = tr mu_i / v_i and err_i = |E_i|_F, with
    E_i = mu_i - lam_i id, bit for bit np.trace(mu_i) / v_i and
    np.linalg.norm(mu_i - lam_i * np.eye(v_i)) without their dispatch.
    E_i is rep_moment_map's own array with lam_i taken off its diagonal;
    it differs from that product at most in the sign of a zero, which
    the norm squares away."""
    mu = rep_moment_map(p)
    lam, err = [], []
    for i in verts:
        n = p.v[i]
        lam.append(mu[i].trace() / n)
        e = mu[i].ravel()
        e[::n + 1] -= lam[-1]
        err.append(_norm(e))
    return np.array(lam, dtype=complex), np.array(err)


@lru_cache(maxsize=4)
def _dimension_vectors(sizes: tuple) -> tuple:
    """Every s with 0 <= s_j < sizes[j], one row each in np.indices'
    order (s = 0 first), as read-only C-contiguous int, float and
    complex arrays: the float and complex ones are what an int array
    becomes in a product with a float or complex vector, so the
    products have its bits.  Kept for the last four shapes, each of at
    most CERTIFICATE_CAP rows."""
    s = (np.ascontiguousarray(np.indices(sizes).reshape(len(sizes), -1).T) if sizes
         else np.zeros((1, 0), int))
    grids = (s, s.astype(float), s.astype(complex))
    for g in grids:
        g.flags.writeable = False
    return grids


def _destabilizer(p: QuiverRepPoint, weights: dict, stable: bool) -> StabilityVerdict:
    """find_destabilizer on p's data: x and y of every arrow as maps, the
    J's as kernel maps, the I's as image maps, integer weights per
    vertex; the trace certificate goes first where some v_i is above 1
    (below, find_destabilizer decides exactly, at less cost)."""
    if any(n > 1 for n in p.v.values()) and _trace_certificate(p, weights, stable):
        return StabilityVerdict("semistable")
    q = p.quiver
    maps = []
    for k, (t, h) in enumerate(q.arrows):
        maps += [(t, h, p.x[k]), (h, t, p.y[k])]
    return find_destabilizer(p.v, maps,
                             [(i, p.J[i]) for i in q.vertices],
                             [(i, p.I[i]) for i in q.vertices],
                             weights, stable=stable)


def quiver_point_to_json_dict(p: QuiverRepPoint) -> dict:
    q = p.quiver
    return {
        "vertices": list(q.vertices),
        "arrows": [[t, h] for t, h in q.arrows],
        "v": {str(i): p.v[i] for i in q.vertices},
        "w": {str(i): p.w[i] for i in q.vertices},
        "x": [matrix_to_json(m) for m in p.x],
        "y": [matrix_to_json(m) for m in p.y],
        "I": {str(i): matrix_to_json(p.I[i]) for i in q.vertices},
        "J": {str(i): matrix_to_json(p.J[i]) for i in q.vertices},
    }


def quiver_point_from_json_dict(data: dict) -> QuiverRepPoint:
    """Inverse of quiver_point_to_json_dict; a missing entry names its
    vertex, and a matrix that cannot be read names its block."""
    top = "quiver point data"
    q = Quiver(_field(data, "vertices", top), [tuple(a) for a in _field(data, "arrows", top)])

    def per_vertex(key):
        table = data.get(key, {})
        missing = [i for i in q.vertices if str(i) not in table]
        if missing:
            raise ValueError(f"vertex {missing[0]!r} has no {key!r} entry")
        return {i: table[str(i)] for i in q.vertices}

    v = {i: int(n) for i, n in per_vertex("v").items()}
    w = {i: int(n) for i, n in per_vertex("w").items()}
    def read(m, rows, cols, where):
        try:
            return matrix_from_json(m, rows, cols)
        except (TypeError, ValueError) as err:
            raise ValueError(f"{where}: {err}") from err

    x = tuple(read(m, v[h], v[t], f"x of arrow {k}")
              for k, (m, (t, h)) in enumerate(zip(_field(data, "x", top), q.arrows)))
    y = tuple(read(m, v[t], v[h], f"y of arrow {k}")
              for k, (m, (t, h)) in enumerate(zip(_field(data, "y", top), q.arrows)))
    I = {i: read(m, v[i], w[i], f"I of vertex {i!r}") for i, m in per_vertex("I").items()}
    J = {i: read(m, w[i], v[i], f"J of vertex {i!r}") for i, m in per_vertex("J").items()}
    return QuiverRepPoint(q, v, w, x, y, I, J)
