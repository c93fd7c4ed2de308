"""Output checks that do not trust the code they check.

A solved point is re-verified from its matrices alone: the moment map
is recomputed here from the rule in the total_space docstring, and the
open conditions (S1)/(S2) are decided by Kalman rank tests, not by the
library's invariant-subspace closures.
"""

from __future__ import annotations

import numpy as np

from bowlab import diagrams, graded

# A recomputed residual counts as zero below this share of the squared
# point scale (the moment map is quadratic in the point).
RESIDUAL_RTOL = 1e-9
# Singular values below this share of the largest one count as zero.
RANK_RTOL = 1e-8

# Verdict pairs that cannot both be right about one point.
CONTRADICTION = {"unstable", "semistable"}


def _rank(m: np.ndarray) -> int:
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))


def _scale(p) -> float:
    mats = [m for ts in p.triangles.values() for t in ts
            for m in (t.A, t.B1, t.B2, t.a, t.b)]
    mats += [m for e in p.edges for m in (e.C, e.D)]
    return max((float(np.max(np.abs(m))) for m in mats if m.size), default=0.0)


def moment_residual_norm(d, p, lam: dict) -> float:
    """|(mu1, mu2 - lam id)| for p, with lam on each first segment."""
    mu = {(name, j): np.zeros((v, v), dtype=complex)
          for name in d.bow.intervals for j, v in enumerate(d.seg_dims[name])}
    for name in d.bow.intervals:
        mu[(name, 0)] -= complex(lam.get(name, 0)) * np.eye(d.seg_dims[name][0])
    sq = 0.0
    for name in d.bow.intervals:
        for i, t in enumerate(p.triangles[name]):
            sq += float(np.linalg.norm(t.B2 @ t.A - t.A @ t.B1 + t.a @ t.b)) ** 2
            mu[(name, i)] += t.B1
            mu[(name, i + 1)] -= t.B2
    for (tail, head), e in zip(d.bow.edges, p.edges):
        mu[(head, 0)] += e.C @ e.D
        mu[(tail, len(d.seg_dims[tail]) - 1)] -= e.D @ e.C
    sq += sum(float(np.linalg.norm(m)) ** 2 for m in mu.values())
    return sq ** 0.5


def is_open(t) -> bool:
    """(S1) and (S2) at one triangle, by Kalman rank tests.

    (S1): no nonzero B1-invariant subspace inside Ker A and Ker b, i.e.
    the pair (B1, [A; b]) is observable.  (S2): no proper B2-invariant
    subspace containing Im A + Im a, i.e. (B2, [A a]) is controllable.
    """
    v2, v1 = t.A.shape
    obs, row = [], np.vstack([t.A, t.b])
    for _ in range(v1):
        obs.append(row)
        row = row @ t.B1
    ctrl, col = [], np.hstack([t.A, t.a])
    for _ in range(v2):
        ctrl.append(col)
        col = t.B2 @ col
    s1 = v1 == 0 or _rank(np.vstack(obs)) == v1
    s2 = v2 == 0 or _rank(np.hstack(ctrl)) == v2
    return s1 and s2


def on_fiber(d, p, lam: dict) -> bool:
    scale = max(1.0, _scale(p))
    return moment_residual_norm(d, p, lam) <= RESIDUAL_RTOL * scale * scale


def open_point(p) -> bool:
    return all(is_open(t) for ts in p.triangles.values() for t in ts)


def bow_maps(d, p) -> list:
    """(src, dst, matrix) for every structure map between segments."""
    seg = diagrams.SegmentRef
    maps = []
    for name in d.bow.intervals:
        for i, t in enumerate(p.triangles[name]):
            lo, hi = seg(name, i), seg(name, i + 1)
            maps += [(lo, hi, t.A), (lo, lo, t.B1), (hi, hi, t.B2)]
    for (tail, head), e in zip(d.bow.edges, p.edges):
        t_seg = seg(tail, len(d.seg_dims[tail]) - 1)
        h_seg = seg(head, 0)
        maps += [(t_seg, h_seg, e.C), (h_seg, t_seg, e.D)]
    return maps


def quiver_maps(q) -> list:
    maps = []
    for k, (t, h) in enumerate(q.quiver.arrows):
        maps += [(t, h, q.x[k]), (h, t, q.y[k])]
    return maps


def witness_ok(verdict, maps, weight: dict, full: dict, stable: bool) -> bool:
    """An "unstable" witness is invariant and has the destabilising sign.

    weight and full are keyed like the witness parts: the stability
    weight and the ambient dimension of each part.
    """
    w = verdict.witness
    if not graded.is_invariant(w, maps):
        return False
    dims = {k: s.dim for k, s in w.parts.items()}
    if verdict.clause == "kernel":
        pairing = sum(weight[k] * dims[k] for k in dims)
        return pairing > 0 or (stable and sum(dims.values()) > 0 and pairing >= 0)
    if verdict.clause == "image":
        copairing = sum(weight[k] * (full[k] - dims[k]) for k in dims)
        proper = sum(dims.values()) < sum(full.values())
        return copairing < 0 or (stable and proper and copairing <= 0)
    return False


def bow_weights(d, theta: dict) -> tuple[dict, dict]:
    """Per-segment stability weight (theta on first segments) and dims."""
    weight = {s: (theta[s.interval] if s.index == 0 else 0) for s in d.segments()}
    full = {s: d.dim(s) for s in d.segments()}
    return weight, full
