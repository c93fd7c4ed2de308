"""Graded subspaces of a direct sum of C^{n_k} and the stability engine.

A graded subspace assigns a Subspace of C^{dims[k]} to every key k.  A
collection of maps (src key, dst key, matrix) is "respected" by a
graded subspace when every map sends the src component into the dst
component.  The two closure operators below are the graded versions of
the ones in linalg; the candidate lattice feeds the heuristic
(un)stability falsifiers.

find_destabilizer is the one kernel/image stability test.  Framed quiver
points (Nakajima) and bow points both reduce to it: a bow adds, per
x-point, a link A that must restrict to an isomorphism on the subspace
(kernel clause) or descend to one on the quotients (image clause).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerances,
    image_basis,
    kernel_basis,
    rank,
    snap_small_to_zero,
    subspace_image,
    subspace_intersection,
    subspace_preimage,
    subspace_sum,
)

__all__ = [
    "GradedSubspace",
    "StabilityVerdict",
    "Exact01Unavailable",
    "is_invariant",
    "largest_invariant_graded",
    "smallest_invariant_graded",
    "candidate_lattice",
    "find_destabilizer",
]


class Exact01Unavailable(ValueError):
    """exact01 mode was requested but some graded piece has dimension above 1."""


@dataclass(frozen=True)
class GradedSubspace:
    """One subspace per key; keys and ambient dims fixed by the context."""

    parts: dict

    def dim(self, key) -> int:
        return self.parts[key].dim

    def total_dim(self) -> int:
        return sum(s.dim for s in self.parts.values())


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of a (semi)stability test.

    kind: "semistable" (definitive), "unstable" (witness attached), or
        "not-falsified" (heuristic search found no destabilizing
        subspace; NOT a proof of semistability).
    witness: destabilizing graded subspace when kind == "unstable".
    clause: "kernel" when the witness sits inside the kernel maps'
        kernels with positive pairing, "image" when it contains the
        image maps' images with negative copairing.
    """

    kind: str
    witness: GradedSubspace | None = None
    clause: str | None = None

    def __post_init__(self):
        if self.kind not in ("semistable", "unstable", "not-falsified"):
            raise ValueError(f"unknown verdict kind {self.kind!r}")
        if (self.kind == "unstable") != (self.witness is not None):
            raise ValueError("unstable verdicts carry a witness, others do not")


def _support(dims: dict, support) -> GradedSubspace:
    """Full at the keys in support, zero elsewhere."""
    return GradedSubspace({k: Subspace.full(n) if k in support else Subspace.zero(n)
                           for k, n in dims.items()})


def is_invariant(g: GradedSubspace, maps, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Every (src, dst, m) sends the src part into the dst part."""
    for src, dst, m in maps:
        basis = g.parts[src].basis
        if basis.shape[1] == 0:
            continue
        mapped = np.asarray(m, dtype=complex) @ basis
        resid = mapped - g.parts[dst].projector() @ mapped
        scale = max(1.0, float(np.linalg.norm(mapped)))
        if np.linalg.norm(resid) > tol.rank_tol * scale:
            return False
    return True


def largest_invariant_graded(w: GradedSubspace, maps, tol: Tolerances = DEFAULT_TOL) -> GradedSubspace:
    """Largest graded subspace of w respected by all maps."""
    parts = dict(w.parts)
    total = sum(s.ambient_dim for s in parts.values())
    for _ in range(total + 1):
        before = sum(s.dim for s in parts.values())
        refined = dict(parts)
        for src, dst, m in maps:
            pre = subspace_preimage(np.asarray(m, dtype=complex), parts[dst], tol)
            refined[src] = subspace_intersection(refined[src], pre, tol)
        parts = refined
        if sum(s.dim for s in parts.values()) == before:
            break
    return GradedSubspace(parts)


def smallest_invariant_graded(w: GradedSubspace, maps, tol: Tolerances = DEFAULT_TOL) -> GradedSubspace:
    """Smallest graded subspace containing w respected by all maps."""
    parts = dict(w.parts)
    total = sum(s.ambient_dim for s in parts.values())
    for _ in range(total + 1):
        before = sum(s.dim for s in parts.values())
        grown = dict(parts)
        for src, dst, m in maps:
            img = subspace_image(np.asarray(m, dtype=complex), parts[src], tol)
            grown[dst] = subspace_sum(grown[dst], img, tol)
        parts = grown
        if sum(s.dim for s in parts.values()) == before:
            break
    return GradedSubspace(parts)


def _graded_equal(a: GradedSubspace, b: GradedSubspace, tol: Tolerances) -> bool:
    for k, sa in a.parts.items():
        sb = b.parts[k]
        if sa.dim != sb.dim:
            return False
        if sa.dim and np.linalg.norm(sa.projector() - sb.projector()) > 1e-8:
            return False
    return True


def _sum_graded(a, b, tol):
    return GradedSubspace({k: subspace_sum(a.parts[k], b.parts[k], tol) for k in a.parts})


def _intersect_graded(a, b, tol):
    return GradedSubspace({k: subspace_intersection(a.parts[k], b.parts[k], tol) for k in a.parts})


def _image_graded(g, maps, dims, tol):
    parts = {k: Subspace.zero(n) for k, n in dims.items()}
    for src, dst, m in maps:
        img = subspace_image(np.asarray(m, dtype=complex), g.parts[src], tol)
        parts[dst] = subspace_sum(parts[dst], img, tol)
    return GradedSubspace(parts)


def _preimage_graded(g, maps, dims, tol):
    parts = {k: Subspace.full(n) for k, n in dims.items()}
    for src, dst, m in maps:
        pre = subspace_preimage(np.asarray(m, dtype=complex), g.parts[dst], tol)
        parts[src] = subspace_intersection(parts[src], pre, tol)
    return GradedSubspace(parts)


def _eigenspace_seeds(dims: dict, endos, tol: Tolerances) -> list:
    """Generalized eigenspaces of graded endomorphisms, padded by 0 or full."""
    seeds = []
    for key, m in endos:
        m = np.asarray(m, dtype=complex)
        n = m.shape[0]
        if n == 0:
            continue
        eigvals = np.linalg.eigvals(m)
        scale = max(1.0, float(np.max(np.abs(eigvals))) if eigvals.size else 1.0)
        clusters: list[complex] = []
        for ev in eigvals:
            if not any(abs(ev - c) <= 1e-6 * scale for c in clusters):
                clusters.append(ev)
        for lam in clusters:
            gen = kernel_basis(np.linalg.matrix_power(m - lam * np.eye(n), n), tol)
            for pad in ("zero", "full"):
                parts = {}
                for k, dk in dims.items():
                    if k == key:
                        parts[k] = gen
                    else:
                        parts[k] = Subspace.zero(dk) if pad == "zero" else Subspace.full(dk)
                seeds.append(GradedSubspace(parts))
    return seeds


def candidate_lattice(dims: dict, maps, seeds, endos=(), depth: int = 3,
                      cap: int = 200, tol: Tolerances = DEFAULT_TOL) -> list:
    """Graded subspaces closed under images, preimages, sums, intersections.

    Starts from {0, V} plus the given seeds plus generalized eigenspaces
    of the endo maps, and closes to the given depth with a hard cap on
    the candidate count; the consumers are falsifiers, so an incomplete
    lattice is safe.
    """
    pool = [_support(dims, ()), _support(dims, dims)]
    pool.extend(seeds)
    pool.extend(_eigenspace_seeds(dims, endos, tol))

    def push(candidates, g):
        for existing in candidates:
            if _graded_equal(existing, g, tol):
                return False
        candidates.append(g)
        return True

    unique: list[GradedSubspace] = []
    for g in pool:
        push(unique, g)

    frontier = list(unique)
    for _ in range(depth):
        new_frontier = []
        for g in frontier:
            if len(unique) >= cap:
                return unique
            for produced in (_image_graded(g, maps, dims, tol), _preimage_graded(g, maps, dims, tol)):
                if push(unique, produced):
                    new_frontier.append(produced)
        for g in frontier:
            for other in unique[: cap]:
                if len(unique) >= cap:
                    return unique
                for produced in (_sum_graded(g, other, tol), _intersect_graded(g, other, tol)):
                    if push(unique, produced):
                        new_frontier.append(produced)
        if not new_frontier:
            break
        frontier = new_frontier
    return unique


# --- the kernel/image stability engine ------------------------------------------


def _restricts_iso(a, lo: Subspace, hi: Subspace, tol: Tolerances) -> bool:
    """a maps lo isomorphically onto hi."""
    if lo.dim != hi.dim:
        return False
    return lo.dim == 0 or rank(a @ lo.basis, tol) == lo.dim


def _descends_iso(a, lo: Subspace, hi: Subspace, tol: Tolerances) -> bool:
    """a induces an isomorphism C^n_lo / lo -> C^n_hi / hi."""
    codim = lo.ambient_dim - lo.dim
    if codim != hi.ambient_dim - hi.dim:
        return False
    if codim == 0:
        return True
    comp = kernel_basis(lo.basis.conj().T, tol).basis if lo.dim else np.eye(lo.ambient_dim)
    return rank((np.eye(hi.ambient_dim) - hi.projector()) @ a @ comp, tol) == codim


def _destabilizes(g: GradedSubspace, clause: str, dims: dict, weights: dict,
                  stable: bool) -> bool:
    if clause == "kernel":
        pairing = sum(weights[k] * g.dim(k) for k in dims)
        return pairing > 0 or (stable and g.total_dim() > 0 and pairing >= 0)
    copairing = sum(weights[k] * (n - g.dim(k)) for k, n in dims.items())
    proper = g.total_dim() < sum(dims.values())
    return copairing < 0 or (stable and proper and copairing <= 0)


def _support_candidates(dims, maps, kernel_maps, image_maps):
    """Every invariant 0/1 support, in bitmask order over the keys of dims,
    offered to each clause whose kernel or image maps it satisfies."""
    ones = [k for k, n in dims.items() if n == 1]
    bit = {k: 1 << j for j, k in enumerate(ones)}
    # with every dimension <= 1, a nonzero matrix joins two dimension-one keys
    arrows = [(bit[src], bit[dst]) for src, dst, m in maps if src != dst and m.any()]
    avoid = sum({bit[key] for key, m in kernel_maps if m.any()})
    cover = sum({bit[key] for key, m in image_maps if m.any()})
    full, zero = _support(dims, dims).parts, _support(dims, ()).parts
    for mask in range(1 << len(ones)):
        if any(mask & src and not mask & dst for src, dst in arrows):
            continue
        g = GradedSubspace({k: full[k] if mask & bit.get(k, 0) else zero[k] for k in dims})
        if not mask & avoid:
            yield "kernel", g
        if not cover & ~mask:
            yield "image", g


def _lattice_candidates(dims, maps, kernel_maps, image_maps, endos, tol):
    """Per lattice element: the largest invariant subspace inside it and
    the kernels, then the smallest invariant one containing it and the images."""
    ker = dict(_support(dims, dims).parts)
    im = dict(_support(dims, ()).parts)
    for key, m in kernel_maps:
        ker[key] = subspace_intersection(ker[key], kernel_basis(m, tol), tol)
    for key, m in image_maps:
        im[key] = subspace_sum(im[key], image_basis(m, tol), tol)
    ker, im = GradedSubspace(ker), GradedSubspace(im)
    for cand in candidate_lattice(dims, maps, [ker, im], endos=endos, tol=tol):
        yield "kernel", largest_invariant_graded(_intersect_graded(cand, ker, tol), maps, tol)
        yield "image", smallest_invariant_graded(_sum_graded(cand, im, tol), maps, tol)


def find_destabilizer(dims: dict, maps, kernel_maps, image_maps, weights: dict,
                      links=(), endos=(), mode: str = "heuristic", stable: bool = False,
                      tol: Tolerances = DEFAULT_TOL) -> StabilityVerdict:
    """Kernel/image (semi)stability test for a graded representation.

    A graded subspace S invariant under every (src, dst, m) in maps
    qualifies for the kernel clause when S_key lies in Ker m for every
    (key, m) in kernel_maps and every link (lo, hi, A) restricts to an
    isomorphism S_lo -> S_hi; it destabilizes when the pairing
    sum_k weights[k] dim S_k is > 0, or >= 0 with S != 0 when stable.
    The image clause is dual: S_key contains Im m for every (key, m) in
    image_maps, every A descends to an isomorphism of the quotients,
    and the copairing sum_k weights[k] codim S_k is < 0, or <= 0 with
    S != V when stable.

    Matrices with no entry above rank_tol * max(1, largest entry of any
    matrix passed) read as exact zeros.  exact01 decides by enumerating
    supports and needs every dimension <= 1.  heuristic searches
    candidate_lattice, seeded with the generalized eigenspaces of the
    (key, m) endos: "unstable" comes with a checked witness,
    "not-falsified" is not a proof.
    """
    if mode not in ("exact01", "heuristic"):
        raise ValueError(f"unknown mode {mode!r}; expected 'exact01' or 'heuristic'")
    if not stable and all(val == 0 for val in weights.values()):
        return StabilityVerdict("semistable")
    if mode == "exact01":
        big = {k: n for k, n in dims.items() if n > 1}
        if big:
            raise Exact01Unavailable(f"exact01 requires every dimension <= 1, got {big}")

    groups = [list(g) for g in (maps, kernel_maps, image_maps, links, endos)]
    scale = max((float(np.max(np.abs(item[-1]))) for g in groups for item in g
                 if item[-1].size), default=0.0)
    ztol = tol.rank_tol * max(1.0, scale)
    # noise-level matrices read as zeros, otherwise their noise ranks
    # poison every image/preimage below (see snap_small_to_zero)
    maps, kernel_maps, image_maps, links, endos = (
        [(*item[:-1], snap_small_to_zero(item[-1], ztol)) for item in g] for g in groups)

    if mode == "exact01":
        candidates = _support_candidates(dims, maps, kernel_maps, image_maps)
    else:
        candidates = _lattice_candidates(dims, maps, kernel_maps, image_maps, endos, tol)
    for clause, g in candidates:
        iso = _restricts_iso if clause == "kernel" else _descends_iso
        if (_destabilizes(g, clause, dims, weights, stable)
                and all(iso(a, g.parts[lo], g.parts[hi], tol) for lo, hi, a in links)
                and is_invariant(g, maps, tol)):
            return StabilityVerdict("unstable", g, clause)
    return StabilityVerdict("semistable" if mode == "exact01" else "not-falsified")
