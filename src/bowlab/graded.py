"""Graded subspaces of a direct sum of C^{n_k} and the stability engine.

A graded subspace assigns a Subspace of C^{dims[k]} to every key k.  A
collection of maps (src key, dst key, matrix) is "respected" by a
graded subspace when every map sends the src component into the dst
component.  The two closure operators below are graded versions of the
ones in linalg that iterate memoised part operations; the candidate
lattice feeds the (un)stability falsifier above dimension 1, which
reads it as it grows and stops it at its first witness.

The lattice and the closures work on interned parts.  A part table
keeps, per key, one representative Subspace for each distinct subspace
met during a search (two parts are one when their projectors differ by
at most SAME_SUBSPACE_TOL), so a graded subspace is a tuple of part
ids, deduplicated by hashing.  The table computes per-key sums and
intersections, and per-map images and preimages cut at the map's
spectral norm, once per pair of ids; one table serves the whole
lattice search of a find_destabilizer call.  Work whose result is
known in advance is skipped: both closures return 0 and V as they are,
sums and intersections with a zero or full part are read off, and a
map's spectral norm is taken only when an image or preimage first
needs it.

find_destabilizer is the one kernel/image stability test.  Framed quiver
points (Nakajima) and bow points both reduce to it: a bow adds, per
x-point, a link A that must restrict to an isomorphism on the subspace
(kernel clause) or descend to one on the quotients (image clause).
With every dimension <= 1 the test decides, and is combinatorial: the
candidates are the 0/1 supports closed under the nonzero maps, the
unions of the keys' closures.  One pass reads every map's nonzero
flag; then each support is tested by Python int operations on its
bitmask, and no array, nor any subspace but the witness, is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    EIGENVALUE_CLUSTER_TOL,
    SAME_SUBSPACE_TOL,
    Subspace,
    _nonzero_flags,
    _op_norm,
    image_basis,
    kernel_basis,
    rank,
    snap_roundoff,
    subspace_intersection,
    subspace_sum,
    zero_cutoff,
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

# candidate_lattice closes this many rounds, and stops growing once it
# holds LATTICE_CAP elements
LATTICE_DEPTH = 3
LATTICE_CAP = 200

# exact01 builds the closed supports over at most this many free bits at
# once (a sorted list of up to 2^16 ints, tested one at a time), so that
# memory stays bounded however many supports there are
CHUNK_BITS = 16


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

    kind: "semistable" (definitive: from the 0/1 support enumeration
        where every dimension is <= 1, or from the quiver's moment-map
        trace certificate), "unstable" (witness attached), or
        "not-falsified" (the lattice search found no destabilizing
        subspace; NOT a proof of semistability).
    witness: destabilizing graded subspace when kind == "unstable".
    clause: "kernel" when the witness sits inside the kernel maps'
        kernels with positive pairing, "image" when it contains the
        image maps' images with negative copairing.
    searched: how many lattice elements or invariant 0/1 supports had
        their candidates tested; both searches stop at the first witness,
        so for "unstable" it is the witness's position.  0 when no search
        ran: zero weights, or a certificate's "semistable".
    capped: a "not-falsified" search whose lattice reached LATTICE_CAP
        elements, so it left part of the lattice unexplored.  Never set
        on "unstable": that search stopped at its witness and left
        nothing it needed unexplored.
    """

    kind: str
    witness: GradedSubspace | None = None
    clause: str | None = None
    searched: int = field(default=0, compare=False)
    capped: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("semistable", "unstable", "not-falsified"):
            raise ValueError(f"unknown verdict kind {self.kind!r}")
        if (self.kind == "unstable") != (self.witness is not None):
            raise ValueError("unstable verdicts carry a witness, others do not")


def _support(dims: dict, support) -> GradedSubspace:
    """Full at the keys in support, zero elsewhere."""
    return GradedSubspace({k: Subspace.full(n) if k in support else Subspace.zero(n)
                           for k, n in dims.items()})


def is_invariant(g: GradedSubspace, maps) -> bool:
    """Every (src, dst, m) sends the src part into the dst part."""
    for src, dst, m in maps:
        basis = g.parts[src].basis
        if basis.shape[1] == 0:
            continue
        mapped = np.asarray(m, dtype=complex) @ basis
        resid = mapped - g.parts[dst].projector() @ mapped
        if np.linalg.norm(resid) > zero_cutoff(float(np.linalg.norm(mapped))):
            return False
    return True


class _PartTable:
    """Interned parts of the graded subspaces met in one search.

    Part id i at key position j names the representative _reps[j][i].
    A graded subspace is the tuple of its part ids in the key order of
    dims.  Sums and intersections are memoised per (position, i, j)
    with i <= j, images and preimages per (map index, id).  Results
    known in advance need no SVD: the image of the zero part, the
    preimage of the full part, and sums and intersections with either.
    A map's spectral norm, the cutoff scale of its images and
    preimages, is computed on its first image or preimage.
    """

    def __init__(self, dims: dict, maps):
        self.keys = list(dims)
        self.pos = {k: j for j, k in enumerate(self.keys)}
        self.maps = [(self.pos[src], self.pos[dst], np.asarray(m, dtype=complex))
                     for src, dst, m in maps]
        self._norms = [None] * len(self.maps)
        self.ambient = sum(dims.values())
        self._reps = [[] for _ in self.keys]
        self._rep_id = [{} for _ in self.keys]   # id(representative) -> part id
        self._by_dim = [{} for _ in self.keys]   # dim -> (part ids, their projectors)
        self._sums, self._meets, self._images, self._preimages = {}, {}, {}, {}
        self.zero = self.ids(_support(dims, ()))
        self.full = self.ids(_support(dims, dims))

    def intern(self, j: int, s: Subspace) -> int:
        """The id of the part at position j equal to s, adding s if new."""
        known = self._rep_id[j].get(id(s))
        if known is not None:
            return known
        proj = s.projector()
        ids, projs = self._by_dim[j].get(s.dim, ((), None))
        if ids:
            close = np.linalg.norm(projs - proj, axis=(1, 2)) <= SAME_SUBSPACE_TOL
            if close.any():
                return ids[int(np.argmax(close))]
            projs = np.concatenate([projs, proj[None]])
        else:
            projs = proj[None]
        i = len(self._reps[j])
        self._reps[j].append(s)
        self._rep_id[j][id(s)] = i
        self._by_dim[j][s.dim] = ((*ids, i), projs)
        return i

    def ids(self, g: GradedSubspace) -> tuple:
        return tuple(self.intern(j, g.parts[k]) for j, k in enumerate(self.keys))

    def graded(self, g: tuple) -> GradedSubspace:
        return GradedSubspace({k: self._reps[j][i] for j, (k, i) in enumerate(zip(self.keys, g))})

    def dim(self, g: tuple) -> int:
        return sum(self._reps[j][i].dim for j, i in enumerate(g))

    def _pair(self, memo: dict, op, j: int, a: int, b: int) -> int:
        key = (j, a, b) if a < b else (j, b, a)
        out = memo.get(key)
        if out is None:
            reps = self._reps[j]
            out = memo[key] = self.intern(j, op(reps[key[1]], reps[key[2]]))
        return out

    def sum_part(self, j: int, a: int, b: int) -> int:
        # S + S = S, 0 + S = S and V + S = V, exactly
        if a == b or a == self.zero[j] or b == self.full[j]:
            return b
        if b == self.zero[j] or a == self.full[j]:
            return a
        return self._pair(self._sums, subspace_sum, j, a, b)

    def meet_part(self, j: int, a: int, b: int) -> int:
        # S cap S = S, V cap S = S and 0 cap S = 0, exactly
        if a == b or a == self.full[j] or b == self.zero[j]:
            return b
        if b == self.full[j] or a == self.zero[j]:
            return a
        return self._pair(self._meets, subspace_intersection, j, a, b)

    def _norm(self, m: int) -> float:
        if self._norms[m] is None:
            self._norms[m] = _op_norm(self.maps[m][2])
        return self._norms[m]

    def _image_part(self, m: int, i: int) -> int:
        """Image under map m of part i at its src."""
        src, dst, mat = self.maps[m]
        if i == self.zero[src]:  # m(0) = 0, exactly
            return self.zero[dst]
        out = self._images.get((m, i))
        if out is None:
            rep = self._reps[src][i]
            out = self.intern(dst, image_basis(mat @ rep.basis, scale=self._norm(m)))
            self._images[(m, i)] = out
        return out

    def _preimage_part(self, m: int, i: int) -> int:
        """Preimage under map m of part i at its dst."""
        src, dst, mat = self.maps[m]
        if i == self.full[dst]:  # m^-1(V) = V, exactly
            return self.full[src]
        out = self._preimages.get((m, i))
        if out is None:
            # the kernel of (I - P) m, cut at |m|: where m lands inside
            # the part, the product is roundoff at scale |m|, not full rank
            rep = self._reps[dst][i]
            out = self.intern(src, kernel_basis(
                (np.eye(rep.ambient_dim, dtype=complex) - rep.projector()) @ mat,
                scale=self._norm(m)))
            self._preimages[(m, i)] = out
        return out

    def sum(self, g: tuple, h: tuple) -> tuple:
        return g if g == h else tuple(map(self.sum_part, range(len(g)), g, h))

    def meet(self, g: tuple, h: tuple) -> tuple:
        return g if g == h else tuple(map(self.meet_part, range(len(g)), g, h))

    def image(self, g: tuple) -> tuple:
        """Sum over the maps of their images of g, zero where none lands."""
        parts = list(self.zero)
        for m, (src, dst, _) in enumerate(self.maps):
            parts[dst] = self.sum_part(dst, parts[dst], self._image_part(m, g[src]))
        return tuple(parts)

    def preimage(self, g: tuple) -> tuple:
        """Intersection over the maps of their preimages of g, full where none starts."""
        parts = list(self.full)
        for m, (src, dst, _) in enumerate(self.maps):
            parts[src] = self.meet_part(src, parts[src], self._preimage_part(m, g[dst]))
        return tuple(parts)


def _closure(w: GradedSubspace, maps, table: _PartTable | None, step) -> GradedSubspace:
    """Fixed point of g -> step(table, g) from w, in table or a new one;
    step is monotone in dimension, so ambient + 1 rounds reach it.  0 and
    V are fixed points of either step, exactly."""
    if table is None:
        table = _PartTable({k: s.ambient_dim for k, s in w.parts.items()}, maps)
    g = table.ids(w)
    if g == table.zero or g == table.full:
        return table.graded(g)
    for _ in range(table.ambient + 1):
        g, prev = step(table, g), g
        if table.dim(g) == table.dim(prev):
            break
    return table.graded(g)


def largest_invariant_graded(w: GradedSubspace, maps,
                             table: _PartTable | None = None) -> GradedSubspace:
    """Largest graded subspace of w respected by all maps.

    table: the part table of an enclosing search, built from the same
    maps, whose interned parts and memoised results to share.
    """
    return _closure(w, maps, table, lambda t, g: t.meet(g, t.preimage(g)))


def smallest_invariant_graded(w: GradedSubspace, maps,
                              table: _PartTable | None = None) -> GradedSubspace:
    """Smallest graded subspace containing w respected by all maps.

    table: as in largest_invariant_graded.
    """
    return _closure(w, maps, table, lambda t, g: t.sum(g, t.image(g)))


def _eigenspace_seeds(endos) -> list:
    """(key, generalized eigenspace) of each eigenvalue cluster of each
    (key, endomorphism of that key's space)."""
    seeds = []
    for key, m in endos:
        m = np.asarray(m, dtype=complex)
        n = m.shape[0]
        if n == 0:
            continue
        eigvals = np.linalg.eigvals(m)
        scale = max(1.0, float(np.max(np.abs(eigvals))) if eigvals.size else 1.0)
        clusters: list[list] = []
        for ev in eigvals:
            for c in clusters:
                if abs(ev - c[0]) <= EIGENVALUE_CLUSTER_TOL * scale:
                    c.append(ev)
                    break
            else:
                clusters.append([ev])
        for cluster in clusters:
            # roundoff splits a defective eigenvalue into roots around it
            # whose mean is accurate; the power is then pure roundoff on the
            # generalized eigenspace, so its cutoff is relative to the power's
            # honest scale |m - lam|^n, not to its own largest singular value
            shifted = m - np.mean(cluster) * np.eye(n)
            seeds.append((key, kernel_basis(np.linalg.matrix_power(shifted, n),
                                            scale=float(np.linalg.norm(shifted, 2)) ** n)))
    return seeds


def _lattice_ids(table: _PartTable, maps, seeds):
    """candidate_lattice's elements as part-id tuples, each yielded as it
    joins; the eigenspace seeds are computed only once 0, V and the
    given seeds have been read, and each is padded by 0, then by V."""
    unique, seen = [], set()

    def heads():
        yield table.zero
        yield table.full
        yield from map(table.ids, seeds)
        endos = [(key, m) for key, dst, m in maps if key == dst]
        for key, gen in _eigenspace_seeds(endos):
            j = table.pos[key]
            i = table.intern(j, gen)
            for pad in (table.zero, table.full):
                yield pad[:j] + (i,) + pad[j + 1:]

    def steps(frontier):
        for g in frontier:
            if len(unique) >= LATTICE_CAP:
                return
            yield table.image(g)
            yield table.preimage(g)
        for g in frontier:
            for other in unique[:LATTICE_CAP]:
                if len(unique) >= LATTICE_CAP:
                    return
                yield table.sum(g, other)
                yield table.meet(g, other)

    def fresh(gs, into: list):
        for g in gs:
            if g not in seen:
                seen.add(g)
                unique.append(g)
                into.append(g)
                yield g

    frontier = []
    yield from fresh(heads(), frontier)
    for _ in range(LATTICE_DEPTH):
        new_frontier = []
        yield from fresh(steps(frontier), new_frontier)
        if not new_frontier:
            return
        frontier = new_frontier


def candidate_lattice(dims: dict, maps, seeds, stop, table: _PartTable | None = None) -> list:
    """Graded subspaces closed under images, preimages, sums, intersections.

    Starts from {0, V} plus the given seeds plus generalized eigenspaces
    of the maps whose source key is their target key (a bow's B's and
    one-segment self-edges, a quiver's loops), and closes LATTICE_DEPTH
    rounds with LATTICE_CAP as a hard cap on the candidate count; the
    consumers are falsifiers, so an incomplete lattice is safe.
    Elements whose parts all lie within SAME_SUBSPACE_TOL of an earlier
    element's count once.

    stop is called on each element as it joins, in that order; the
    lattice grows only as far as stop reads it, and ends with the first
    element for which stop is true (a search's witness).  A stop that is
    never true gives the whole lattice.

    table: the part table of an enclosing search, built from the same
    dims and maps, whose interned parts and memoised results to share.
    """
    if table is None:
        table = _PartTable(dims, maps)
    lattice = []
    for g in _lattice_ids(table, maps, seeds):
        lattice.append(table.graded(g))
        if stop(lattice[-1]):
            break
    return lattice


# --- the kernel/image stability engine ------------------------------------------

# The iso tests rank a product with a against a cutoff relative to |a|:
# where a kills the part, the product is roundoff at that scale.


def _restricts_iso(a, lo: Subspace, hi: Subspace) -> bool:
    """a maps lo isomorphically onto hi."""
    if lo.dim != hi.dim:
        return False
    return lo.dim == 0 or rank(a @ lo.basis, scale=_op_norm(a)) == lo.dim


def _descends_iso(a, lo: Subspace, hi: Subspace) -> bool:
    """a induces an isomorphism C^n_lo / lo -> C^n_hi / hi."""
    codim = lo.ambient_dim - lo.dim
    if codim != hi.ambient_dim - hi.dim:
        return False
    if codim == 0:
        return True
    comp = kernel_basis(lo.basis.conj().T).basis if lo.dim else np.eye(lo.ambient_dim)
    quotient = (np.eye(hi.ambient_dim) - hi.projector()) @ a @ comp
    return rank(quotient, scale=_op_norm(a)) == codim


def _destabilizes(g: GradedSubspace, clause: str, dims: dict, weights: dict,
                  stable: bool) -> bool:
    if clause == "kernel":
        pairing = sum(weights[k] * g.dim(k) for k in dims)
        return pairing > 0 or (stable and g.total_dim() > 0 and pairing >= 0)
    copairing = sum(weights[k] * (n - g.dim(k)) for k, n in dims.items())
    proper = g.total_dim() < sum(dims.values())
    return copairing < 0 or (stable and proper and copairing <= 0)


def _snapped(groups) -> list:
    """Each group of (..., matrix) items with its roundoff matrices read as
    exact zeros, whose noise ranks would poison every image and preimage
    (see snap_roundoff, given every matrix of every group at once)."""
    groups = [list(g) for g in groups]
    out = iter(snap_roundoff([item[-1] for g in groups for item in g]))
    return [[(*item[:-1], next(out)) for item in g] for g in groups]


def _qualifies(g: GradedSubspace, clause: str, dims: dict, maps, links, weights: dict,
               stable: bool) -> bool:
    """g, which lies in the kernels (kernel clause) or contains the images
    (image clause), destabilizes: it has the clause's sign, every link is
    an isomorphism on it or on the quotients, and it is invariant."""
    iso = _restricts_iso if clause == "kernel" else _descends_iso
    return (_destabilizes(g, clause, dims, weights, stable)
            and all(iso(a, g.parts[lo], g.parts[hi]) for lo, hi, a in links)
            and is_invariant(g, maps))


# The key of a frame map's end in _is_destabilizer: equal to no key of the
# caller's, which may be any hashable, tuples included.
_FRAME = object()


def _is_destabilizer(g: GradedSubspace, clause: str, dims: dict, maps, kernel_maps,
                     image_maps, weights: dict, links, stable: bool) -> bool:
    """Whether g, found by some other search, is a witness that
    find_destabilizer on these arguments could return for clause: on the
    snapped matrices, g lies in every kernel map's kernel (kernel clause)
    or contains every image map's image (image clause), and qualifies.

    Containment is invariance under the frame maps: Ker m holds g_key
    when m sends g_key into the zero subspace, and g_key holds Im m when
    m sends the whole source into g_key, by is_invariant's rule."""
    maps, kernel_maps, image_maps, links = _snapped((maps, kernel_maps, image_maps, links))
    parts, frame_maps = dict(g.parts), []
    for j, (key, m) in enumerate(kernel_maps if clause == "kernel" else image_maps):
        frame = (_FRAME, j)
        if clause == "kernel":
            parts[frame] = Subspace.zero(m.shape[0])
            frame_maps.append((key, frame, m))
        else:
            parts[frame] = Subspace.full(m.shape[1])
            frame_maps.append((frame, key, m))
    return (is_invariant(GradedSubspace(parts), frame_maps)
            and _qualifies(g, clause, dims, maps, links, weights, stable))


def _closed_supports(required: list):
    """The bitmasks over len(required) bits that hold required[j] wherever
    they hold bit j, in increasing order, as consecutive sorted lists of
    ints: the unions of the bits' closures, which Warshall's algorithm
    gives over bitmasks.  Each list is built from at most CHUNK_BITS free
    bits, so a search that stops at an early support never builds the
    rest."""
    k = len(required)
    reach = [req | 1 << j for j, req in enumerate(required)]
    for m in range(k):
        reach = [r | reach[m] if r >> m & 1 else r for r in reach]

    def chunks(free: int, fixed: int):
        # the closed supports that hold fixed and lie within free | fixed,
        # where fixed is closed and every free bit's closure lies there too
        if free.bit_count() <= CHUNK_BITS:
            closed = {fixed}
            for closure in {reach[j] | fixed for j in range(k) if free >> j & 1}:
                closed |= {c | closure for c in closed}
            yield sorted(closed)
            return
        # those without the top free bit h, then those with it
        h = free.bit_length() - 1
        yield from chunks(free & ~sum(1 << j for j in range(k) if reach[j] >> h & 1), fixed)
        yield from chunks(free & ~reach[h], fixed | reach[h])

    yield from chunks((1 << k) - 1, 0)


def _support_bits(dims: dict, maps, kernel_maps, image_maps, links):
    """exact01's data over the dimension-one keys of dims, bit pos[k] for key
    k, each matrix read as nonzero or not at the scale of them all (one
    _nonzero_flags call): pos; required[j], the bits that a support holding
    bit j must hold; avoid and cover, the bits a support must avoid to lie in
    the kernels and hold to contain the images; the (lo, hi) bits of the
    nonzero links.

    A link (lo, hi, A), with n the dimensions, restricts to an isomorphism on a
    support s when s_lo = s_hi and (s_lo = 0 or A != 0), and descends to one on
    the quotients when n_lo - s_lo = n_hi - s_hi and (that codimension is 0 or
    A != 0).  So a link with A != 0, where n_lo = n_hi = 1, asks s_lo = s_hi of
    both clauses, and one with A = 0 asks the kernel clause to avoid its
    dimension-one keys and the image clause to hold them."""
    pos = {k: j for j, k in enumerate(k for k, n in dims.items() if n == 1)}
    groups = (maps, kernel_maps, image_maps, links)
    flags = iter(_nonzero_flags([item[-1] for group in groups for item in group]))
    # with every dimension <= 1, a nonzero matrix joins two dimension-one
    # keys, and a support holding its src must hold its dst
    required = [0] * len(pos)
    for src, dst, _ in maps:
        if next(flags) and src != dst:
            required[pos[src]] |= 1 << pos[dst]
    avoid = sum({1 << pos[key] for key, _ in kernel_maps if next(flags)})
    cover = sum({1 << pos[key] for key, _ in image_maps if next(flags)})
    pairs = []
    for src, dst, _ in links:
        if next(flags):
            pairs.append((pos[src], pos[dst]))
        else:
            ends = sum({1 << pos[k] for k in (src, dst) if k in pos})
            avoid, cover = avoid | ends, cover | ends
    return pos, required, avoid, cover, pairs


def _exact01(dims: dict, maps, kernel_maps, image_maps, weights: dict, links,
             stable: bool) -> StabilityVerdict:
    """find_destabilizer's verdict with every dimension <= 1, on the bits of
    _support_bits: the first closed (so invariant) support that qualifies, 0
    first, kernel clause first, each tested by int operations on its bitmask,
    cheapest test first: the clause's bits and those its sign needs, the
    pairing (per distinct weight, the weight times the support's count of its
    bits: exact at any size), the signs of _destabilizes, then the links."""
    pos, required, avoid, cover, pairs = _support_bits(dims, maps, kernel_maps, image_maps, links)
    terms = [(w, sum(1 << j for k, j in pos.items() if weights[k] == w))
             for w in dict.fromkeys(weights[k] for k in pos) if w]
    plus, minus = (sum(bits for w, bits in terms if sign * w > 0) for sign in (1, -1))
    total = sum(w * bits.bit_count() for w, bits in terms)   # the copairing of 0
    full = (1 << len(pos)) - 1
    searched = 0
    for chunk in _closed_supports(required):
        for mask in chunk:
            # a pairing > 0 needs a positive weight in S (>= 0: or no negative
            # one), a copairing < 0 a negative one outside S (<= 0: or no positive)
            kernel = not mask & avoid and (mask & plus or stable and not mask & minus)
            image = (mask & cover == cover
                     and (mask & minus != minus or stable and mask & plus == plus))
            if not (kernel or image):
                continue
            pairing = 0
            for w, bits in terms:
                pairing += w * (mask & bits).bit_count()
            if stable:
                kernel = kernel and pairing >= 0 and mask != 0
                image = image and pairing >= total and mask != full
            else:
                kernel, image = kernel and pairing > 0, image and pairing > total
            if (kernel or image) and all(mask >> lo & 1 == mask >> hi & 1 for lo, hi in pairs):
                witness = _support(dims, {k for k, j in pos.items() if mask >> j & 1})
                return StabilityVerdict("unstable", witness, "kernel" if kernel else "image",
                                        searched + chunk.index(mask) + 1)
        searched += len(chunk)
    return StabilityVerdict("semistable", searched=searched)


def _lattice_search(dims: dict, maps, kernel_maps, image_maps, weights: dict, links,
                    stable: bool) -> StabilityVerdict:
    """find_destabilizer's verdict above dimension 1, on the snapped
    matrices: the candidate lattice's elements are tested as they join,
    each as the pair: the largest invariant subspace inside it and the
    kernels, then the smallest invariant one containing it and the
    images.  The first that qualifies is the witness."""
    maps, kernel_maps, image_maps, links = _snapped((maps, kernel_maps, image_maps, links))
    table = _PartTable(dims, maps)
    ker, im = list(table.full), list(table.zero)
    for key, m in kernel_maps:
        j = table.pos[key]
        ker[j] = table.meet_part(j, ker[j], table.intern(j, kernel_basis(m)))
    for key, m in image_maps:
        j = table.pos[key]
        im[j] = table.sum_part(j, im[j], table.intern(j, image_basis(m)))
    ker, im = tuple(ker), tuple(im)
    found = []

    def tries(cand):
        g = table.ids(cand)
        yield "kernel", largest_invariant_graded(table.graded(table.meet(g, ker)), maps, table)
        yield "image", smallest_invariant_graded(table.graded(table.sum(g, im)), maps, table)

    def stop(cand) -> bool:
        for clause, g in tries(cand):
            if _qualifies(g, clause, dims, maps, links, weights, stable):
                found.append((clause, g))
                return True
        return False

    seeds = [table.graded(ker), table.graded(im)]
    searched = len(candidate_lattice(dims, maps, seeds, stop, table))
    if found:
        return StabilityVerdict("unstable", found[0][1], found[0][0], searched)
    return StabilityVerdict("not-falsified", searched=searched, capped=searched >= LATTICE_CAP)


def _check_mode(mode: str, dims: dict, weights: dict, stable: bool, name) -> None:
    """The input check that is all check_semistable's and rep_semistable's
    mode does: ValueError for an unknown mode, and for exact01
    Exact01Unavailable naming by name(key) the first key of dims above
    dimension 1, unless zero weights decide (not stable) without a test."""
    if mode not in ("exact01", "heuristic"):
        raise ValueError(f"unknown mode {mode!r}; expected 'exact01' or 'heuristic'")
    big = [k for k, n in dims.items() if n > 1]
    if mode == "exact01" and big and (stable or any(weights.values())):
        raise Exact01Unavailable(f"exact01 requires every dimension <= 1; "
                                 f"{name(big[0])} has dimension {dims[big[0]]}")


def find_destabilizer(dims: dict, maps, kernel_maps, image_maps, weights: dict,
                      links=(), stable: bool = False) -> StabilityVerdict:
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

    Matrices with no entry above zero_cutoff(largest entry of any matrix
    passed) read as exact zeros.  Where every dimension is <= 1 the
    invariant 0/1 supports decide exactly.  Above, candidate_lattice is
    searched, seeded with the generalized eigenspaces of the maps from a
    key to itself, growing it only until an element yields a witness:
    "unstable" comes with a checked witness, "not-falsified" is not a
    proof.  The verdict records how much was searched and whether the
    lattice was capped.
    """
    if not stable and all(val == 0 for val in weights.values()):
        return StabilityVerdict("semistable")
    search = _exact01 if all(n <= 1 for n in dims.values()) else _lattice_search
    return search(dims, maps, kernel_maps, image_maps, weights, links, stable)
