"""Complex dense linear algebra and the package's one tolerance policy.

Every numerical cutoff outside the solver's constants is written here,
and so is every comparison against one: no other module compares a
value with a tolerance.  One rule per question: one singular-value cut,
RANK_TOL, for `rank`, the bases, the subspace operations and the two
closures; _is_zero (at most zero_cutoff) and _is_zero_residual (at most
residual_cutoff) for "this is zero" at a given scale, and _zero_slack
for how much the first can let pass; _same_subspace and
_eigenvalue_clusters for the stability lattice's parts and seeds;
whether a matrix is pure roundoff among its problem's is
_nonzero_flags, by _is_zero.  A NaN or an infinity is never zero, never
the same subspace as another and never in an eigenvalue's cluster, so
an overflowed value cannot pass a gate.  No function takes a
tolerance.  _trusted is the package's one way to build a frozen
dataclass past its public constructor's checks, on values it has just
built: an SVD factor's basis, an assembled point, a framed quiver point.

Subspaces are stored as matrices with orthonormal columns.  The
operations (sum, intersection, image under a map) return orthonormal
bases computed by SVD, never raw spanning sets; the two invariant
closures are one orthonormal block-Krylov sweep (Paige's staircase).
The stability search cuts its own images and preimages (graded._PartTable).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

__all__ = [
    "Subspace",
    "as_matrix",
    "matrix_to_json",
    "matrix_from_json",
    "rank",
    "zero_cutoff",
    "residual_cutoff",
    "snap_roundoff",
    "kernel_basis",
    "image_basis",
    "subspace_sum",
    "subspace_intersection",
    "subspace_image",
    "largest_invariant_inside",
    "smallest_invariant_containing",
]


# Relative singular-value cutoff for every rank decision, and the
# relative size below which a matrix counts as zero.
RANK_TOL = 1e-9

# A residual norm (condition (a), the moment map on a fiber, chart round
# trips) is zero below this share of its data's scale; the solver's own
# stopping rule is in `solve`.
RESIDUAL_CUTOFF_TOL = 1e-10

# Two subspaces of one key are the same part when their projectors
# differ by at most this much (Frobenius norm).  It sits far above the
# roundoff an SVD leaves in an orthonormal basis and far below the
# distance between the distinct subspaces the stability lattice keeps
# apart; the lattice's membership depends on it.
SAME_SUBSPACE_TOL = 1e-8

# A user-supplied Subspace basis is orthonormal when its Gram matrix is
# within this of the identity, entry by entry.
ORTHONORMAL_TOL = 1e-10

# Eigenvalues within this share of max(1, spectral radius) are one
# cluster: roundoff splits a defective eigenvalue into nearby roots.
EIGENVALUE_CLUSTER_TOL = 1e-6


def as_matrix(m, rows=None, cols=None) -> np.ndarray:
    """Coerce to a finite 2-d complex array, optionally checking shape."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    if rows is not None and a.shape[0] != rows:
        raise ValueError(f"expected {rows} rows, got {a.shape[0]}")
    if cols is not None and a.shape[1] != cols:
        raise ValueError(f"expected {cols} columns, got {a.shape[1]}")
    return a


def _trusted(cls, *values):
    """cls(*values) for a frozen dataclass, fields set in declaration order
    and __post_init__ skipped: the package's one way past a public
    constructor's checks.  Only for values the package has just built,
    with the types, shapes and invariants that constructor checks;
    input from outside the package goes through cls(...)."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values))
    return obj


def matrix_to_json(m) -> list:
    """Row-major nested list with complex entries as [re, im] pairs: the
    matrix's own doubles, -0.0 included, read by one tolist of its real
    view."""
    a = as_matrix(m)
    return np.ascontiguousarray(a).view(float).reshape(*a.shape, 2).tolist()


def _field(entry: dict, key: str, where: str):
    """entry[key], or a ValueError that names the key and where it is missing."""
    if key not in entry:
        raise ValueError(f"{where} has no {key!r} entry")
    return entry[key]


def matrix_from_json(data, rows: int, cols: int) -> np.ndarray:
    """Inverse of matrix_to_json; shape is taken from the caller, not the data."""
    a = np.zeros((rows, cols), dtype=complex)
    if len(data) != rows:
        raise ValueError(f"expected {rows} rows, got {len(data)}")
    for i, row in enumerate(data):
        if len(row) != cols:
            raise ValueError(f"row {i}: expected {cols} entries, got {len(row)}")
        for j, pair in enumerate(row):
            re, im = pair
            try:
                a[i, j] = complex(re, im)
            except OverflowError as err:   # a JSON integer beyond float range
                raise ValueError(f"row {i}, entry {j}: {err}") from err
    if not np.isfinite(a).all():   # json reads NaN and Infinity
        raise ValueError("matrix has non-finite entries")
    return a


def _cut(s: np.ndarray, scale: float | None) -> int:
    """How many of the descending singular values s count: those above
    RANK_TOL times the largest of them, or times scale when larger."""
    top = max(float(s[0]), scale or 0.0) if s.size else (scale or 0.0)
    return int(np.sum(s > RANK_TOL * top))


def rank(m, scale: float | None = None) -> int:
    """Numerical rank; `scale` as in kernel_basis."""
    a = as_matrix(m)
    if a.size == 0:
        return 0
    return _cut(np.linalg.svd(a, compute_uv=False), scale)


def zero_cutoff(scale: float) -> float:
    """Entries of a map at most this are roundoff on data of magnitude
    scale: RANK_TOL relative to scale, absolute below scale 1."""
    return RANK_TOL * max(1.0, scale)


def residual_cutoff(scale: float) -> float:
    """A residual norm at most this is zero on data of magnitude scale."""
    return RESIDUAL_CUTOFF_TOL * max(1.0, scale)


# The rules below are the only comparisons with a tolerance in the
# package.  Each cut is clamped to the largest finite float, so a NaN
# or an infinity is never within it, while at an infinite scale (the
# size of data whose magnitude overflowed) every finite value still is.

_FLOAT_MAX = sys.float_info.max


def _is_zero(value, scale: float):
    """linalg's zero rule: whether value, a norm or an entry's size (a
    float, or an array of them read elementwise), is roundoff on data of
    magnitude scale: finite and at most zero_cutoff(scale)."""
    return value <= min(zero_cutoff(scale), _FLOAT_MAX)


def _is_zero_residual(res: float, scale: float) -> bool:
    """Whether a residual norm is zero on data of magnitude scale:
    finite and at most residual_cutoff(scale)."""
    return res <= min(residual_cutoff(scale), _FLOAT_MAX)


def _zero_slack(norm: float, count: int) -> float:
    """A bound on the trace error of what the zero rule lets pass in
    count tests against maps of total Frobenius norm `norm`: a residual
    of zero_cutoff(norm) per map, times norm, count times."""
    return zero_cutoff(norm) * norm * count


def _same_subspace(projs: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """Whether each projector stacked in projs projects onto proj's
    subspace: their difference is at most SAME_SUBSPACE_TOL in
    Frobenius norm."""
    return np.linalg.norm(projs - proj, axis=(1, 2)) <= SAME_SUBSPACE_TOL


def _eigenvalue_clusters(eigvals: np.ndarray) -> list:
    """The eigenvalues grouped into clusters, lists in order of their
    first members: each joins the first cluster whose first member lies
    within EIGENVALUE_CLUSTER_TOL * max(1, spectral radius) of it, at a
    finite distance, or starts a new one."""
    radius = float(np.max(np.abs(eigvals))) if eigvals.size else 1.0
    cut = min(EIGENVALUE_CLUSTER_TOL * max(1.0, radius), _FLOAT_MAX)
    clusters: list[list] = []
    for ev in eigvals:
        for c in clusters:
            if abs(ev - c[0]) <= cut:
                c.append(ev)
                break
        else:
            clusters.append([ev])
    return clusters


def _largest_entry(*mats) -> float:
    """Largest entry magnitude over the matrices; 0 when all are empty."""
    return max((float(np.abs(m).max()) for m in mats if m.size), default=0.0)


def _nonzero_flags(mats) -> list:
    """Whether each matrix is nonzero at the scale of them all: whether
    its largest entry, read from one array of all their entries, is
    not zero by _is_zero at the largest entry of any of them.  An empty
    one is not.

    Where no matrix has more than one entry, as at a bow point whose
    dimensions are all <= 1, that array is of their items, an empty
    matrix's read as 0, with no concatenation or per-matrix maximum."""
    sizes = [m.size for m in mats]
    if max(sizes, default=0) <= 1:
        tops = np.abs(np.array([m.item() if n else 0 for m, n in zip(mats, sizes)], dtype=complex))
    else:
        full = [j for j, n in enumerate(sizes) if n]
        tops = np.zeros(len(mats))
        tops[full] = np.maximum.reduceat(
            np.abs(np.concatenate([mats[j].ravel() for j in full])),
            list(accumulate((sizes[j] for j in full[:-1]), initial=0)))
    return (~_is_zero(tops, float(tops.max(initial=0.0)))).tolist()


def snap_roundoff(mats) -> list:
    """mats, each one that _nonzero_flags reads as zero (its entries all
    within zero_cutoff(largest entry of any of them)) replaced by an
    exact zero matrix.

    Rank decisions are relative to a matrix's own largest singular
    value, so a matrix made of pure roundoff reads as full rank.  A
    caller snaps together the matrices of one problem, whose largest
    entry is the honest scale of its data, before asking rank questions
    about them.  Never zeroes individual entries.
    """
    return [m if nonzero or not m.size else np.zeros_like(m)
            for m, nonzero in zip(mats, _nonzero_flags(mats))]


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^ambient_dim spanned by orthonormal columns of basis."""

    ambient_dim: int
    basis: np.ndarray  # (ambient_dim, dim), orthonormal columns

    def __post_init__(self):
        b = as_matrix(self.basis, rows=self.ambient_dim)
        object.__setattr__(self, "basis", b)
        if b.shape[1] > self.ambient_dim:
            raise ValueError("more basis vectors than ambient dimension")
        gram = b.conj().T @ b
        if gram.size and np.max(np.abs(gram - np.eye(b.shape[1]))) > ORTHONORMAL_TOL:
            raise ValueError("basis columns are not orthonormal")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return _trusted(Subspace, ambient_dim, np.zeros((ambient_dim, 0), dtype=complex))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return _trusted(Subspace, ambient_dim, np.eye(ambient_dim, dtype=complex))

    @staticmethod
    def span(vectors) -> "Subspace":
        """Subspace spanned by the columns of `vectors` (need not be independent)."""
        return image_basis(vectors)


def kernel_basis(m, scale: float | None = None) -> Subspace:
    """Orthonormal basis of the (right) null space of m.

    The rank cutoff is relative to the largest singular value, or to
    `scale` when the caller knows the natural magnitude of m and m
    itself may be pure roundoff (e.g. a difference of unit projectors).
    """
    a = as_matrix(m)
    n = a.shape[1]
    if a.size == 0:
        return Subspace.full(n)
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    return _trusted(Subspace, n, vh[_cut(s, scale):].conj().T)


def image_basis(m, scale: float | None = None) -> Subspace:
    """Orthonormal basis of the column space of m.

    `scale` plays the same role as in kernel_basis: the natural
    magnitude of m when m itself may be all roundoff.
    """
    a = as_matrix(m)
    n = a.shape[0]
    if a.size == 0:
        return Subspace.zero(n)
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    return _trusted(Subspace, n, u[:, :_cut(s, scale)])


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    return image_basis(np.hstack([a.basis, b.basis]))


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the stacked complementary projectors.

    x is in both spaces iff (I - P_a) x = 0 and (I - P_b) x = 0, so the
    intersection is the kernel of the stacked constraint matrix.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    n = a.ambient_dim
    eye = np.eye(n, dtype=complex)
    stacked = np.vstack([eye - a.projector(), eye - b.projector()])
    # the constraint rows are differences of unit projectors, so their
    # honest scale is 1; a purely relative cutoff would mistake the
    # roundoff left by two (nearly) identical subspaces for full rank
    return kernel_basis(stacked, scale=1.0)


def _op_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2)) if a.size else 0.0


def subspace_image(op, s: Subspace) -> Subspace:
    """op(S) for a linear map given as a matrix acting from the left, cut
    at op's spectral norm."""
    a = as_matrix(op, cols=s.ambient_dim)
    return image_basis(a @ s.basis, scale=_op_norm(a))


def _sweep(w: Subspace, ops) -> Subspace:
    """Smallest subspace containing w and stable under every op, by one
    orthonormal block-Krylov sweep: each step stacks every op's image of
    the newest block, projects the basis found so far out of it twice,
    and keeps what passes the cut at the largest op norm."""
    if not ops or w.dim in (0, w.ambient_dim):
        return w
    scale = max(_op_norm(op) for op in ops)
    basis = new = w.basis
    while new.shape[1] and basis.shape[1] < w.ambient_dim:
        x = np.hstack([op @ new for op in ops])
        for _ in range(2):
            x = x - basis @ (basis.conj().T @ x)
        u, s, _ = np.linalg.svd(x, full_matrices=False)
        new = u[:, :_cut(s, scale)]
        basis = np.hstack([basis, new])
    return _trusted(Subspace, w.ambient_dim, basis)


def _complement(s: Subspace) -> Subspace:
    return kernel_basis(s.basis.conj().T)


def largest_invariant_inside(w: Subspace, ops) -> Subspace:
    """Largest subspace of w mapped into itself by every op in ops: the
    complement of the sweep of w's complement under the adjoints."""
    n = w.ambient_dim
    return _complement(_sweep(_complement(w), [as_matrix(op, n, n).conj().T for op in ops]))


def smallest_invariant_containing(w: Subspace, ops) -> Subspace:
    """Smallest subspace containing w and stable under every op (Krylov closure)."""
    return _sweep(w, [as_matrix(op, w.ambient_dim, w.ambient_dim) for op in ops])
