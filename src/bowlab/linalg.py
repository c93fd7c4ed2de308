"""Complex dense linear algebra with a single rank cutoff.

Everything downstream (kernels, images, subspace lattices, invariant
subspaces) funnels through `rank` so there is exactly one knob to turn
when an instance is badly scaled: `Tolerances.rank_tol`, a cutoff
relative to the largest singular value.

Subspaces are stored as matrices with orthonormal columns.  All
operations (sum, intersection, image, preimage) return orthonormal
bases computed by SVD, never raw spanning sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerances",
    "Subspace",
    "as_matrix",
    "matrix_to_json",
    "matrix_from_json",
    "rank",
    "snap_small_to_zero",
    "kernel_basis",
    "image_basis",
    "subspace_sum",
    "subspace_intersection",
    "subspace_image",
    "subspace_preimage",
    "in_subspace",
    "largest_invariant_inside",
    "smallest_invariant_containing",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical policy shared across the package.

    rank_tol: relative singular value cutoff for every rank decision.
    residual_tol: norm below which a residual counts as zero (solver
        success, moment map membership).
    fd_step: step for central finite differences.
    """

    rank_tol: float = 1e-9
    residual_tol: float = 1e-10
    fd_step: float = 1e-6

    def __post_init__(self):
        if not (0 < self.rank_tol < 1):
            raise ValueError(f"rank_tol must be in (0, 1), got {self.rank_tol}")
        if self.residual_tol <= 0:
            raise ValueError(f"residual_tol must be positive, got {self.residual_tol}")
        if self.fd_step <= 0:
            raise ValueError(f"fd_step must be positive, got {self.fd_step}")


DEFAULT_TOL = Tolerances()


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


def matrix_to_json(m) -> list:
    """Row-major nested list with complex entries as [re, im] pairs."""
    a = as_matrix(m)
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


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
            a[i, j] = complex(re, im)
    return a


def _svd(m):
    a = as_matrix(m)
    if a.size == 0:
        # numpy's SVD handles empty matrices but the edge cases are easier inline
        k = min(a.shape)
        return (
            np.zeros((a.shape[0], k), dtype=complex),
            np.zeros(k),
            np.zeros((k, a.shape[1]), dtype=complex),
        )
    return np.linalg.svd(a, full_matrices=True)


def rank(m, tol: Tolerances = DEFAULT_TOL) -> int:
    """Numerical rank: singular values above rank_tol relative to the largest."""
    a = as_matrix(m)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > tol.rank_tol * s[0]))


def snap_small_to_zero(m: np.ndarray, cutoff: float) -> np.ndarray:
    """m itself, or an exact zero matrix when every entry is below cutoff.

    Rank decisions are relative to a matrix's own largest singular
    value, so a matrix made of pure roundoff reads as full rank.  A
    caller that knows the honest scale of its data can snap whole
    noise-level matrices to zero before asking rank questions about
    them.  Never zeroes individual entries.
    """
    if m.size and float(np.max(np.abs(m))) <= cutoff:
        return np.zeros_like(m)
    return m


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
        if gram.size and np.max(np.abs(gram - np.eye(b.shape[1]))) > 1e-10:
            raise ValueError("basis columns are not orthonormal")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, np.zeros((ambient_dim, 0), dtype=complex))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, np.eye(ambient_dim, dtype=complex))

    @staticmethod
    def span(vectors, tol: Tolerances = DEFAULT_TOL) -> "Subspace":
        """Subspace spanned by the columns of `vectors` (need not be independent)."""
        v = as_matrix(vectors)
        return image_basis(v, tol)


def kernel_basis(m, tol: Tolerances = DEFAULT_TOL, scale: float | None = None) -> Subspace:
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
    top = max(float(s[0]), scale or 0.0) if s.size else (scale or 0.0)
    cutoff = tol.rank_tol * top
    r = int(np.sum(s > cutoff))
    return Subspace(n, vh[r:].conj().T)


def image_basis(m, tol: Tolerances = DEFAULT_TOL, scale: float | None = None) -> Subspace:
    """Orthonormal basis of the column space of m.

    `scale` plays the same role as in kernel_basis: the natural
    magnitude of m when m itself may be all roundoff.
    """
    a = as_matrix(m)
    n = a.shape[0]
    if a.size == 0:
        return Subspace.zero(n)
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    top = max(float(s[0]), scale or 0.0) if s.size else (scale or 0.0)
    cutoff = tol.rank_tol * top
    r = int(np.sum(s > cutoff))
    return Subspace(n, u[:, :r])


def subspace_sum(a: Subspace, b: Subspace, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    return image_basis(np.hstack([a.basis, b.basis]), tol)


def subspace_intersection(a: Subspace, b: Subspace, tol: Tolerances = DEFAULT_TOL) -> Subspace:
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
    return kernel_basis(stacked, tol, scale=1.0)


def _op_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2)) if a.size else 0.0


def subspace_image(op, s: Subspace, tol: Tolerances = DEFAULT_TOL,
                   norm: float | None = None) -> Subspace:
    """op(S) for a linear map given as a matrix acting from the left.
    norm is op's spectral norm, the cutoff scale; a caller applying op
    many times passes it, so that it is computed once."""
    a = as_matrix(op, cols=s.ambient_dim)
    return image_basis(a @ s.basis, tol, scale=_op_norm(a) if norm is None else norm)


def subspace_preimage(op, s: Subspace, tol: Tolerances = DEFAULT_TOL,
                      norm: float | None = None) -> Subspace:
    """op^{-1}(S) = { x : op(x) in S }, the kernel of (I - P_S) op; norm
    as in subspace_image."""
    a = as_matrix(op, rows=s.ambient_dim)
    proj_out = np.eye(s.ambient_dim, dtype=complex) - s.projector()
    # cutoff relative to |op|: when op lands (numerically) inside s the
    # product is roundoff at scale |op|, not a full-rank matrix
    return kernel_basis(proj_out @ a, tol, scale=_op_norm(a) if norm is None else norm)


def in_subspace(v, s: Subspace, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether vector v lies in s, relative to the norm of v."""
    vec = np.asarray(v, dtype=complex).reshape(-1)
    if vec.shape[0] != s.ambient_dim:
        raise ValueError("vector has the wrong ambient dimension")
    nv = np.linalg.norm(vec)
    if nv == 0:
        return True
    resid = vec - s.projector() @ vec
    return np.linalg.norm(resid) <= tol.rank_tol * nv


def largest_invariant_inside(w: Subspace, ops, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Largest subspace of w mapped into itself by every op in ops.

    Fixed point of V -> V  cap  (cap over ops of op^{-1} V), starting at w.
    The dimension strictly drops until it stabilizes, so at most
    ambient_dim + 1 rounds run.
    """
    ops = [as_matrix(op, rows=w.ambient_dim, cols=w.ambient_dim) for op in ops]
    norms = [_op_norm(op) for op in ops]
    current = w
    for _ in range(w.ambient_dim + 1):
        refined = current
        for op, norm in zip(ops, norms):
            refined = subspace_intersection(refined, subspace_preimage(op, current, tol, norm),
                                            tol)
        if refined.dim == current.dim:
            return refined
        current = refined
    return current


def smallest_invariant_containing(w: Subspace, ops, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Smallest subspace containing w and stable under every op (Krylov closure)."""
    ops = [as_matrix(op, rows=w.ambient_dim, cols=w.ambient_dim) for op in ops]
    norms = [_op_norm(op) for op in ops]
    current = w
    for _ in range(w.ambient_dim + 1):
        grown = current
        for op, norm in zip(ops, norms):
            grown = subspace_sum(grown, subspace_image(op, current, tol, norm), tol)
        if grown.dim == current.dim:
            return grown
        current = grown
    return current
