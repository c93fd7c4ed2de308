"""Rank, subspaces, and invariant-subspace fixed points.

The invariant-subspace routines are the load-bearing primitives for
every openness and stability check, so they get three independent
oracles: hand-computed rational examples, dimension-count property
tests, and an exact finite-field transcription of the same algorithms
compared against literal enumeration of every subspace of F_p^d.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bowlab import graded, linalg
from bowlab.linalg import (
    ORTHONORMAL_TOL,
    Subspace,
    as_matrix,
    image_basis,
    kernel_basis,
    largest_invariant_inside,
    matrix_from_json,
    matrix_to_json,
    rank,
    smallest_invariant_containing,
    subspace_image,
    subspace_intersection,
    subspace_sum,
    zero_cutoff,
)

from conftest import cgauss


# --- hand-computed cases ----------------------------------------------------


def test_rank_hand_cases():
    assert rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1
    assert rank(np.eye(3)) == 3
    assert rank(np.zeros((2, 5))) == 0
    assert rank(np.zeros((0, 3))) == 0


def _rank_cases(rng):
    """(matrix, scale) pairs: full rank, rank deficient, roundoff-level
    (a times a basis of a part that a kills), and empty."""
    a = cgauss(rng, 5, 2) @ cgauss(rng, 2, 6)
    killed = kernel_basis(a).basis
    return [
        (cgauss(rng, 4, 6), None),
        (cgauss(rng, 6, 3), 10.0),
        (a, None),
        (a, float(np.linalg.norm(a, 2))),
        (a @ killed, None),
        (a @ killed, float(np.linalg.norm(a, 2))),
        (np.zeros((0, 3)), None),
        (np.zeros((4, 0)), 1.0),
    ]


@pytest.mark.parametrize("seed", range(5))
def test_rank_matches_image_basis(seed):
    # rank takes values only; image_basis a full SVD: one cut for both
    for m, scale in _rank_cases(np.random.default_rng(seed)):
        assert rank(m, scale) == image_basis(m, scale).dim


def test_kernel_and_image_hand_cases():
    m = np.array([[1.0, 0.0], [0.0, 0.0]])
    k = kernel_basis(m)
    assert k.dim == 1
    assert np.allclose(k.projector() @ [0.0, 1.0], [0.0, 1.0])
    im = image_basis(m)
    assert im.dim == 1
    assert np.allclose(im.projector() @ [1.0, 0.0], [1.0, 0.0])


def test_sum_intersection_hand_case():
    e1 = Subspace.span(np.array([[1.0], [0.0], [0.0]]))
    e12 = Subspace.span(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    e23 = Subspace.span(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert subspace_sum(e12, e23).dim == 3
    inter = subspace_intersection(e12, e23)
    assert inter.dim == 1
    assert np.allclose(inter.projector() @ [0.0, 1.0, 0.0], [0.0, 1.0, 0.0])
    assert subspace_intersection(e1, e23).dim == 0


def _table_preimage(op, s: Subspace) -> Subspace:
    """op^{-1}(S), as the stability search's part table cuts it."""
    op = np.asarray(op, dtype=complex)
    table = graded._PartTable({"src": op.shape[1], "dst": op.shape[0]}, [("src", "dst", op)])
    return table._reps[0][table._preimage_part(0, table.intern(1, s))]


def test_preimage_hand_case():
    # m sends e1 -> e1, e2 -> 0; preimage of span(e1) is everything
    m = np.array([[1.0, 0.0], [0.0, 0.0]])
    w = Subspace.span(np.array([[1.0], [0.0]]))
    assert _table_preimage(m, w).dim == 2
    # preimage of 0 is the kernel
    assert _table_preimage(m, Subspace.zero(2)).dim == 1


def test_largest_invariant_inside_jordan_block():
    # shift J: e2 -> e1, e3 -> e2, e1 -> 0; invariant subspaces are the flags
    J = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    w12 = Subspace.span(np.eye(3)[:, :2])
    got = largest_invariant_inside(w12, [J])
    assert got.dim == 2  # span(e1, e2) is already J-invariant
    # the invariant subspaces of the shift are the flags span(e1..ek);
    # none of positive dim fits inside span(e2, e3), so the answer is 0
    w23 = Subspace.span(np.eye(3)[:, 1:])
    got = largest_invariant_inside(w23, [J])
    assert got.dim == 0


def test_largest_invariant_inside_jordan_block_exact():
    J = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    # inside span(e1, e3): J e3 = e2 escapes, J e1 = 0 stays -> span(e1)
    w13 = Subspace.span(np.eye(3)[:, [0, 2]])
    got = largest_invariant_inside(w13, [J])
    assert got.dim == 1
    assert np.allclose(got.projector() @ [1.0, 0.0, 0.0], [1.0, 0.0, 0.0])


def test_smallest_invariant_containing_jordan_block():
    J = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    e3 = Subspace.span(np.eye(3)[:, 2:])
    got = smallest_invariant_containing(e3, [J])
    assert got.dim == 3  # e3 generates the whole chain
    e1 = Subspace.span(np.eye(3)[:, :1])
    assert smallest_invariant_containing(e1, [J]).dim == 1


def test_two_operator_invariance():
    # rotation + projection leave only 0 and the plane invariant; the
    # projection alone also keeps its range span(e1)
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    proj = np.array([[1.0, 0.0], [0.0, 0.0]])
    w = Subspace.span(np.array([[1.0], [0.0]]))
    assert largest_invariant_inside(w, [proj]).dim == 1
    assert smallest_invariant_containing(w, [proj]).dim == 1
    assert largest_invariant_inside(w, [proj, rot]).dim == 0
    assert smallest_invariant_containing(w, [proj, rot]).dim == 2


# --- property tests ---------------------------------------------------------


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_rank_nullity(rows, cols, seed):
    m = cgauss(np.random.default_rng(seed), rows, cols)
    assert rank(m) + kernel_basis(m).dim == cols
    assert rank(m) == image_basis(m).dim


@given(st.integers(1, 4), st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_sum_intersection_dimension_count(n, seed):
    rng = np.random.default_rng(seed)
    u = Subspace.span(cgauss(rng, n, rng.integers(0, n + 1)))
    w = Subspace.span(cgauss(rng, n, rng.integers(0, n + 1)))
    s = subspace_sum(u, w)
    i = subspace_intersection(u, w)
    assert s.dim + i.dim == u.dim + w.dim


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_image_preimage_adjunction(n, m, seed):
    rng = np.random.default_rng(seed)
    a = cgauss(rng, m, n)
    w = Subspace.span(cgauss(rng, m, rng.integers(0, m + 1)))
    pre = _table_preimage(a, w)
    # a maps the preimage into w
    img = subspace_image(a, pre)
    if img.dim:
        proj = w.projector()
        assert np.linalg.norm(img.basis - proj @ img.basis) < 1e-9


@given(st.integers(1, 4), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_invariant_outputs_are_invariant(n, seed):
    rng = np.random.default_rng(seed)
    op = cgauss(rng, n, n)
    w = Subspace.span(cgauss(rng, n, rng.integers(0, n + 1)))
    lo = largest_invariant_inside(w, [op])
    hi = smallest_invariant_containing(w, [op])
    for s in (lo, hi):
        if s.dim:
            proj = s.projector()
            moved = op @ s.basis
            assert np.linalg.norm(moved - proj @ moved) < 1e-8 * max(1, np.linalg.norm(op))
    assert lo.dim <= w.dim <= hi.dim


def test_projector_idempotent(rng):
    s = Subspace.span(cgauss(rng, 5, 2))
    p = s.projector()
    assert np.linalg.norm(p @ p - p) < 1e-12
    assert np.linalg.norm(p - p.conj().T) < 1e-12


def test_only_user_bases_are_checked_for_orthonormality(rng):
    # a basis passed in is checked; the library's own bases (SVD
    # factors, the identity, an empty one) skip the check and pass it
    with pytest.raises(ValueError, match="orthonormal"):
        Subspace(2, np.array([[1.0], [1.0]]))
    m = cgauss(rng, 3, 5) @ cgauss(rng, 5, 5)
    for s in (kernel_basis(m), image_basis(m), kernel_basis(np.zeros((0, 4))),
              Subspace.full(4), Subspace.zero(4)):
        assert s.basis.dtype == complex and s.basis.shape[0] == s.ambient_dim
        gram = s.basis.conj().T @ s.basis
        assert gram.size == 0 or np.max(np.abs(gram - np.eye(s.dim))) <= ORTHONORMAL_TOL
        Subspace(s.ambient_dim, s.basis)


def test_as_matrix_shapes():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.shape == (2, 2) and m.dtype == complex
    with pytest.raises(ValueError):
        as_matrix([[1, 2]], 2, 2)
    z = as_matrix(np.zeros((0, 3)))
    assert z.shape == (0, 3)


@pytest.mark.parametrize("call, message", (
    (lambda: as_matrix(np.zeros(3)), "expected a matrix, got array of shape (3,)"),
    (lambda: as_matrix([[1.0, np.nan]]), "matrix has non-finite entries"),
    (lambda: as_matrix(np.zeros((2, 3)), cols=2), "expected 2 columns, got 3"),
    (lambda: matrix_from_json([[[1.0, 0.0]]], 2, 1), "expected 2 rows, got 1"),
    (lambda: Subspace(1, [[1.0, 0.0]]), "more basis vectors than ambient dimension"),
    (lambda: subspace_sum(Subspace.zero(1), Subspace.zero(2)),
     "subspaces live in different ambient spaces"),
    (lambda: subspace_intersection(Subspace.full(1), Subspace.full(2)),
     "subspaces live in different ambient spaces"),
))
def test_malformed_input_is_named(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_rank_tol_governs_every_cut(monkeypatch):
    # singular values 1 and 1e-7 sit between the cuts 1e-9 and 1e-6
    m = np.diag([1.0, 1e-7])
    w = Subspace.span(np.array([[1.0], [0.0]]))
    ops = [np.diag([1.0, 0.0]), np.array([[0.0, 0.0], [1e-7, 0.0]])]

    def answers():
        return (rank(m), kernel_basis(m).dim, image_basis(m).dim,
                1e-7 <= zero_cutoff(1.0), smallest_invariant_containing(w, ops).dim)

    assert linalg.RANK_TOL == 1e-9
    assert answers() == (2, 0, 2, False, 2)
    monkeypatch.setattr(linalg, "RANK_TOL", 1e-6)
    assert answers() == (1, 1, 1, True, 1)


def _reference_flags(mats) -> list:
    """_nonzero_flags by its general read at every size: one
    concatenation of all the entries and one maximum per matrix."""
    tops = np.zeros(len(mats))
    full = [j for j, m in enumerate(mats) if m.size]
    if full:
        entries = np.abs(np.concatenate([mats[j].ravel() for j in full]))
        tops[full] = np.maximum.reduceat(
            entries, list(itertools.accumulate((mats[j].size for j in full[:-1]), initial=0)))
    return (tops > zero_cutoff(float(tops.max(initial=0.0)))).tolist()


def _tiny_blocks(rng, count: int) -> list:
    """count blocks, each 1 x 1 or empty (0 x 0, 0 x 1 or 1 x 0); a 1 x 1
    one is an exact zero a fifth of the time, else a complex entry whose
    modulus spans twenty decades."""
    out = []
    for _ in range(count):
        if rng.random() < 0.3:
            out.append(np.zeros(((0, 0), (0, 1), (1, 0))[rng.integers(3)], dtype=complex))
        elif rng.random() < 0.2:
            out.append(np.zeros((1, 1), dtype=complex))
        else:
            out.append(cgauss(rng, 1, 1) * 10.0 ** rng.uniform(-14, 6))
    return out


def _at_the_cut(rng, top: float) -> list:
    """1 x 1 blocks around zero_cutoff(top): real entries at, one ulp above
    and one below it, and complex ones of modulus the cut at random
    phases, whose computed modulus rounds either way, with top itself as
    the largest entry."""
    cut = zero_cutoff(top)
    reals = [cut, np.nextafter(cut, np.inf), np.nextafter(cut, 0.0), -cut]
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 12))
    return [np.full((1, 1), top, dtype=complex)] + [
        np.full((1, 1), z, dtype=complex) for z in (*reals, *(cut * phases))]


def _flag_inputs(rng):
    yield []
    yield [np.zeros((1, 1), dtype=complex)] * 4   # every block an exact zero
    yield [np.zeros((0, 1), dtype=complex), np.zeros((1, 0), dtype=complex)]
    yield [np.zeros((1, 1), dtype=complex), np.ones((1, 1)), np.zeros((0, 0), dtype=complex)]
    for top in (3.0, 0.25, 1.0, 7e5):
        for _ in range(20):
            yield _at_the_cut(rng, top)
    for _ in range(2000):
        yield _tiny_blocks(rng, int(rng.integers(0, 30)))
    # one block of 4 x 4 sends the whole list to the general read
    yield _tiny_blocks(rng, 12) + [cgauss(rng, 4, 4)] + _at_the_cut(rng, 2.0)


def test_nonzero_flags_match_the_general_read(rng):
    tiny = 0
    for mats in _flag_inputs(rng):
        flags = linalg._nonzero_flags(mats)
        assert flags == _reference_flags(mats), mats
        tiny += all(m.size <= 1 for m in mats)
        # snap_roundoff keeps a matrix that is nonzero or empty, as it is,
        # and replaces every other with exact zeros of its shape
        for m, out, flag in zip(mats, linalg.snap_roundoff(mats), _reference_flags(mats)):
            if flag or not m.size:
                assert out is m
            else:
                assert out.shape == m.shape and out.dtype == m.dtype and not out.any()
    assert tiny > 2000


@pytest.mark.parametrize("scale", (0.5, 1.0, 1e160, np.inf))
def test_no_tolerance_rule_passes_a_non_finite_value(scale):
    """A NaN or an infinity is never zero, never a zero residual and
    never in another eigenvalue's cluster, at any scale; at an infinite
    scale, the size of overflowed data, every finite value is zero."""
    nan, inf = float("nan"), float("inf")
    for bad in (nan, inf):
        assert not linalg._is_zero(bad, scale)
        assert not linalg._is_zero_residual(bad, scale)
    flags = linalg._is_zero(np.array([0.0, nan, inf, 1e300]), scale)
    assert flags.tolist() == [True, False, False, scale == inf]
    assert linalg._is_zero_residual(1e300, scale) == (scale == inf)
    with np.errstate(invalid="ignore"):   # inf - inf
        clusters = linalg._eigenvalue_clusters(np.array([1.0, 1.0, inf, inf, nan]))
    assert [len(c) for c in clusters] == [2, 1, 1, 1]
    # an infinite radius: the finite eigenvalues are one cluster
    assert [len(c) for c in linalg._eigenvalue_clusters(np.array([inf, 0.0, 1.0]))] == [1, 2]


def test_matrix_json_round_trip(rng):
    m = cgauss(rng, 2, 3)
    back = matrix_from_json(matrix_to_json(m), 2, 3)
    assert np.array_equal(m, back)  # repr round-trip is exact for binary floats
    empty = matrix_from_json(matrix_to_json(np.zeros((0, 2))), 0, 2)
    assert empty.shape == (0, 2)


def _old_matrix_to_json(m) -> list:
    """matrix_to_json as it was, entry by entry: the reference."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in as_matrix(m)]


def _float_bits(x):
    """x's nested lists with each float replaced by its bytes, so that
    -0.0 and 0.0 differ; the types must be float."""
    if isinstance(x, list):
        return [_float_bits(v) for v in x]
    assert type(x) is float
    return np.float64(x).tobytes()


@pytest.mark.parametrize("make", (
    lambda rng: cgauss(rng, 3, 4),
    lambda rng: cgauss(rng, 4, 3).T,
    lambda rng: cgauss(rng, 5, 6)[::2, 1::2],
    lambda rng: np.array([[-0.0 + 0.0j, complex(0.0, -0.0)], [complex(-0.0, -0.0), 1e-310]]),
    lambda rng: np.array([[complex(-0.0, 5e-324)], [complex(1.7976931348623157e308, -1.0)]]).T,
    lambda rng: np.zeros((0, 3)), lambda rng: np.zeros((3, 0)),
    lambda rng: [[1, 2.5], [True, -3]],
))
def test_matrix_to_json_is_the_entry_by_entry_list(make, rng):
    m = make(rng)
    got, want = matrix_to_json(m), _old_matrix_to_json(m)
    assert got == want
    assert _float_bits(got) == _float_bits(want)


def test_matrix_from_json_names_an_integer_beyond_float_range():
    with pytest.raises(ValueError) as exc:
        matrix_from_json([[[0.5, 0.0], [0.0, 10 ** 400]]], 1, 2)
    assert str(exc.value) == "row 0, entry 1: int too large to convert to float"


# --- exact finite-field oracle ----------------------------------------------
#
# The float checkers above implement two fixed-point algorithms:
#   largest invariant inside W:   S <- S ∩ (∩_op op^{-1} S)   until stable
#   smallest invariant containing W:  S <- S + Σ_op op(S)     until stable
# Here the same algorithms are transcribed over F_p with exact arithmetic
# and compared against the literal optimum over an enumeration of every
# subspace of F_p^d.  This validates the algorithmic logic with no
# tolerance in play at all.


def _rref_p(rows, p):
    """Canonical reduced row-echelon form over F_p, zero rows dropped."""
    m = [list(r) for r in rows]
    n_cols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] % p), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] % p:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in m[:r]), pivots


def _span_p(vectors, p, dim):
    rows = [v for v in vectors if any(x % p for x in v)]
    if not rows:
        return ()
    return _rref_p(rows, p)[0]


def _kernel_p(rows, p, n_cols):
    """Basis of the null space of the row matrix, as vectors of length n_cols."""
    rref, pivots = _rref_p(rows, p) if rows else ((), [])
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n_cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-rref[r][fc]) % p
        basis.append(tuple(v))
    return basis


def _annihilator_p(sub, p, dim):
    # rows of sub are basis vectors; functionals killing them
    return _kernel_p(list(sub), p, dim)


def _intersect_p(a, b, p, dim):
    # intersection = vectors killed by both annihilators
    ann = _annihilator_p(a, p, dim) + _annihilator_p(b, p, dim)
    return _span_p(_kernel_p(ann, p, dim), p, dim)


def _sum_p(a, b, p, dim):
    return _span_p(list(a) + list(b), p, dim)


def _apply_p(op, vec, p):
    return tuple(sum(op[i][j] * vec[j] for j in range(len(vec))) % p for i in range(len(op)))


def _image_p(sub, op, p, dim):
    return _span_p([_apply_p(op, v, p) for v in sub], p, dim)


def _preimage_p(sub, op, p, dim):
    # functionals killing sub, pulled back through op, cut out the preimage
    ann = _annihilator_p(sub, p, dim)
    composed = [tuple(sum(f[i] * op[i][j] for i in range(dim)) % p for j in range(dim))
                for f in ann]
    return _span_p(_kernel_p(composed, p, dim), p, dim)


def _contains_p(big, small, p, dim):
    return _sum_p(big, small, p, dim) == _span_p(list(big), p, dim)


def _largest_invariant_inside_p(w, ops, p, dim):
    s = _span_p(list(w), p, dim)
    while True:
        nxt = s
        for op in ops:
            nxt = _intersect_p(nxt, _preimage_p(s, op, p, dim), p, dim)
        if nxt == s:
            return s
        s = nxt


def _smallest_invariant_containing_p(w, ops, p, dim):
    s = _span_p(list(w), p, dim)
    while True:
        nxt = s
        for op in ops:
            nxt = _sum_p(nxt, _image_p(s, op, p, dim), p, dim)
        if nxt == s:
            return s
        s = nxt


def _all_subspaces_p(p, dim):
    vectors = [v for v in itertools.product(range(p), repeat=dim) if any(v)]
    seen = {()}
    for size in range(1, dim + 1):
        for combo in itertools.combinations(vectors, size):
            seen.add(_span_p(list(combo), p, dim))
    return sorted(seen)


def _is_invariant_p(sub, ops, p, dim):
    return all(_contains_p(sub, _image_p(sub, op, p, dim), p, dim) for op in ops)


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("dim", (1, 2, 3))
def test_invariant_fixed_points_match_enumeration(p, dim):
    rng = np.random.default_rng([p, dim])
    subspaces = _all_subspaces_p(p, dim)
    for trial in range(25):
        n_ops = int(rng.integers(1, 3))
        ops = [[[int(x) for x in row] for row in rng.integers(0, p, (dim, dim))]
               for _ in range(n_ops)]
        w_vecs = [tuple(int(x) for x in rng.integers(0, p, dim))
                  for _ in range(int(rng.integers(0, dim + 1)))]
        w = _span_p(w_vecs, p, dim)

        # literal optima over the full subspace lattice
        inside = [s for s in subspaces
                  if _contains_p(w, s, p, dim) and _is_invariant_p(s, ops, p, dim)]
        best_lo = ()
        for s in inside:
            best_lo = _sum_p(best_lo, s, p, dim)
        outside = [s for s in subspaces
                   if _contains_p(s, w, p, dim) and _is_invariant_p(s, ops, p, dim)]
        best_hi = _span_p([v for v in itertools.product(range(p), repeat=dim)], p, dim)
        for s in outside:
            best_hi = _intersect_p(best_hi, s, p, dim)

        assert _largest_invariant_inside_p(w, ops, p, dim) == best_lo
        assert _smallest_invariant_containing_p(w, ops, p, dim) == best_hi


@pytest.mark.parametrize("p", (2, 3))
def test_float_checkers_match_field_logic_on_shared_instances(p):
    # flags of a nilpotent shift are p-independent: the same integer
    # instance has the same lattice answer over F_p and over C, so the
    # float code and the exact code must agree on dims here.
    dim = 3
    J = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    for cols in ([(1, 0, 0)], [(0, 1, 0)], [(0, 0, 1)], [(1, 0, 0), (0, 0, 1)]):
        w = _span_p(list(cols), p, dim)
        lo = _largest_invariant_inside_p(w, [J], p, dim)
        hi = _smallest_invariant_containing_p(w, [J], p, dim)
        wf = Subspace.span(np.array(cols, dtype=float).T)
        jf = np.array(J, dtype=float)
        assert largest_invariant_inside(wf, [jf]).dim == len(lo)
        assert smallest_invariant_containing(wf, [jf]).dim == len(hi)
