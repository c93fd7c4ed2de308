"""The lattice search reads the candidate lattice as it grows.

_lattice_search, find_destabilizer's test where some dimension is
above 1, tests each lattice element as it joins and stops at the first
witness; it is called here directly, on 0/1 points too.  The oracle is
the eager search kept here: the whole lattice, grown by a stop test
that is never true, then each element's two closures tested in order.
Both must give the same verdict kind, clause, number of elements
searched and witness bytes.  Only the verdict's capped flag differs by
design: an unstable verdict is never capped.
"""

import itertools

import numpy as np
import pytest

from bowlab import graded
from bowlab.diagrams import parse_bow_diagram
from bowlab.graded import (
    LATTICE_CAP,
    GradedSubspace,
    StabilityVerdict,
    _lattice_search,
    _PartTable,
    _qualifies,
    _snapped,
    candidate_lattice,
    largest_invariant_graded,
    smallest_invariant_graded,
)
from bowlab.linalg import SAME_SUBSPACE_TOL, Subspace, image_basis, kernel_basis
from bowlab.quiver import Quiver, QuiverRepPoint, rep_semistable
from bowlab.reduction import gauge_fix_H, to_quiver_point
from bowlab.total_space import check_semistable, random_point

from conftest import bow_data, cgauss
from test_quiver_route import CYCLE_11, LOOP_2, SOLVED, _solved, _theta, _unitary_gauge
from test_trace_certificate import _solved_01_point


def _eager(dims, maps, kernel_maps, image_maps, weights, links=(), stable=False):
    """_lattice_search's verdict from the whole lattice, built before any
    element is tested; capped as the lattice's size says."""
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
    lattice = candidate_lattice(dims, maps, [table.graded(ker), table.graded(im)],
                                lambda g: False, table)
    capped = len(lattice) >= LATTICE_CAP

    def tries(cand):
        g = table.ids(cand)
        yield "kernel", largest_invariant_graded(table.graded(table.meet(g, ker)), maps, table)
        yield "image", smallest_invariant_graded(table.graded(table.sum(g, im)), maps, table)

    for searched, cand in enumerate(lattice, 1):
        for clause, g in tries(cand):
            if _qualifies(g, clause, dims, maps, links, weights, stable):
                return StabilityVerdict("unstable", g, clause, searched, capped)
    return StabilityVerdict("not-falsified", searched=len(lattice), capped=capped)


def _report(v):
    """The verdict with its witness as raw basis bytes, key by key."""
    witness = None if v.witness is None else [
        (repr(k), part.basis.shape, part.basis.tobytes()) for k, part in v.witness.parts.items()]
    return v.kind, v.clause, v.searched, witness


def _agree(data, stable):
    """The lazy and eager verdicts on find_destabilizer's arguments data;
    returns the verdict kind."""
    lazy = _lattice_search(**data, stable=stable)
    eager = _eager(**data, stable=stable)
    assert _report(lazy) == _report(eager)
    assert lazy.capped == (eager.capped and lazy.kind != "unstable")
    return lazy.kind


def _quiver_data(p: QuiverRepPoint, weights: dict) -> dict:
    """quiver._destabilizer's find_destabilizer arguments, without the
    trace certificate in front."""
    maps = []
    for (t, h), x, y in zip(p.quiver.arrows, p.x, p.y):
        maps += [(t, h, x), (h, t, y)]
    return dict(dims=p.v, maps=maps, kernel_maps=list(p.J.items()),
                image_maps=list(p.I.items()), weights=weights, links=())


def test_lazy_search_matches_the_eager_lattice_on_random_01_quivers():
    rng = np.random.default_rng(4242)
    kinds = []
    for _ in range(300):
        p = _solved_01_point(rng)
        weights = {i: int(rng.integers(-2, 3)) for i in p.quiver.vertices}
        for stable in (False, True):
            kinds.append(_agree(_quiver_data(p, weights), stable))
    # the oracle is not vacuous: both search outcomes occur often
    assert kinds.count("unstable") >= 100 and kinds.count("not-falsified") >= 100


@pytest.mark.parametrize("case", range(len(SOLVED)))
def test_lazy_search_matches_the_eager_lattice_on_solved_bows(case):
    text, lam, seed = SOLVED[case]
    d, p = _solved(text, lam, seed)
    moved = _unitary_gauge(d, p, np.random.default_rng([57, case]))
    for point, sign, stable in itertools.product((p, moved), (1, -1, 0), (False, True)):
        theta = _theta(d, sign)
        # the bow's own lattice, then its framed quiver's
        _agree(bow_data(d, point, theta), stable)
        q = to_quiver_point(gauge_fix_H(d, point))
        _agree(_quiver_data(q, theta), stable)


@pytest.mark.parametrize("text", (LOOP_2, CYCLE_11, "bow { wavy a [3]; edge a -> a; }",
                                  "bow { wavy s [1, 2, 1]; }",
                                  "bow { wavy a [2]; wavy b [1]; edge a -> a; edge a -> b; }"))
def test_lazy_search_matches_the_eager_lattice_off_the_fiber(text):
    d = parse_bow_diagram(text)
    p = random_point(d, np.random.default_rng(99))
    for th, stable in itertools.product((-1, 1, 2), (False, True)):
        _agree(bow_data(d, p, {name: th for name in d.bow.intervals}), stable)


def test_a_witness_basis_can_move_but_spans_the_same_subspace():
    # growing the lattice only up to the witness interns fewer parts
    # before the witness's closure does: here the eager search gave the
    # witness's a:1 part the representative of a part met after element
    # 30, and the lazy one keeps the closure's own, the same line up to
    # a sign
    d, p = _solved("bow { wavy a [2, 2]; wavy b [1, 1]; edge a -> b; }", {"a": 0, "b": 0}, 0)
    data = bow_data(d, p, {"a": 1, "b": 1})
    lazy, eager = _lattice_search(**data, stable=False), _eager(**data)
    assert _report(lazy)[:3] == _report(eager)[:3] == ("unstable", "kernel", 30)
    moved = 0
    for k, part in lazy.witness.parts.items():
        other = eager.witness.parts[k]
        assert np.linalg.norm(part.projector() - other.projector()) <= SAME_SUBSPACE_TOL
        moved += part.basis.tobytes() != other.basis.tobytes()
    assert moved == 1


@pytest.mark.parametrize("theta, searched, clause, witness_dim",
                         ((1, 2, "kernel", 2), (-1, 1, "image", 0)))
def test_loop_2_stops_at_its_first_witness(monkeypatch, theta, searched, clause, witness_dim):
    d, p = _solved(LOOP_2, {"a": 0}, 0)
    entered = []
    lattice = graded.candidate_lattice

    def counted(*args, **kwargs):
        entered.append(1)
        return lattice(*args, **kwargs)

    def never(*args, **kwargs):
        raise AssertionError("the eigenspace seeds were computed")

    norms, svds = [], []
    op_norm, svd = graded._op_norm, np.linalg.svd

    def counted_norm(a):
        norms.append(1)
        return op_norm(a)

    def counted_svd(*args, **kwargs):
        svds.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(graded, "candidate_lattice", counted)
    monkeypatch.setattr(graded, "_eigenspace_seeds", never)
    monkeypatch.setattr(graded, "_op_norm", counted_norm)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    v = check_semistable(d, p, {"a": theta}, mode="heuristic")
    # theta = 1: V has pairing 2 > 0; theta = -1: 0 has copairing -2 < 0
    assert (v.kind, v.clause, v.searched, v.capped) == ("unstable", clause, searched, False)
    assert v.witness.total_dim() == witness_dim
    assert entered
    # both witnesses are closures of 0 or V, met by sums and intersections
    # with 0 or V, so the search takes no SVD and needs no map's norm
    assert not norms and not svds


def test_closures_of_zero_and_the_whole_space_make_no_svd(monkeypatch):
    rng = np.random.default_rng(8)
    dims = {"a": 2, "b": 3}
    maps = [("a", "b", cgauss(rng, 3, 2)), ("b", "a", cgauss(rng, 2, 3)),
            ("b", "b", cgauss(rng, 3, 3))]
    zero = GradedSubspace({k: Subspace.zero(n) for k, n in dims.items()})
    full = GradedSubspace({k: Subspace.full(n) for k, n in dims.items()})
    svds = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        svds.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert largest_invariant_graded(zero, maps).total_dim() == 0
    assert smallest_invariant_graded(full, maps).total_dim() == 5
    assert not svds
    # a start between them still runs the closure
    line = GradedSubspace({"a": Subspace.span(np.array([[1.0], [0.0]])), "b": Subspace.zero(3)})
    assert smallest_invariant_graded(line, maps).total_dim() == 5
    assert svds


def test_a_zero_or_whole_part_is_interned_by_its_dimension(monkeypatch):
    # ids 0 and 1 are each key's zero and whole space (one id at a key of
    # dimension 0): any part of those dimensions is one of them, found
    # with no projector and adding no representative
    rng = np.random.default_rng(9)
    table = _PartTable({"a": 3, "b": 0}, [])
    assert table.zero == (0, 0) and table.full == (1, 0)
    assert np.array_equal(table.graded(table.full).parts["a"].basis, np.eye(3))
    projectors = []
    monkeypatch.setattr(Subspace, "projector", lambda s: projectors.append(s))
    rotated = image_basis(cgauss(rng, 3, 3))
    assert rotated.dim == 3 and not np.array_equal(rotated.basis, np.eye(3))
    assert table.intern(0, rotated) == 1 and table.intern(0, kernel_basis(np.eye(3))) == 0
    assert table.intern(1, Subspace.full(0)) == 0
    assert not projectors and [len(reps) for reps in table._reps] == [2, 1]


def test_an_unstable_verdict_is_never_capped():
    # a random loop pair on C^3 grows a lattice past the cap, yet V
    # destabilizes at positive weight as its second element
    rng = np.random.default_rng(3)
    q = Quiver(["a"], [("a", "a")])
    p = QuiverRepPoint(q, {"a": 3}, {"a": 0}, (cgauss(rng, 3, 3),), (cgauss(rng, 3, 3),),
                       {"a": np.zeros((3, 0))}, {"a": np.zeros((0, 3))})
    data = _quiver_data(p, {"a": 1})
    full = candidate_lattice(data["dims"], data["maps"], [], lambda g: False)
    assert len(full) >= LATTICE_CAP
    v = rep_semistable(p, {"a": 1})
    assert (v.kind, v.clause, v.searched, v.capped) == ("unstable", "kernel", 2, False)
