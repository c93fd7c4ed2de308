"""exact01: the closed supports and the integer decision over them.

The integer decision is compared with a per-mask loop that builds each
support as a graded subspace and tests it with the engine's rank-based
clauses (_qualifies), on bows whose segments have dimension 0 or 1 and
on framed quiver points whose vertices do.  Zero-dimensional segments
matter for the image clause: there a link's codimensions, not its
subspace dimensions, must agree.  The framings give kernel and image
maps of more than one entry.
"""

import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

from bowlab import cli, graded
from bowlab.diagrams import parse_bow_diagram
from bowlab.graded import (
    GradedSubspace,
    StabilityVerdict,
    _closed_supports,
    _qualifies,
    _snapped,
    find_destabilizer,
)
from bowlab.linalg import Subspace
from bowlab.quiver import Exact01Unavailable, _destabilizer, rep_semistable
from bowlab.reduction import gauge_fix_H, to_quiver_point
from bowlab.total_space import (
    FiberSolveReport,
    TotalSpacePoint,
    check_semistable,
    point_to_json_dict,
    random_point,
    solve_fiber,
)

from conftest import bow_data
from test_lazy_lattice import _quiver_data
from test_total_space import _mask_point
from test_trace_certificate import _solved_01_point

ZERO_DIM_BOWS = (
    "bow { wavy a [1, 0, 1]; }",
    "bow { wavy a [0, 1, 0]; wavy b [1]; edge a -> b; edge b -> a; }",
    "bow { wavy a [1, 0, 1]; wavy b [1, 1]; edge a -> b; }",
    "bow { wavy a [0, 1, 0, 1]; wavy b [1, 0]; edge a -> b; edge b -> a; }",
)


def _per_mask(dims, maps, kernel_maps, image_maps, weights, links, stable):
    """exact01 one support at a time, in increasing bitmask order over the
    dimension-one keys: (kind, clause, searched, support of the witness).
    Zero weights are semistable with no search."""
    if not stable and not any(weights.values()):
        return "semistable", None, 0, None
    maps, kernel_maps, image_maps, links = _snapped((maps, kernel_maps, image_maps, links))
    ones = [k for k, n in dims.items() if n == 1]
    searched = 0
    for mask in range(1 << len(ones)):
        support = frozenset(k for j, k in enumerate(ones) if mask >> j & 1)
        if any(src in support and dst not in support for src, dst, m in maps if m.any()):
            continue
        searched += 1
        g = GradedSubspace({k: Subspace.full(n) if k in support else Subspace.zero(n)
                            for k, n in dims.items()})
        tries = []
        if not any(key in support for key, m in kernel_maps if m.any()):
            tries.append("kernel")
        if all(key in support for key, m in image_maps if m.any()):
            tries.append("image")
        for clause in tries:
            if _qualifies(g, clause, dims, maps, links, weights, stable):
                return "unstable", clause, searched, support
    return "semistable", None, searched, None


def _verdict(data, stable):
    v = find_destabilizer(**data, stable=stable)
    if v.witness is None:
        return v.kind, v.clause, v.searched, None
    # the witness is full or zero at every key, as the loop builds it
    assert all(part.dim in (0, part.ambient_dim) for part in v.witness.parts.values())
    return v.kind, v.clause, v.searched, frozenset(
        k for k, part in v.witness.parts.items() if part.dim)


def _oracle_inputs(rng):
    """(source, find_destabilizer's data) pairs: the masked bows of
    ZERO_DIM_BOWS at every weight vector in [-2, 2], then random solved
    0/1 framed quiver points at random weights, whose framing up to 2
    gives kernel and image maps of up to two entries."""
    for text, zero_prob, _ in itertools.product(ZERO_DIM_BOWS, (0.0, 0.3, 0.6, 0.8), range(3)):
        d = parse_bow_diagram(text)
        p = _mask_point(d, rng, zero_prob)
        for values in itertools.product(range(-2, 3), repeat=len(d.bow.intervals)):
            yield "bow", bow_data(d, p, dict(zip(d.bow.intervals, values)))
    for _ in range(300):
        p = _solved_01_point(rng)
        yield "quiver", _quiver_data(p, {i: int(rng.integers(-2, 3)) for i in p.quiver.vertices})


@pytest.mark.parametrize("chunk_bits", (graded.CHUNK_BITS, 1))
def test_exact01_matches_the_per_mask_loop_with_zero_dimensional_segments(monkeypatch,
                                                                           chunk_bits):
    # with one free bit per chunk, searched adds up over many chunks
    monkeypatch.setattr(graded, "CHUNK_BITS", chunk_bits)
    kinds = {"bow": [], "quiver": []}
    for source, data in _oracle_inputs(np.random.default_rng(7)):
        for stable in (False, True):
            want = _per_mask(**data, stable=stable)
            assert _verdict(data, stable) == want
            kinds[source].append(want[:2])
            # weights past int64 decide the same, exactly
            big = dict(data, weights={k: w << 70 for k, w in data["weights"].items()})
            assert _verdict(big, stable) == want
    # the oracle is not vacuous: every outcome occurs often, on both sources
    for kind in (("unstable", "kernel"), ("unstable", "image"), ("semistable", None)):
        assert kinds["bow"].count(kind) >= 50
        assert kinds["quiver"].count(kind) >= 50


def _required_tables():
    rng = np.random.default_rng(12)
    for k in range(13):
        yield [0] * k                                                   # empty
        yield [1 << (j + 1) if j + 1 < k else 0 for j in range(k)]       # chain
        yield [1 << ((j + 1) % k) for j in range(k)]                     # cycle
        half = k // 2                                                    # two cycles
        yield [1 << ((j + 1) % half if j < half else half + (j - half + 1) % (k - half))
               for j in range(k)]
        yield [int(sum(1 << i for i in range(k) if rng.random() < 0.15)) for _ in range(k)]


def _flat(chunks) -> list:
    return [mask for chunk in chunks for mask in chunk]


@pytest.mark.parametrize("chunk_bits", (graded.CHUNK_BITS, 3, 0))
def test_closed_supports_match_the_brute_force_filter(monkeypatch, chunk_bits):
    monkeypatch.setattr(graded, "CHUNK_BITS", chunk_bits)
    for required in _required_tables():
        k = len(required)
        want = [mask for mask in range(1 << k)
                if all(not mask >> j & 1 or mask & req == req for j, req in enumerate(required))]
        chunks = list(_closed_supports(required))
        assert _flat(chunks) == want
        assert all(len(chunk) <= 1 << chunk_bits for chunk in chunks)


def test_closed_supports_past_62_bits():
    # a chain of 70 bits: the closed supports are 0 and every suffix
    k = 70
    got = _flat(_closed_supports([1 << (j + 1) if j + 1 < k else 0 for j in range(k)]))
    assert got == sorted([0] + [(1 << k) - (1 << j) for j in range(k)])


def test_exact01_past_62_segments():
    # one interval of 64 dimension-one segments, every b zero: the A's
    # tie the segments into one chain that only 0 and V satisfy, and V,
    # the last of the 65 closed supports, lies in the kernels with
    # pairing 1
    d = parse_bow_diagram(f"bow {{ wavy a [{', '.join(['1'] * 64)}]; }}")
    p = random_point(d, np.random.default_rng(64))
    p = TotalSpacePoint({"a": tuple(replace(t, b=0 * t.b) for t in p.triangles["a"])}, p.edges)
    v = check_semistable(d, p, {"a": 1}, mode="exact01")
    assert (v.kind, v.clause, v.searched, v.witness.total_dim()) == ("unstable", "kernel", 65, 64)
    assert check_semistable(d, p, {"a": -1}, mode="exact01").searched == 65


@pytest.mark.parametrize("sign, clause, searched", ((-1, "image", 1), (1, "kernel", 2)))
def test_exact01_stops_early_among_2_to_the_40_supports(sign, clause, searched):
    # 40 one-segment intervals and no map between them: every support is
    # closed, and the search stops in the first chunk of them, at S = 0
    # (copairing -40) or S = {first interval} (pairing 1)
    names = [f"i{j}" for j in range(40)]
    d = parse_bow_diagram("bow { " + " ".join(f"wavy {n} [1];" for n in names) + " }")
    p = random_point(d, np.random.default_rng(40))
    v = check_semistable(d, p, {n: sign for n in names}, mode="exact01")
    assert (v.kind, v.clause, v.searched, v.witness.total_dim()) == (
        "unstable", clause, searched, searched - 1)


# --- default mode on 0/1 points --------------------------------------------------


def _decided(v):
    """A verdict's kind, clause and witness, the witness as (key, dim,
    basis bytes) per part; searched is left out."""
    witness = None if v.witness is None else [
        (repr(k), part.dim, part.basis.tobytes()) for k, part in v.witness.parts.items()]
    return v.kind, v.clause, witness


def _random_01_bow(rng) -> str:
    names = ["a", "b"][:int(rng.integers(1, 3))]
    wavy = " ".join(f"wavy {n} [{', '.join(map(str, rng.integers(0, 2, rng.integers(1, 4))))}];"
                    for n in names)
    edges = " ".join(f"edge {t} -> {h};" for t in names for h in names if rng.random() < 0.3)
    return f"bow {{ {wavy} {edges} }}"


def test_default_mode_decides_solved_01_bows_as_exact01():
    rng = np.random.default_rng(1501)
    kinds = []
    for k in range(120):
        d = parse_bow_diagram(_random_01_bow(rng))
        names = list(d.bow.intervals)
        for lam in (dict.fromkeys(names, 0.0), dict(zip(names, rng.uniform(-1, 1, len(names))))):
            report = solve_fiber(d, lam, seed=k, n_starts=3)
            if not isinstance(report, FiberSolveReport):
                continue
            theta = dict(zip(names, (int(x) for x in rng.integers(-2, 3, len(names)))))
            for stable in (False, True):
                got = check_semistable(d, report.point, theta, stable=stable)
                want = check_semistable(d, report.point, theta, mode="exact01", stable=stable)
                assert _decided(got) == _decided(want)
                assert got.searched == want.searched
                kinds.append(got.kind)
    # the oracle is not vacuous: both verdicts occur often
    assert kinds.count("semistable") >= 30 and kinds.count("unstable") >= 30


def test_default_mode_decides_solved_01_quivers_as_exact01():
    rng = np.random.default_rng(1502)
    kinds = []
    for _ in range(300):
        p = _solved_01_point(rng)
        theta = {i: int(rng.integers(-2, 3)) for i in p.quiver.vertices}
        got, want = rep_semistable(p, theta), rep_semistable(p, theta, mode="exact01")
        assert (_decided(got), got.searched) == (_decided(want), want.searched)
        kinds.append(got.kind)
        # stable: no certificate in front, so the same supports are searched
        got = _destabilizer(p, theta, True)
        want = find_destabilizer(**_quiver_data(p, theta), stable=True)
        assert (_decided(got), got.searched) == (_decided(want), want.searched)
    assert kinds.count("semistable") >= 50 and kinds.count("unstable") >= 50


def test_stable_default_mode_on_cycle3_1x5_is_semistable():
    # the 15 segments are one closure, so exact01 reads 2 supports; the
    # lattice search could only say "not-falsified" here
    d = parse_bow_diagram("bow { wavy a [1, 1, 1, 1, 1]; wavy b [1, 1, 1, 1, 1]; "
                          "wavy c [1, 1, 1, 1, 1]; edge a -> b; edge b -> c; edge c -> a; }")
    report = solve_fiber(d, {"a": 0.4, "b": -0.1, "c": -0.3}, seed=0)
    assert isinstance(report, FiberSolveReport)
    v = check_semistable(d, report.point, {"a": 1, "b": 1, "c": -2}, stable=True)
    assert (v.kind, v.searched) == ("semistable", 2)


def test_the_route_case_the_closures_leave_undecided_is_semistable():
    # the 2-cycle a [1], b [1, 1] at lambda = 0: the lattice of its framed
    # quiver stops after 4 elements with no witness, and exact01 decides
    d = parse_bow_diagram("bow { wavy a [1]; wavy b [1, 1]; edge a -> b; edge b -> a; }")
    report = solve_fiber(d, {"a": 0.0, "b": 0.0}, seed=68, n_starts=5)
    assert isinstance(report, FiberSolveReport)
    theta = {"a": -1, "b": 1}
    assert check_semistable(d, report.point, theta).kind == "semistable"
    assert rep_semistable(to_quiver_point(gauge_fix_H(d, report.point)), theta).kind == "semistable"


# --- mode exact01 above dimension 1 -----------------------------------------------


def test_exact01_above_dimension_one_at_zero_weights_is_semistable_unless_stable(
        capsys, tmp_path):
    # all-zero weights decide "semistable" before any dimension is read, so
    # mode exact01 does not refuse a dimension-2 point there; stable does
    text = "bow { wavy a [2]; edge a -> a; }"
    d = parse_bow_diagram(text)
    report = solve_fiber(d, {"a": 0.0}, seed=0)
    assert isinstance(report, FiberSolveReport)
    assert check_semistable(d, report.point, {"a": 0}, mode="exact01") == StabilityVerdict(
        "semistable")
    with pytest.raises(Exact01Unavailable, match=r"segment a:0 has dimension 2$"):
        check_semistable(d, report.point, {"a": 0}, mode="exact01", stable=True)
    q = to_quiver_point(gauge_fix_H(d, report.point))
    assert q.v == {"a": 2}
    assert rep_semistable(q, {"a": 0}, mode="exact01") == StabilityVerdict("semistable")
    with pytest.raises(Exact01Unavailable, match=r"vertex 'a' has dimension 2$"):
        rep_semistable(q, {"a": 1}, mode="exact01")

    diagram, point = tmp_path / "loop2.bow", tmp_path / "point.json"
    diagram.write_text(text, encoding="utf-8")
    point.write_text(json.dumps(point_to_json_dict(d, report.point)), encoding="utf-8")
    argv = ["stability", str(diagram), str(point), "--mode", "exact01", "--theta", "0"]
    assert cli.main(argv) == 0
    out = capsys.readouterr()
    assert json.loads(out.out)["kind"] == "semistable" and out.err == ""
    assert cli.main(argv + ["--stable"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: exact01 requires every dimension <= 1; segment a:0 has dimension 2\n"
