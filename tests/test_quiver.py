"""Framed representations: moment map, pairing, and the stability oracle.

The 0/1 stability checker is compared against a brute-force oracle that
enumerates every graded support and evaluates the defining conditions
(invariance, kernel/image containment, weighted dimension sums) by
plain linear algebra on the matrices, independent of the library's
support bookkeeping.
"""

import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest

from bowlab.graded import _lattice_search
from bowlab.quiver import (
    Exact01Unavailable,
    Quiver,
    QuiverRepPoint,
    StabilityVerdict,
    integerize_weights,
    quiver_point_from_json_dict,
    quiver_point_to_json_dict,
    rep_moment_map,
    rep_semistable,
    rep_symplectic_pairing,
)

from conftest import cgauss, maxabs
from test_lazy_lattice import _quiver_data

JORDAN = Quiver(("z",), (("z", "z"),))
A1 = Quiver(("z",), ())


def _random_point(rng, q, v, w, sparsity=0.0):
    def mat(r, c):
        m = cgauss(rng, r, c)
        if sparsity:
            m = m * (rng.random((r, c)) >= sparsity)
        return m

    return QuiverRepPoint(
        q, v, w,
        x=tuple(mat(v[h], v[t]) for t, h in q.arrows),
        y=tuple(mat(v[t], v[h]) for t, h in q.arrows),
        I={i: mat(v[i], w[i]) for i in q.vertices},
        J={i: mat(w[i], v[i]) for i in q.vertices},
    )


# --- model validation ---------------------------------------------------------


def test_quiver_validation():
    with pytest.raises(ValueError):
        Quiver(("a", "a"), ())
    with pytest.raises(ValueError):
        Quiver(("a",), (("a", "b"),))
    q = Quiver(("a", "b"), (("a", "b"), ("a", "b"), ("b", "b")))
    assert len(q.arrows) == 3  # parallel arrows and loops allowed


def test_rep_point_shape_checks(rng):
    with pytest.raises(ValueError):
        QuiverRepPoint(A1, {"z": 2}, {"z": 1},
                       x=(), y=(), I={"z": cgauss(rng, 3, 1)}, J={"z": cgauss(rng, 1, 2)})
    with pytest.raises(ValueError):
        QuiverRepPoint(A1, {"z": -1}, {"z": 0}, x=(), y=(), I={"z": np.zeros((0, 0))},
                       J={"z": np.zeros((0, 0))})
    q = Quiver(("a", "b"), (("a", "b"),))
    p = _random_point(rng, q, {"a": 1, "b": 1}, {"a": 1, "b": 1})
    for edit, message in ((dict(v={"a": 1}), "v and w must be keyed by the quiver vertices"),
                          (dict(w={"a": 1, "b": 1, "c": 1}),
                           "v and w must be keyed by the quiver vertices"),
                          (dict(x=()), "need one (x, y) pair per arrow")):
        with pytest.raises(ValueError) as exc:
            dataclasses.replace(p, **edit)
        assert str(exc.value) == message
    other = _random_point(rng, Quiver(("a", "b"), (("b", "a"),)), p.v, p.w)
    with pytest.raises(ValueError) as exc:
        rep_symplectic_pairing(p, other)
    assert str(exc.value) == "tangents belong to different quivers"


# --- moment map ---------------------------------------------------------------


def test_moment_map_jordan_hand_case():
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    y = np.array([[2.0, 0.0], [3.0, 0.0]])
    I = np.array([[1.0], [0.0]])
    J = np.array([[0.0, 5.0]])
    p = QuiverRepPoint(JORDAN, {"z": 2}, {"z": 1}, (x,), (y,), {"z": I}, {"z": J})
    mu = rep_moment_map(p)["z"]
    assert maxabs(mu - (x @ y - y @ x + I @ J)) == 0.0


def test_moment_map_a2_hand_case(rng):
    q = Quiver(("a", "b"), (("a", "b"),))
    v, w = {"a": 2, "b": 3}, {"a": 1, "b": 0}
    p = _random_point(rng, q, v, w)
    mu = rep_moment_map(p)
    assert maxabs(mu["a"] - (-p.y[0] @ p.x[0] + p.I["a"] @ p.J["a"])) < 1e-14
    assert maxabs(mu["b"] - (p.x[0] @ p.y[0] + p.I["b"] @ p.J["b"])) < 1e-14


def test_moment_equivariance(rng):
    q = Quiver(("a", "b"), (("a", "b"), ("b", "a"), ("a", "a")))
    v, w = {"a": 2, "b": 3}, {"a": 2, "b": 1}
    p = _random_point(rng, q, v, w)
    g = {i: cgauss(rng, v[i], v[i]) + 2 * np.eye(v[i]) for i in q.vertices}
    ginv = {i: np.linalg.inv(gi) for i, gi in g.items()}
    # base change (x, y, I, J) -> (g x g^-1, g y g^-1, g I, J g^-1)
    moved = QuiverRepPoint(
        q, v, w,
        x=tuple(g[h] @ p.x[k] @ ginv[t] for k, (t, h) in enumerate(q.arrows)),
        y=tuple(g[t] @ p.y[k] @ ginv[h] for k, (t, h) in enumerate(q.arrows)),
        I={i: g[i] @ p.I[i] for i in q.vertices},
        J={i: p.J[i] @ ginv[i] for i in q.vertices},
    )
    mu_moved = rep_moment_map(moved)
    mu = rep_moment_map(p)
    for i in q.vertices:
        expect = g[i] @ mu[i] @ ginv[i]
        assert maxabs(mu_moved[i] - expect) < 1e-10


# --- symplectic pairing ---------------------------------------------------------


def test_pairing_framing_slot_order():
    # unit dI in the first slot against unit dJ in the second pairs to +1
    t1 = QuiverRepPoint(A1, {"z": 1}, {"z": 1}, (), (),
                        {"z": np.array([[1.0]])}, {"z": np.array([[0.0]])})
    t2 = QuiverRepPoint(A1, {"z": 1}, {"z": 1}, (), (),
                        {"z": np.array([[0.0]])}, {"z": np.array([[1.0]])})
    assert rep_symplectic_pairing(t1, t2) == 1.0 + 0j
    assert rep_symplectic_pairing(t2, t1) == -1.0 + 0j


def test_pairing_hamiltonian_identity(rng):
    # <d(mu)(t), xi> must equal the pairing of the xi action vector with t
    q = Quiver(("a", "b"), (("a", "b"), ("b", "b")))
    v, w = {"a": 2, "b": 2}, {"a": 1, "b": 2}
    h = 1e-6
    for _ in range(10):
        p = _random_point(rng, q, v, w)
        t = _random_point(rng, q, v, w)
        xi = {i: cgauss(rng, v[i], v[i]) for i in q.vertices}
        xi_m = QuiverRepPoint(
            q, v, w,
            x=tuple(xi[h_] @ p.x[k] - p.x[k] @ xi[t_] for k, (t_, h_) in enumerate(q.arrows)),
            y=tuple(xi[t_] @ p.y[k] - p.y[k] @ xi[h_] for k, (t_, h_) in enumerate(q.arrows)),
            I={i: xi[i] @ p.I[i] for i in q.vertices},
            J={i: -p.J[i] @ xi[i] for i in q.vertices},
        )

        def mu_paired(s):
            shifted = QuiverRepPoint(
                q, v, w,
                x=tuple(p.x[k] + s * t.x[k] for k in range(len(q.arrows))),
                y=tuple(p.y[k] + s * t.y[k] for k in range(len(q.arrows))),
                I={i: p.I[i] + s * t.I[i] for i in q.vertices},
                J={i: p.J[i] + s * t.J[i] for i in q.vertices},
            )
            mu = rep_moment_map(shifted)
            return sum(np.trace(mu[i] @ xi[i]) for i in q.vertices)

        lhs = rep_symplectic_pairing(xi_m, t)
        rhs = (mu_paired(h) - mu_paired(-h)) / (2 * h)
        assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(lhs))


# --- stability: brute-force oracle ---------------------------------------------


def _graded_pieces(p, support):
    # basis matrix of each graded piece: identity on chosen dim-1 vertices
    return {i: (np.eye(p.v[i]) if i in support else np.zeros((p.v[i], 0)))
            for i in p.quiver.vertices}


def _contained(vec_block, basis, ztol):
    # columns of vec_block lie in the column span of basis
    if vec_block.size == 0:
        return True
    if basis.shape[1] == 0:
        return maxabs(vec_block) <= ztol
    coeff, *_ = np.linalg.lstsq(basis, vec_block, rcond=None)
    return maxabs(basis @ coeff - vec_block) <= ztol


def brute_force_01_verdict(p, theta, ztol) -> str:
    """Evaluate the defining semistability conditions over every graded
    support: invariance and containment checked by residuals."""
    q = p.quiver
    ones = [i for i in q.vertices if p.v[i] == 1]
    for r in range(len(ones) + 1):
        for chosen in itertools.combinations(ones, r):
            s = frozenset(chosen)
            pieces = _graded_pieces(p, s)
            invariant = True
            for k, (t, h) in enumerate(q.arrows):
                if not _contained(p.x[k] @ pieces[t], pieces[h], ztol):
                    invariant = False
                    break
                if not _contained(p.y[k] @ pieces[h], pieces[t], ztol):
                    invariant = False
                    break
            if not invariant:
                continue
            # subspace clause: inside Ker J, positive weight
            if all(maxabs(p.J[i] @ pieces[i]) <= ztol for i in q.vertices):
                if sum(theta[i] * pieces[i].shape[1] for i in q.vertices) > 0:
                    return "unstable"
            # quotient clause: contains Im I, negative weight on the quotient
            if all(_contained(p.I[i], pieces[i], ztol) for i in q.vertices):
                if sum(theta[i] * (p.v[i] - pieces[i].shape[1]) for i in q.vertices) < 0:
                    return "unstable"
    return "semistable"


def _witness_is_destabilizing(p, verdict, theta, ztol) -> bool:
    pieces = {i: verdict.witness.parts[i].basis for i in p.quiver.vertices}
    for k, (t, h) in enumerate(p.quiver.arrows):
        if not _contained(p.x[k] @ pieces[t], pieces[h], ztol):
            return False
        if not _contained(p.y[k] @ pieces[h], pieces[t], ztol):
            return False
    if verdict.clause == "kernel":
        return (all(maxabs(p.J[i] @ pieces[i]) <= ztol for i in p.quiver.vertices)
                and sum(theta[i] * pieces[i].shape[1] for i in p.quiver.vertices) > 0)
    return (all(_contained(p.I[i], pieces[i], ztol) for i in p.quiver.vertices)
            and sum(theta[i] * (p.v[i] - pieces[i].shape[1])
                    for i in p.quiver.vertices) < 0)


def _random_01_instances(n):
    rng = np.random.default_rng(1234)
    out = []
    for _ in range(n):
        n_vert = int(rng.integers(1, 5))
        names = tuple("v%d" % i for i in range(n_vert))
        arrows = tuple((names[rng.integers(n_vert)], names[rng.integers(n_vert)])
                       for _ in range(rng.integers(0, 5)))
        q = Quiver(names, arrows)
        v = {i: int(rng.integers(0, 2)) for i in names}
        w = {i: int(rng.integers(0, 3)) for i in names}
        p = _random_point(rng, q, v, w, sparsity=0.5)
        theta = {i: int(rng.integers(-2, 3)) for i in names}
        out.append((p, theta))
    return out


@pytest.mark.parametrize("case", range(40))
def test_exact01_matches_brute_force(case):
    p, theta = _random_01_instances(40)[case]
    ztol = 1e-9 * max(1.0, p.scale())
    expect = brute_force_01_verdict(p, theta, ztol)
    got = rep_semistable(p, theta, mode="exact01")
    if all(v == 0 for v in theta.values()):
        assert got.kind == "semistable"
        return
    assert got.kind == expect
    if got.kind == "unstable":
        assert _witness_is_destabilizing(p, got, theta, ztol)


@pytest.mark.parametrize("case", range(40))
def test_heuristic_sound_against_exact01(case):
    p, theta = _random_01_instances(40)[case]
    ztol = 1e-9 * max(1.0, p.scale())
    exact = rep_semistable(p, theta, mode="exact01")
    # the lattice search, run here although every v_i <= 1
    heur = _lattice_search(**_quiver_data(p, theta), stable=False)
    if heur.kind == "unstable":
        # a lattice witness must be genuinely destabilizing
        assert exact.kind == "unstable"
        assert _witness_is_destabilizing(p, heur, theta, ztol)
    if heur.kind == "semistable":
        assert exact.kind == "semistable"


def test_heuristic_finds_obvious_witness(rng):
    # J = 0 with positive weight: the full space destabilizes
    p = QuiverRepPoint(JORDAN, {"z": 2}, {"z": 1},
                       (cgauss(rng, 2, 2),), (cgauss(rng, 2, 2),),
                       {"z": cgauss(rng, 2, 1)}, {"z": np.zeros((1, 2))})
    got = rep_semistable(p, {"z": 1}, mode="heuristic")
    assert got.kind == "unstable" and got.clause == "kernel"
    assert got.witness.dim("z") == 2


def test_heuristic_finds_kernel_line(rng):
    # x nilpotent with a J-killed invariant line
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    p = QuiverRepPoint(JORDAN, {"z": 2}, {"z": 1}, (x,), (np.zeros((2, 2)),),
                       {"z": cgauss(rng, 2, 1)}, {"z": np.array([[0.0, 1.0]])})
    got = rep_semistable(p, {"z": 1}, mode="heuristic")
    # span(e1) is x- and y-invariant, killed by J, weight +1 > 0
    assert got.kind == "unstable"
    assert got.witness.dim("z") >= 1


def test_exact01_unavailable_above_dim_one(rng):
    p = _random_point(rng, A1, {"z": 2}, {"z": 1})
    with pytest.raises(Exact01Unavailable, match=r"vertex 'z' has dimension 2$"):
        rep_semistable(p, {"z": 1}, mode="exact01")


def test_zero_weights_short_circuit(rng):
    p = _random_point(rng, A1, {"z": 1}, {"z": 0})
    assert rep_semistable(p, {"z": 0}, mode="exact01").kind == "semistable"


def test_unknown_mode_rejected(rng):
    p = _random_point(rng, A1, {"z": 1}, {"z": 1})
    with pytest.raises(ValueError):
        rep_semistable(p, {"z": 1}, mode="bogus")
    with pytest.raises(ValueError):
        rep_semistable(p, {"other": 1})


def test_omitted_vertex_weighs_zero(rng):
    # J = 0 at z with weight 1: the kernel clause fires with u left out
    q = Quiver(("u", "z"), ())
    p = _random_point(rng, q, {"u": 1, "z": 1}, {"u": 1, "z": 1})
    p = QuiverRepPoint(q, p.v, p.w, p.x, p.y, p.I, {"u": p.J["u"], "z": np.zeros((1, 1))})
    for mode in ("exact01", "heuristic"):
        got = rep_semistable(p, {"z": 1}, mode=mode)
        want = rep_semistable(p, {"u": 0, "z": 1}, mode=mode)
        assert got.kind == want.kind == "unstable"
        assert got.clause == want.clause
        assert {i: got.witness.dim(i) for i in "uz"} == {i: want.witness.dim(i) for i in "uz"}
    with pytest.raises(ValueError, match="'other'"):
        rep_semistable(p, {"z": 1, "other": 0})


def test_integerize_weights():
    got = integerize_weights({"a": Fraction(1, 3), "b": Fraction(-1, 2), "c": 1})
    assert got == {"a": 2, "b": -3, "c": 6}
    assert integerize_weights({"a": 2, "b": -1}) == {"a": 2, "b": -1}
    with pytest.raises(TypeError):
        integerize_weights({"a": "heavy"})


def test_integerize_weights_reads_numpy_scalars_and_bool():
    got = integerize_weights({"a": np.int64(3), "b": np.float64(0.25), "c": True, "d": 0.5,
                              "e": np.float32(0.5), "f": np.float16(0.25)})
    assert got == {"a": 12, "b": 1, "c": 4, "d": 2, "e": 2, "f": 1}
    third = np.longdouble(1) / 3   # taken at its exact value, wider than a float's
    num, den = third.as_integer_ratio()
    assert integerize_weights({"a": third, "b": 1}) == {"a": num, "b": den}
    assert all(type(n) is int for n in got.values())
    assert integerize_weights({"a": np.int32(-2), "b": False}) == {"a": -2, "b": 0}


@pytest.mark.parametrize("bad", ("1/2", "3", 1 + 0j, np.complex128(1)))
def test_integerize_weights_rejects_strings_and_complex(bad):
    with pytest.raises(TypeError, match="^weight for 'a' must be int, float, or Fraction$"):
        integerize_weights({"a": bad, "b": 0.5})


@pytest.mark.parametrize("bad", (float("inf"), -float("inf"), float("nan"),
                                 np.float32("inf"), np.float64("nan")))
def test_integerize_weights_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="^weight for 'a' must be finite, got "):
        integerize_weights({"a": bad, "b": 0.5})


def test_rep_semistable_weights_numpy_floats_and_non_finite(rng):
    # J = 0 with positive weight: the full space destabilizes
    p = QuiverRepPoint(JORDAN, {"z": 2}, {"z": 1},
                       (cgauss(rng, 2, 2),), (cgauss(rng, 2, 2),),
                       {"z": cgauss(rng, 2, 1)}, {"z": np.zeros((1, 2))})
    for theta in (np.float32(0.5), np.float16(0.5)):
        got = rep_semistable(p, {"z": theta})
        assert got.kind == "unstable" and got.clause == "kernel"
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="^weight for 'z' must be finite, got "):
            rep_semistable(p, {"z": bad})


def test_verdict_validation():
    with pytest.raises(ValueError):
        StabilityVerdict("maybe")
    with pytest.raises(ValueError):
        StabilityVerdict("unstable")  # no witness


def test_json_round_trip(rng):
    q = Quiver(("a", "b"), (("a", "b"), ("b", "b")))
    p = _random_point(rng, q, {"a": 2, "b": 1}, {"a": 0, "b": 2})
    back = quiver_point_from_json_dict(quiver_point_to_json_dict(p))
    assert back.quiver == p.quiver
    assert back.v == p.v and back.w == p.w
    assert all(np.array_equal(back.x[k], p.x[k]) for k in range(2))
    assert all(np.array_equal(back.J[i], p.J[i]) for i in q.vertices)


@pytest.mark.parametrize("key, where, message", (
    ("v", None, "vertex 'a' has no 'v' entry"),
    ("I", "b", "vertex 'b' has no 'I' entry"),
    ("x", None, "quiver point data has no 'x' entry"),
))
def test_json_reader_names_a_missing_entry(rng, key, where, message):
    q = Quiver(("a", "b"), (("a", "b"),))
    data = quiver_point_to_json_dict(_random_point(rng, q, {"a": 2, "b": 1}, {"a": 1, "b": 0}))
    if where is None:
        del data[key]
    else:
        del data[key][where]
    with pytest.raises(ValueError, match=f"^{message}$"):
        quiver_point_from_json_dict(data)


def test_json_reader_names_the_block_of_an_integer_beyond_float_range(rng):
    q = Quiver(("a", "b"), (("a", "b"),))
    data = quiver_point_to_json_dict(_random_point(rng, q, {"a": 2, "b": 1}, {"a": 1, "b": 0}))
    data["J"]["a"][0][1] = [10 ** 400, 0.0]
    with pytest.raises(ValueError, match="^J of vertex 'a': row 0, entry 1: "
                                         "int too large to convert to float$"):
        quiver_point_from_json_dict(data)
    data["J"]["a"][0][1] = [0.0, 0.0]
    data["x"][0] = [[[1.0, 0.0]]]
    with pytest.raises(ValueError, match="^x of arrow 0: row 0: expected 2 entries, got 1$"):
        quiver_point_from_json_dict(data)
