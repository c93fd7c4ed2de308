"""The moment-map trace certificate of quiver stability.

On a point with every mu_i = lam_i id, an invariant subspace inside
Ker J has lam . dim = 0, and one containing Im I has lam . codim = 0,
so dimension vectors away from that hyperplane hold no witness.  The
oracle is exact01 on solved 0/1 framed quivers: a certificate must
never claim (semi)stability where the support enumeration finds a
witness.  _destabilizer runs the certificate only where some v_i is
above 1, so it is called directly here.  The certificate must also stay silent where its premise
fails: off the fiber, at lam = 0, and where lam . s is zero up to what
the engine reads as roundoff.
"""

import itertools
from math import prod

import numpy as np

from bowlab.linalg import residual_cutoff, zero_cutoff
from bowlab.quiver import (
    CERTIFICATE_CAP,
    Quiver,
    QuiverRepPoint,
    _destabilizer,
    _dimension_vectors,
    _fiber_scalars,
    _trace_certificate,
    rep_moment_map,
    rep_semistable,
)

from conftest import cgauss

SHAPES = (
    (("a",), ()),
    (("a",), (("a", "a"),)),
    (("a", "b"), (("a", "b"),)),
    (("a", "b"), (("a", "b"), ("b", "a"))),
    (("a", "b", "c"), (("a", "b"), ("b", "c"), ("c", "a"))),
    (("a", "b", "c"), (("a", "b"), ("b", "c"))),
)
# lam_i is drawn from these, so that lam . s = 0 happens on purpose
LAMBDAS = (0, 0, 1, -1, 0.5, -0.5, 0.3 + 0.4j)


def _scalar(rng):
    """A complex number, zero a third of the time."""
    return complex(cgauss(rng, 1, 1)[0, 0]) if rng.random() > 1 / 3 else 0j


def _solved_01_point(rng):
    """A random framed quiver point with every v_i in {0, 1}.  Each mu_i
    is then 1 x 1, so the point lies on the fiber over lam_i = mu_i;
    lam_i is steered onto LAMBDAS: the arrows are drawn first, then at a
    framed vertex J solves I J = lam_i - (the arrows' part).  An
    unframed vertex takes the arrows' part as its lam_i."""
    vertices, arrows = SHAPES[rng.integers(len(SHAPES))]
    q = Quiver(vertices, arrows)
    v = {i: int(rng.random() > 0.15) for i in vertices}
    w = {i: int(rng.integers(0, 3)) if v[i] else 0 for i in vertices}
    x = tuple(np.array([[_scalar(rng)]] if v[h] and v[t] else np.zeros((v[h], v[t])))
              for t, h in arrows)
    y = tuple(np.array([[_scalar(rng)]] if v[h] and v[t] else np.zeros((v[t], v[h])))
              for t, h in arrows)
    p = QuiverRepPoint(q, v, w, x, y, {i: np.zeros((v[i], w[i])) for i in vertices},
                       {i: np.zeros((w[i], v[i])) for i in vertices})
    arrows_part = rep_moment_map(p)
    I, J = {}, {}
    for i in vertices:
        I[i], J[i] = np.zeros((v[i], w[i]), complex), np.zeros((w[i], v[i]), complex)
        if not (v[i] and w[i]):
            continue
        need = LAMBDAS[rng.integers(len(LAMBDAS))] - arrows_part[i][0, 0]
        row = np.array([[_scalar(rng) for _ in range(w[i])]])
        if not row.any():
            if abs(need) > 0:
                row[0, 0] = 1.0
            else:
                J[i] = cgauss(rng, w[i], 1)
        if row.any():
            # the least-norm J with I J = need, plus a part that I kills
            free = cgauss(rng, w[i], 1)
            free -= row.conj().T @ (row @ free) / np.vdot(row, row).real
            J[i] = row.conj().T * need / np.vdot(row, row).real + free * (rng.random() > 0.5)
        I[i] = row
    return QuiverRepPoint(q, v, w, x, y, I, J)


def test_a_certificate_never_contradicts_exact01():
    rng = np.random.default_rng(1729)
    checks = issued = 0
    for _ in range(500):
        p = _solved_01_point(rng)
        weights = {i: int(rng.integers(-2, 3)) for i in p.quiver.vertices}
        for stable in (False, True):
            checks += 1
            if _trace_certificate(p, weights, stable):
                issued += 1
                verdict = _destabilizer(p, weights, stable)
                assert verdict.kind == "semistable"
                # the enumeration decided it, not the certificate
                assert verdict.searched > 0 or not (stable or any(weights.values()))
    # the oracle is not vacuous: both outcomes occur often
    assert 200 <= issued <= checks - 200


def test_no_certificate_off_the_fiber(rng):
    q = Quiver(["a"], [("a", "a")])
    p = QuiverRepPoint(q, {"a": 2}, {"a": 1}, (cgauss(rng, 2, 2),), (cgauss(rng, 2, 2),),
                       {"a": cgauss(rng, 2, 1)}, {"a": cgauss(rng, 1, 2)})
    mu = rep_moment_map(p)["a"]
    assert np.linalg.norm(mu - np.trace(mu) / 2 * np.eye(2)) > 0.1
    for weight, stable in itertools.product((-1, 0, 1), (False, True)):
        assert not _trace_certificate(p, {"a": weight}, stable)


def test_no_certificate_at_lambda_zero():
    # a -> b with x = 1, y = 0 and no framing: mu = 0, and the image of x
    # is an invariant subspace inside Ker J of every dimension vector
    q = Quiver(["a", "b"], [("a", "b")])
    p = QuiverRepPoint(q, {"a": 1, "b": 1}, {"a": 0, "b": 0}, (np.ones((1, 1)),),
                       (np.zeros((1, 1)),), {"a": np.zeros((1, 0)), "b": np.zeros((1, 0))},
                       {"a": np.zeros((0, 1)), "b": np.zeros((0, 1))})
    for weights in ({"a": 1, "b": -1}, {"a": -1, "b": 1}, {"a": 0, "b": 1}):
        for stable in (False, True):
            assert not _trace_certificate(p, weights, stable)
    verdict = rep_semistable(p, {"a": -1, "b": 1})
    assert verdict.kind == "unstable" and verdict.searched > 0


def test_no_certificate_where_lambda_dot_s_is_roundoff():
    # a -> b, x = 1, y = 1/2, I_a = 1 and J_a = 1e-10: lam = (-1/2 + 1e-10, 1/2),
    # so lam . (1, 1) = 1e-10, and the engine reads J_a as zero, making
    # the whole space a kernel witness for positive total weight
    q = Quiver(["a", "b"], [("a", "b")])
    p = QuiverRepPoint(q, {"a": 1, "b": 1}, {"a": 1, "b": 0}, (np.ones((1, 1)),),
                       (np.full((1, 1), 0.5),), {"a": np.ones((1, 1)), "b": np.zeros((1, 0))},
                       {"a": np.full((1, 1), 1e-10), "b": np.zeros((0, 1))})
    mu = rep_moment_map(p)
    assert abs(mu["a"][0, 0] + mu["b"][0, 0] - 1e-10) < 1e-15
    weights = {"a": 2, "b": -1}
    for stable in (False, True):
        assert not _certificate(p, weights, stable)
        assert _destabilizer(p, weights, stable).kind == "unstable"
    # away from roundoff the same dimension vector is ruled out
    far = QuiverRepPoint(q, p.v, p.w, p.x, p.y, p.I, {"a": np.full((1, 1), 0.1),
                                                      "b": np.zeros((0, 1))})
    for stable in (False, True):
        assert _certificate(far, weights, stable)
    assert _destabilizer(far, weights, False).kind == "semistable"


def test_no_certificate_where_the_moment_map_overflows():
    # a loop with x = 1e160 id and y = 1e160 ones: [x, y] = 0 in exact
    # arithmetic, but its entries are inf - inf = NaN, and the kernel
    # witness V (J = 0, weight 1) is there at every scale
    q = Quiver(["a"], [("a", "a")])
    for scale in (1.0, 1e160):
        p = QuiverRepPoint(q, {"a": 2}, {"a": 1}, (scale * np.eye(2),),
                           (scale * np.ones((2, 2)),), {"a": np.zeros((2, 1))},
                           {"a": np.zeros((1, 2))})
        with np.errstate(all="ignore"):
            assert not _trace_certificate(p, {"a": 1}, False)
            verdict = rep_semistable(p, {"a": 1})
        assert (verdict.kind, verdict.clause) == ("unstable", "kernel")


def test_no_certificate_past_the_cap():
    # I = J = 1 at every one of n unlinked vertices puts lam_i = 1, so
    # only s = 0 has lam . s = 0 and the point is stable; n vertices
    # have 2^n dimension vectors, and past the cap none is enumerated
    n = CERTIFICATE_CAP.bit_length() - 1
    for count, certified in ((n, True), (n + 1, False)):
        vs = [f"v{i}" for i in range(count)]
        one = dict.fromkeys(vs, np.ones((1, 1)))
        p = QuiverRepPoint(Quiver(vs, []), dict.fromkeys(vs, 1), dict.fromkeys(vs, 1),
                           (), (), one, one)
        for stable in (False, True):
            assert _certificate(p, dict.fromkeys(vs, 1), stable) is certified


# --- parity with the certificate's reference arithmetic -----------------------


def _reference_scalars(p: QuiverRepPoint, verts: list) -> tuple:
    """_fiber_scalars by np.trace, np.eye and np.linalg.norm."""
    mu = rep_moment_map(p)
    lam = np.array([np.trace(mu[i]) / p.v[i] for i in verts], dtype=complex)
    err = np.array([np.linalg.norm(mu[i] - lam_i * np.eye(p.v[i]))
                    for i, lam_i in zip(verts, lam)])
    return lam, err


def _reference_certificate(p: QuiverRepPoint, weights: dict, stable: bool) -> bool:
    """_trace_certificate written with numpy's generic calls: np.trace,
    np.eye and np.linalg.norm per vertex, and a fresh np.indices grid
    whose int rows are promoted in the final filter."""
    verts = [i for i in p.quiver.vertices if p.v[i]]
    sizes = [p.v[i] + 1 for i in verts]
    if prod(sizes) > CERTIFICATE_CAP:
        return False
    lam, err = _reference_scalars(p, verts)
    mats = [m.ravel() for m in (*p.x, *p.y, *p.I.values(), *p.J.values()) if m.size]
    mats = mats or [np.zeros(1)]
    entries = np.abs(np.concatenate(mats))
    if float(np.linalg.norm(err)) > residual_cutoff(float(entries.max())):
        return False
    starts = list(itertools.accumulate((m.size for m in mats[:-1]), initial=0))
    total = float(np.sqrt(np.add.reduceat(entries * entries, starts)).sum())
    slack = zero_cutoff(total) * total * sum(p.v[i] + p.w[i] for i in p.quiver.vertices)
    s = np.indices(sizes).reshape(len(verts), -1).T if verts else np.zeros((1, 0), int)
    kept = np.abs(s @ lam) <= s @ (err + slack)
    pairing = s @ np.array([weights[i] for i in verts])
    return not (kept & ((pairing != 0) | (stable & s.any(axis=1)))).any()


def _certificate(p: QuiverRepPoint, weights: dict, stable: bool) -> bool:
    """_trace_certificate(p, weights, stable), checked against the
    reference, and its lam and err against the reference's, byte for byte."""
    verts = [i for i in p.quiver.vertices if p.v[i]]
    for got, want in zip(_fiber_scalars(p, verts), _reference_scalars(p, verts)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    got = _trace_certificate(p, weights, stable)
    assert got is _reference_certificate(p, weights, stable)
    return got


def _block(rng, rows: int, cols: int) -> np.ndarray:
    """A random block: zero a fifth of the time, rank one a fifth, else
    gaussian at a scale between 1e-3 and 1e3."""
    u = rng.random()
    if u < 0.2 or not (rows and cols):
        return np.zeros((rows, cols), dtype=complex)
    if u < 0.4:
        return cgauss(rng, rows, 1) @ cgauss(rng, 1, cols)
    return cgauss(rng, rows, cols, 10.0 ** rng.integers(-3, 4))


def _solved_point(rng) -> QuiverRepPoint:
    """A random framed quiver point with every v_i in 0..4.  The arrows
    are drawn first; at a vertex with w_i >= v_i, I and J then solve
    I J = lam_i id - (the arrows' part), lam_i from LAMBDAS, so that
    lam . s = 0 happens on purpose; one solved vertex in ten gets a
    strictly upper triangular part on top, off the fiber with its
    diagonal on it.  One vertex in five has w_i drawn apart from v_i and
    random I and J: off the fiber unless v_i = 0."""
    vertices, arrows = SHAPES[rng.integers(len(SHAPES))]
    v = {i: int(rng.integers(0, 5)) for i in vertices}
    w = {i: v[i] + int(rng.integers(0, 2)) if rng.random() < 0.8 else int(rng.integers(0, 3))
         for i in vertices}
    x = tuple(_block(rng, v[h], v[t]) for t, h in arrows)
    y = tuple(_block(rng, v[t], v[h]) for t, h in arrows)
    I = {i: _block(rng, v[i], w[i]) for i in vertices}
    J = {i: _block(rng, w[i], v[i]) for i in vertices}
    q = Quiver(vertices, arrows)
    arrows_part = rep_moment_map(QuiverRepPoint(q, v, dict.fromkeys(vertices, 0), x, y,
                                                {i: np.zeros((v[i], 0)) for i in vertices},
                                                {i: np.zeros((0, v[i])) for i in vertices}))
    for i in vertices:
        n = v[i]
        if n and w[i] >= n and rng.random() < 0.8:
            g = cgauss(rng, n, n)
            need = LAMBDAS[rng.integers(len(LAMBDAS))] * np.eye(n) - arrows_part[i]
            if rng.random() < 0.1:
                # mu_i = lam_i id + a nilpotent part, at or far above roundoff
                need = need + np.triu(cgauss(rng, n, n), 1) * 10.0 ** rng.choice([-13, -9, 0])
            I[i] = np.hstack([need @ np.linalg.inv(g), np.zeros((n, w[i] - n))])
            J[i] = np.vstack([g, cgauss(rng, w[i] - n, n)])
    return QuiverRepPoint(q, v, w, x, y, I, J)


def test_certificate_matches_the_reference_on_solved_points():
    rng = np.random.default_rng(4471)
    outcomes = {}   # (some v_i above 1, certified) -> count
    for _ in range(3000):
        p = _solved_point(rng)
        weights = {i: int(rng.integers(-2, 3)) for i in p.quiver.vertices}
        for stable in (False, True):
            key = (max(p.v.values()) > 1, _certificate(p, weights, stable))
            outcomes[key] = outcomes.get(key, 0) + 1
    # both outcomes occur often, above dimension 1 too
    assert min(outcomes.get((big, ok), 0) for big in (False, True) for ok in (False, True)) >= 200


def test_certificate_matches_the_reference_on_01_points():
    rng = np.random.default_rng(1729)
    for _ in range(500):
        p = _solved_01_point(rng)
        weights = {i: int(rng.integers(-2, 3)) for i in p.quiver.vertices}
        for stable in (False, True):
            _certificate(p, weights, stable)


def test_dimension_vectors_give_the_int_grids_products(rng):
    # the certificate's filter multiplies the cached float and complex
    # grids; an int grid's products with the same vectors have those bits
    for sizes in ((), (5,), (5, 5), (3, 2, 4), (2,) * 6):
        s, s_real, s_complex = _dimension_vectors(sizes)
        grid = np.indices(sizes).reshape(len(sizes), -1).T if sizes else np.zeros((1, 0), int)
        assert np.array_equal(s, grid) and not s.flags.writeable
        for _ in range(50):
            lam = cgauss(rng, len(sizes), 1)[:, 0] * 10.0 ** rng.uniform(-3, 3)
            err = rng.random(len(sizes)) * 1e-9
            assert (s_complex @ lam).tobytes() == (grid @ lam).tobytes()
            assert (s_real @ err).tobytes() == (grid @ err).tobytes()
