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

import numpy as np

from bowlab.quiver import (
    CERTIFICATE_CAP,
    Quiver,
    QuiverRepPoint,
    _destabilizer,
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
        assert not _trace_certificate(p, weights, stable)
        assert _destabilizer(p, weights, stable).kind == "unstable"
    # away from roundoff the same dimension vector is ruled out
    far = QuiverRepPoint(q, p.v, p.w, p.x, p.y, p.I, {"a": np.full((1, 1), 0.1),
                                                      "b": np.zeros((0, 1))})
    assert _trace_certificate(far, weights, False)
    assert _destabilizer(far, weights, False).kind == "semistable"


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
        assert _trace_certificate(p, dict.fromkeys(vs, 1), True) is certified
