"""Inputs of the benchmark: diagram texts, frozen solved points, and the
seeded unitary gauge that varies them from run to run.

The diagram texts are written out here, not imported from the test
suite, so that editing a test cannot change what the benchmark measures.
The solved points are frozen in fixtures/points.json (written once by
make_fixtures.py) so that a change to the solver cannot change the
points that stability, reduction and the CLI are timed on.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from bowlab import diagrams, reduction, total_space

INTERVAL_111 = "bow { wavy s [1, 1, 1]; }"
LOOP_2 = "bow { wavy a [2]; edge a -> a; }"
CYCLE_11 = "bow { wavy a [1, 1]; wavy b [1, 1]; edge a -> b; edge b -> a; }"
S222 = "bow { wavy s [2, 2, 2]; }"
MIX_3333_33 = "bow { wavy a [3, 3, 3, 3]; wavy b [3, 3]; edge a -> b; edge b -> a; }"
CYCLE_444 = "bow { wavy a [4, 4, 4]; wavy b [4, 4, 4]; edge a -> b; edge b -> a; }"
CYCLE3_11 = ("bow { wavy a [1, 1]; wavy b [1, 1]; wavy c [1, 1]; "
             "edge a -> b; edge b -> c; edge c -> a; }")
CYCLE3_1x5 = ("bow { wavy a [1, 1, 1, 1, 1]; wavy b [1, 1, 1, 1, 1]; "
              "wavy c [1, 1, 1, 1, 1]; edge a -> b; edge b -> c; edge c -> a; }")
EMPTY_252 = "bow { wavy a [2]; wavy b [5, 2]; edge a -> b; }"

TEXTS = {
    "INTERVAL_111": INTERVAL_111,
    "LOOP_2": LOOP_2,
    "CYCLE_11": CYCLE_11,
    "S222": S222,
    "MIX_3333_33": MIX_3333_33,
    "CYCLE_444": CYCLE_444,
    "CYCLE3_11": CYCLE3_11,
    "CYCLE3_1x5": CYCLE3_1x5,
    "EMPTY_252": EMPTY_252,
}

# Deformation of each frozen point and the stability weights it is
# checked at.  The deformations are generic, so the heuristic searches
# its whole candidate lattice; LOOP_2 sits at lambda = 0, where the
# whole space is a destabilising subspace and the search stops early.
FROZEN = {
    "INTERVAL_111": ({"s": 0}, {"s": 1}),
    "LOOP_2": ({"a": 0}, {"a": 1}),
    "CYCLE_11": ({"a": 0.4, "b": -0.4}, {"a": 1, "b": -1}),
    "S222": ({"s": 0.5}, {"s": 1}),
    "MIX_3333_33": ({"a": 0.5, "b": -0.5}, {"a": 1, "b": -1}),
    "CYCLE_444": ({"a": 0.5, "b": -0.5}, {"a": 1, "b": -1}),
    "CYCLE3_11": ({"a": 0.4, "b": -0.1, "c": -0.3}, {"a": 1, "b": 1, "c": -2}),
    "CYCLE3_1x5": ({"a": 0.4, "b": -0.1, "c": -0.3}, {"a": 1, "b": 1, "c": -2}),
}

FIXTURE_PATH = Path(__file__).resolve().parent / "fixtures" / "points.json"

# A frozen point is accepted when its moment residual is below this
# share of its scale.
RESIDUAL_RTOL = 1e-9


def parse_all() -> dict:
    return {name: diagrams.parse_bow_diagram(text) for name, text in TEXTS.items()}


def verify_point(d, p, lam) -> None:
    """Raise unless p lies on the fiber over lam and is open."""
    nu = diagrams.embed_deformation(d, lam)
    res = float(np.linalg.norm(total_space.moment_residual(d, p, nu)))
    if res > RESIDUAL_RTOL * max(1.0, p.scale()):
        raise ValueError(f"frozen point is off its fiber: residual {res:.3e}")
    if not total_space.open_conditions_hold(d, p):
        raise ValueError("frozen point fails the open conditions (S1)/(S2)")


def load_frozen(parsed: dict) -> dict:
    """name -> (diagram, point, lam, theta), each point re-verified."""
    with open(FIXTURE_PATH, encoding="utf-8") as fh:
        data = json.load(fh)
    out = {}
    for name, (lam, theta) in FROZEN.items():
        d = parsed[name]
        p = total_space.point_from_json_dict(d, data[name]["point"])
        verify_point(d, p, lam)
        out[name] = (d, p, lam, theta)
    return out


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def unitary_gauge(d, p, rng: np.random.Generator):
    """p moved by an independent random unitary on every segment.

    Residual, open conditions and stability verdicts are invariant, so
    the verdicts stay fixed while the matrices change with the seed.
    """
    g = {s: random_unitary(rng, d.dim(s)) for s in d.segments()}
    return total_space.gauge_action(d, g, p)


def reduced(d, p):
    """The framed quiver point of a point on a cobalanced diagram."""
    return reduction.to_quiver_point(reduction.gauge_fix_H(d, p))
