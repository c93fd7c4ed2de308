"""Stability verdicts on the benchmark's frozen points, scaled.

Two scalings map a fiber to a fiber and move no kernel or image clause:
on a bow, the weighted scaling by t of solve_fiber's rescaling (each
flat entry times t ** lam_power); on a quiver, (x, y, I, J) times t.
So a verdict's kind may not move under either.  Today it does where
linalg's zero rule reads a scaled point's entries against a floor that
does not scale, or the trace certificate compares a quadratic residual
with a linear cutoff (ROADMAP item 16); each such case is a strict
xfail, visible until a fix flips it.

Scaled by 1e160, the moment map overflows.  There a call must return
its scale-1 kind or "not-falsified", or refuse with a ValueError or a
LinAlgError: no gate may read an overflowed (NaN) residual as zero.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from bowlab.graded import StabilityVerdict
from bowlab.quiver import rep_semistable
from bowlab.total_space import (
    MuHNonzero,
    _compiled,
    _fix_H,
    check_semistable,
    check_shapes,
    flatten_point,
    unflatten_point,
)

ROOT = Path(__file__).resolve().parent.parent

with pytest.MonkeyPatch.context() as _mp:
    # tools/decisions.py pins BLAS threads, stops bytecode writing and
    # extends sys.path on import; all three are put back here
    _mp.setattr(sys, "dont_write_bytecode", True)
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        _mp.setenv(_var, "1")
    _mp.syspath_prepend(str(ROOT / "tools"))
    import decisions

NAMES = ("CYCLE3_11", "CYCLE3_1x5", "CYCLE_11", "CYCLE_444", "INTERVAL_111", "LOOP_2",
         "MIX_3333_33", "S222")
OVERFLOW = 1e160

# (name, route, stable) -> the scales at which the kind moves today
MOVES = {
    ("CYCLE3_11", "bow", True): (1e-12, 1e-09),
    ("CYCLE3_11", "quiver", False): (1e-12, 1e-09),
    ("CYCLE3_11", "quiver", True): (1e-12, 1e-09),
    ("CYCLE3_1x5", "bow", True): (1e-12, 1e-09),
    ("CYCLE3_1x5", "quiver", False): (1e-12,),
    ("CYCLE3_1x5", "quiver", True): (1e-12,),
    ("CYCLE_11", "bow", True): (1e-12, 1e-09),
    ("CYCLE_11", "quiver", False): (1e-12, 1e-09),
    ("CYCLE_11", "quiver", True): (1e-12, 1e-09),
    ("CYCLE_444", "bow", False): (1e-12, 1e-09, 1e-06, 1e6, 1e12),
    ("CYCLE_444", "bow", True): (1e-12,),
    ("CYCLE_444", "quiver", False): (1e-12, 1e-09, 1e-06, 1e6, 1e12),
    ("CYCLE_444", "quiver", True): (1e-12,),
    ("INTERVAL_111", "quiver", False): (1e-12,),
    ("INTERVAL_111", "quiver", True): (1e-12,),
    ("MIX_3333_33", "bow", False): (1e-12, 1e-09, 1e-06, 1e6, 1e12),
    ("MIX_3333_33", "bow", True): (1e-12,),
    ("MIX_3333_33", "quiver", False): (1e-12, 1e-09, 1e-06, 1e6, 1e12),
    ("MIX_3333_33", "quiver", True): (1e-12,),
    ("S222", "bow", False): (1e-12, 1e-09, 1e12),
    ("S222", "bow", True): (1e-12, 1e-09, 1e12),
    ("S222", "quiver", False): (1e-12, 1e-09, 1e3, 1e6, 1e12),
    ("S222", "quiver", True): (1e-12, 1e-09, 1e3, 1e6, 1e12),
}


@pytest.fixture(scope="module")
def frozen():
    """name -> (diagram, point, theta, reduced quiver point), read by the
    benchmark's own loader, which re-verifies each point."""
    inputs = decisions.inputs
    return {name: (d, p, theta, inputs.reduced(d, p))
            for name, (d, p, _lam, theta) in inputs.load_frozen(inputs.parse_all()).items()}


@pytest.fixture(scope="module")
def scale_kinds():
    """(name, route, stable, t) -> (kind at t = 1, kind at t), each a
    verdict's kind or an error's class name: the records of
    tools/decisions.py's scale family."""
    return {(name, route, stable, t): (one, kind)
            for name, t, stable, route, one, kind in decisions.scale()}


def _scale_cases():
    for name in NAMES:
        for route in ("bow", "quiver"):
            for stable in (False, True):
                moves = MOVES.get((name, route, stable), ())
                for t in decisions.SCALES:
                    marks = [pytest.mark.xfail(strict=True, reason=(
                        "ROADMAP item 16: the zero rule's floor does not follow the scaling"))
                             ] if t in moves else []
                    yield pytest.param((name, route, stable, t), marks=marks,
                                       id=f"{name}-{route}-{'stable' if stable else 'semi'}-{t:g}")


def test_the_scale_family_covers_every_case(scale_kinds):
    assert sorted(scale_kinds) == sorted(case.values[0] for case in _scale_cases())


@pytest.mark.parametrize("case", _scale_cases())
def test_a_verdict_does_not_move_under_the_points_scaling(scale_kinds, case):
    at_one, at_t = scale_kinds[case]
    assert at_t == at_one


# --- the moment map overflows ---------------------------------------------------------


@pytest.mark.parametrize("call", ("bow", "bow-stable", "quiver"))
@pytest.mark.parametrize("name", NAMES)
def test_an_overflowing_point_gets_its_kind_or_a_refusal(frozen, name, call):
    d, p, theta, q = frozen[name]

    def verdict(t: float) -> StabilityVerdict:
        if call == "quiver":
            return rep_semistable(decisions._scaled_quiver(q, t), theta)
        return check_semistable(d, unflatten_point(d, flatten_point(d, p) * t), theta,
                                stable=call == "bow-stable")

    at_one = verdict(1.0).kind
    with np.errstate(all="ignore"):
        try:
            big = verdict(OVERFLOW)
        except (ValueError, np.linalg.LinAlgError):
            return   # a refusal
    assert big.kind in (at_one, "not-falsified")


@pytest.mark.parametrize("name", ("CYCLE_444", "MIX_3333_33"))
def test_the_H_gauge_walk_refuses_an_overflowed_residual(frozen, name):
    # the non-first segments' moments overflow to NaN: the walk must stop
    # at its residual gate, not build a point from the NaN
    d, p, _theta, _q = frozen[name]
    blocks = check_shapes(d, unflatten_point(d, flatten_point(d, p) * OVERFLOW))
    with np.errstate(all="ignore"), pytest.raises(MuHNonzero):
        _fix_H(_compiled(d), blocks)
