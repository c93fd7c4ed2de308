"""Command-line front end.

Subcommands wrap the library one capability each: parse (DSL
validation and canonical output), solve (moment fiber search),
stability (semistability verdict at a point), dim (expected smooth
dimension), reduce (cobalanced quotient to a framed representation),
check-empty (necessary emptiness condition plus optional solver
evidence).

All structured output is JSON with complex entries as [re, im] pairs.
Runs are deterministic: the same input, seed, and flags produce
byte-identical output.  --seed defaults to 0.

_dump writes that JSON: its bytes are json.dumps(data, indent=2,
allow_nan=False)'s, but it builds each container's text by one join
over its items, and a list of floats (a matrix entry's [re, im] pair)
by one join over float.__repr__, not token by token through json's
pure-Python indenting encoder.  reduce reads the framed quiver point
off the H-gauge walk's blocks, as check_semistable's quiver route does,
without building the A = id lift that to_quiver_point would discard.

Exit codes: 0 success, 1 domain error (bad input data, failed solve,
non-cobalanced reduce target), 2 usage error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii

import numpy as np

from .diagrams import (
    BowDiagram,
    diagram_to_json_dict,
    local_emptiness_check,
    parse_bow_diagram,
    serialize,
)
from .linalg import _largest_entry, matrix_to_json
from .quiver import StabilityVerdict, quiver_point_to_json_dict
from .total_space import (
    FiberSolveReport,
    InfeasibilityEvidence,
    TotalSpacePoint,
    _compiled,
    _fix_H,
    _quiver_point,
    check_semistable,
    check_shapes,
    expected_smooth_dimension,
    point_from_json_dict,
    point_to_json_dict,
    solve_fiber,
)

__all__ = ["main"]


def _read_diagram(path: str) -> BowDiagram:
    with open(path, encoding="utf-8") as fh:
        return parse_bow_diagram(fh.read())


def _read_point(d: BowDiagram, path: str) -> TotalSpacePoint:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "point" in data:
        data = data["point"]  # accept solve-report files directly
    try:
        return point_from_json_dict(d, data)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ValueError(f"point file {path!r} does not match the diagram: {exc}")


def _per_interval(parser, d: BowDiagram, text: str | None, cast, what: str) -> dict:
    names = d.bow.intervals
    if text is None:
        return {name: cast("0") for name in names}
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != len(names):
        parser.error(f"--{what} needs {len(names)} comma-separated values "
                     f"(intervals {', '.join(names)}), got {len(parts)}")
    try:
        return {name: cast(p) for name, p in zip(names, parts)}
    except ValueError as exc:
        parser.error(f"--{what}: {exc}")
    except ZeroDivisionError:   # Fraction("1/0")
        parser.error(f"--{what}: a value has a zero denominator: {text!r}")


def _cast_deformation(text: str) -> complex:
    value = complex(text)
    if not cmath.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _check_seed(parser, seed: int) -> None:
    if seed < 0:
        parser.error(f"--seed must be non-negative, got {seed}")


def _cast_weight(text: str):
    try:
        return int(text)
    except ValueError:
        return Fraction(text)


def _dump(data) -> str:
    """json.dumps(data, indent=2, allow_nan=False), byte for byte, for the
    payloads the subcommands build: dicts with str keys, lists, tuples,
    str, int, float, bool and None.  A NaN or infinite float is no JSON:
    json's ValueError, so an error line and exit 1."""
    return _json(data, "\n")


def _json(x, pad: str) -> str:
    """x as json.dumps(indent=2) writes it after the line break and
    indent pad; a list of floats is written by one join."""
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = pad + "  "
        body = None
        if isinstance(x[0], float):
            try:
                body = ("," + inner).join(map(float.__repr__, x))
            except TypeError:   # an item that is not a float
                pass
            else:
                if "n" in body:   # nan, inf or -inf: no finite float's repr has an n
                    for v in x:
                        _float(v)
        if body is None:
            body = ("," + inner).join([_json(v, inner) for v in x])
        return "[" + inner + body + pad + "]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = pad + "  "
        return "{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in x.items()]) + pad + "}"
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return _float(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _float(x: float) -> str:
    text = float.__repr__(x)
    if "n" in text:
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return text


def _emit(text: str):
    sys.stdout.write(text + "\n")


def _report_json(d: BowDiagram, r: FiberSolveReport) -> dict:
    return {
        "status": "solved",
        "residual_norm": r.residual_norm,
        "iterations": r.iterations,
        "open_conditions_ok": r.open_conditions_ok,
        "seed": r.seed,
        "start_index": r.start_index,
        "point": point_to_json_dict(d, r.point),
    }


def _evidence_json(ev: InfeasibilityEvidence) -> dict:
    return {
        "status": "no-open-solution",
        "note": "evidence, not proof",
        "n_starts": ev.n_starts,
        "failed_starts": ev.n_starts,
        "best_residual": ev.best_residual,
        "seed": ev.seed,
        "starts": [
            {
                "start_index": s.start_index,
                "converged": s.converged,
                "residual_norm": s.residual_norm,
                "iterations": s.iterations,
                "open_conditions_ok": s.open_conditions_ok,
            }
            for s in ev.starts
        ],
    }


def _verdict_json(v: StabilityVerdict) -> dict:
    out = {"kind": v.kind, "clause": v.clause, "witness": None}
    if v.witness is not None:
        out["witness"] = {
            f"{seg.interval}:{seg.index}": {
                "dim": sub.dim,
                "basis": matrix_to_json(sub.basis),
            }
            for seg, sub in sorted(v.witness.parts.items(),
                                   key=lambda kv: (kv[0].interval, kv[0].index))
        }
    return out


def cmd_parse(args) -> int:
    d = _read_diagram(args.diagram)
    if args.dsl:
        sys.stdout.write(serialize(d))
    else:
        _emit(_dump(diagram_to_json_dict(d)))
    return 0


def cmd_solve(args) -> int:
    parser = args._parser
    if args.starts < 1:
        parser.error(f"--starts must be at least 1, got {args.starts}")
    _check_seed(parser, args.seed)
    d = _read_diagram(args.diagram)
    lam = _per_interval(parser, d, args.lam, _cast_deformation, "lambda")
    outcome = solve_fiber(d, lam, seed=args.seed, n_starts=args.starts)
    if isinstance(outcome, FiberSolveReport):
        if args.format == "table":
            _emit(f"solved: residual {outcome.residual_norm:.3e} after "
                  f"{outcome.iterations} iterations (start {outcome.start_index})")
        else:
            _emit(_dump(_report_json(d, outcome)))
        return 0
    if args.format == "table":
        _emit(f"no open solution in {outcome.n_starts} starts "
              f"(best residual {outcome.best_residual:.3e}; evidence, not proof)")
    else:
        _emit(_dump(_evidence_json(outcome)))
    return 1


def cmd_stability(args) -> int:
    d = _read_diagram(args.diagram)
    p = _read_point(d, args.point)
    theta = _per_interval(args._parser, d, args.theta, _cast_weight, "theta")
    verdict = check_semistable(d, p, theta, mode=args.mode, stable=args.stable)
    if args.format == "table":
        name = "stable" if args.stable else "semistable"
        _emit(f"{name} check ({args.mode}): {verdict.kind}"
              + (f" [{verdict.clause} clause]" if verdict.clause else ""))
    else:
        _emit(_dump(_verdict_json(verdict)))
    return 0


def cmd_dim(args) -> int:
    d = _read_diagram(args.diagram)
    _emit(str(expected_smooth_dimension(d)))
    return 0


def cmd_reduce(args) -> int:
    d = _read_diagram(args.diagram)
    p = _read_point(d, args.point)
    c = _compiled(d)
    # reduction.to_quiver_point(gauge_fix_H(d, p)) without the lift it discards
    rep = _quiver_point(c, _fix_H(c, check_shapes(d, p)))
    if args.format == "table":
        for i in rep.quiver.vertices:
            _emit(f"vertex {i}: v={rep.v[i]}, w={rep.w[i]}, "
                  f"|I|={_largest_entry(rep.I[i]):.3e}, |J|={_largest_entry(rep.J[i]):.3e}")
        for k, (t, h) in enumerate(rep.quiver.arrows):
            _emit(f"arrow {t} -> {h}: |x|={_largest_entry(rep.x[k]):.3e}, "
                  f"|y|={_largest_entry(rep.y[k]):.3e}")
    else:
        _emit(_dump(quiver_point_to_json_dict(rep)))
    return 0


def cmd_check_empty(args) -> int:
    if args.starts < 0:
        args._parser.error(f"--starts must be at least 0, got {args.starts}")
    _check_seed(args._parser, args.seed)
    d = _read_diagram(args.diagram)
    lam = _per_interval(args._parser, d, args.lam, _cast_deformation, "lambda")
    violations = local_emptiness_check(d)
    out = {
        "necessary_condition": "fail" if violations else "pass",
        "violations": [asdict(v) for v in violations],
        "solver_evidence": None,
    }
    failed = None
    if args.starts > 0:
        outcome = solve_fiber(d, lam, seed=args.seed, n_starts=args.starts)
        if isinstance(outcome, FiberSolveReport):
            out["solver_evidence"] = {"found_solution": True,
                                      "residual_norm": outcome.residual_norm,
                                      "start_index": outcome.start_index}
            failed = 0
        else:
            out["solver_evidence"] = {"found_solution": False,
                                      "failed_starts": outcome.n_starts,
                                      "n_starts": outcome.n_starts,
                                      "best_residual": outcome.best_residual,
                                      "note": "evidence, not proof"}
            failed = outcome.n_starts
    if args.format == "table":
        line = f"necessary condition: {out['necessary_condition']}"
        if args.starts > 0:
            if failed == 0:
                line += "; solver evidence: found a solution"
            else:
                line += f"; solver evidence: {failed}/{args.starts} starts failed"
        _emit(line)
    else:
        _emit(_dump(out))
    return 0


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="bowlab",
        description="Bow diagram calculus: moment fibers, stability, reduction.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "table"), default="json",
                       help="output format (default json)")

    p = sub.add_parser("parse", help="validate a diagram file, print canonical form")
    p.add_argument("diagram", help="path to a diagram DSL file")
    p.add_argument("--dsl", action="store_true",
                   help="print canonical DSL text instead of JSON")
    p.set_defaults(func=cmd_parse, _parser=p)

    p = sub.add_parser("solve", help="search the moment fiber over lambda")
    p.add_argument("diagram")
    p.add_argument("--lambda", dest="lam", default=None, metavar="C0,C1,...",
                   help="per-interval deformation values, declaration order")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--starts", type=int, default=20)
    add_format(p)
    p.set_defaults(func=cmd_solve, _parser=p)

    p = sub.add_parser("stability", help="semistability verdict at a point")
    p.add_argument("diagram")
    p.add_argument("point", help="point JSON file (solve output accepted)")
    p.add_argument("--theta", default=None, metavar="T0,T1,...",
                   help="per-interval weights, declaration order")
    p.add_argument("--mode", choices=("exact01", "heuristic"), default="heuristic",
                   help="an input check: the dimensions pick the test; exact01 asserts all "
                   "<= 1, except at all-zero weights without --stable (semistable)")
    p.add_argument("--stable", action="store_true",
                   help="strict-inequality variant (stability, not semistability)")
    add_format(p)
    p.set_defaults(func=cmd_stability, _parser=p)

    p = sub.add_parser("dim", help="expected smooth dimension of the diagram")
    p.add_argument("diagram")
    p.set_defaults(func=cmd_dim, _parser=p)

    p = sub.add_parser("reduce", help="gauge-fix a cobalanced point, print its "
                                      "framed representation")
    p.add_argument("diagram")
    p.add_argument("point")
    add_format(p)
    p.set_defaults(func=cmd_reduce, _parser=p)

    p = sub.add_parser("check-empty", help="necessary emptiness condition, "
                                           "optional solver evidence")
    p.add_argument("diagram")
    p.add_argument("--starts", type=int, default=0,
                   help="run this many solver starts as extra evidence")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lambda", dest="lam", default=None, metavar="C0,C1,...")
    add_format(p)
    p.set_defaults(func=cmd_check_empty, _parser=p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, TypeError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
