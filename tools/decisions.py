"""Decision fingerprint: one sha256 per family of the package's decisions.

    PYTHONPATH=src python3 tools/decisions.py [FAMILY ...]

prints one `family count sha256` line per family (all of them when none
is named).  Two trees that print the same lines made the same decisions,
byte for byte, on the same inputs; a change that claims "decisions
unchanged" quotes both trees' lines, one that moves decisions lists the
moves.  The families:

    heuristic  heuristic verdicts, bow (check_semistable) and quiver
               (the reduced point, by _quiver_verdict), at both stable
               settings, on the benchmark's frozen points, unmoved and
               under seeded unitary gauges 1-3: kind, clause, searched,
               capped and the witness's basis bytes
    exact01    the same in exact01 mode, where it applies: both modes
               decide a point whose dimensions are all <= 1 the same
               way, and exact01 raises Exact01Unavailable elsewhere
    sweep      seeded random small bows, solved at lambda = 0 and at a
               random lambda, then both modes at both stable settings
               at random integer weights in [-2, 2]
    reduce     the framed quiver point's JSON (gauge_fix_H, then
               to_quiver_point) on the frozen points and gauges above
    solve      solve_fiber on the solve workload's cases at seeds 0-9:
               per-start decisions, iterations and residual bits, and
               the reported point's bits
    cli        exit code, stdout and stderr of the cli workload's argvs

The inputs are read from benchmark/inputs.py, benchmark/workloads.py
and benchmark/fixtures/points.json; nothing is written under
benchmark/.  BLAS runs on one thread, so that a run repeats its own
bits.  A full run takes well under a minute on 2 cores.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from functools import partial
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True   # import the benchmark's modules without writing there

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

import numpy as np  # noqa: E402

from bowlab import cli, diagrams, graded, quiver, total_space  # noqa: E402

import inputs  # noqa: E402
import workloads  # noqa: E402

GAUGE_SEEDS = (1, 2, 3)
SOLVE_SEEDS = range(10)
SWEEP_SEED = 20241020
SWEEP_BOWS = 120
SWEEP_STARTS = 5
CLI_SEED = 1


def _verdict(v) -> tuple:
    """A verdict's fields, its witness as (key, dim, basis bytes) per part."""
    witness = None
    if v.witness is not None:
        witness = tuple((repr(k), s.dim, np.ascontiguousarray(s.basis).tobytes())
                        for k, s in v.witness.parts.items())
    return v.kind, v.clause, v.searched, v.capped, witness


def _outcome(f, *args, **kwargs):
    """f's result, or the name and message of the ValueError or
    LinAlgError it raised."""
    try:
        return f(*args, **kwargs)
    except (ValueError, np.linalg.LinAlgError) as exc:
        return type(exc).__name__, str(exc)


def _frozen_points():
    """(name, gauge seed or None, diagram, point, theta) over the frozen
    points, unmoved and under each gauge."""
    for name, (d, p, _lam, theta) in sorted(inputs.load_frozen(inputs.parse_all()).items()):
        yield name, None, d, p, theta
        for seed in GAUGE_SEEDS:
            yield name, seed, d, inputs.unitary_gauge(d, p, np.random.default_rng(seed)), theta


def _quiver_verdict(q, theta, mode, stable):
    """rep_semistable's verdict at either stable setting: mode checks the
    input as there, and quiver._destabilizer, which has no mode, decides."""
    weights = quiver.integerize_weights(theta)
    weights = {i: weights.get(i, 0) for i in q.quiver.vertices}
    graded._check_mode(mode, q.v, weights, stable, lambda i: f"vertex {i!r}")
    return _verdict(quiver._destabilizer(q, weights, stable))


def _verdicts(mode: str):
    for name, seed, d, p, theta in _frozen_points():
        q = _outcome(inputs.reduced, d, p)
        for stable in (False, True):
            bow = _outcome(lambda: _verdict(total_space.check_semistable(
                d, p, theta, mode=mode, stable=stable)))
            yield name, seed, stable, "bow", bow
            if isinstance(q, quiver.QuiverRepPoint):
                yield name, seed, stable, "quiver", _outcome(_quiver_verdict, q, theta,
                                                             mode, stable)


def _random_bow(rng) -> str:
    names = ["a", "b"][:int(rng.integers(1, 3))]
    dims = [", ".join(map(str, rng.integers(0, 3, rng.integers(1, 4)))) for _ in names]
    wavy = " ".join(f"wavy {n} [{dim}];" for n, dim in zip(names, dims))
    edges = " ".join(f"edge {t} -> {h};" for t in names for h in names if rng.random() < 0.3)
    return f"bow {{ {wavy} {edges} }}"


def sweep():
    rng = np.random.default_rng(SWEEP_SEED)
    for k in range(SWEEP_BOWS):
        text = _random_bow(rng)
        d = diagrams.parse_bow_diagram(text)
        names = list(d.bow.intervals)
        for lam in ({n: 0.0 for n in names},
                    {n: float(x) for n, x in zip(names, rng.uniform(-1, 1, len(names)))}):
            out = _outcome(total_space.solve_fiber, d, lam, seed=k, n_starts=SWEEP_STARTS)
            if not isinstance(out, total_space.FiberSolveReport):
                yield text, lam, _solve_record(d, out)
                continue
            theta = {n: int(x) for n, x in zip(names, rng.integers(-2, 3, len(names)))}
            for mode in ("heuristic", "exact01"):
                for stable in (False, True):
                    yield text, lam, theta, mode, stable, _outcome(lambda: _verdict(
                        total_space.check_semistable(d, out.point, theta, mode=mode,
                                                     stable=stable)))


def reduce():
    for name, seed, d, p, _theta in _frozen_points():
        q = _outcome(inputs.reduced, d, p)
        if isinstance(q, quiver.QuiverRepPoint):
            q = json.dumps(quiver.quiver_point_to_json_dict(q), sort_keys=True)
        yield name, seed, q


def _solve_record(d, out):
    if isinstance(out, total_space.FiberSolveReport):
        return ("report", out.start_index, out.iterations, out.residual_norm.hex(),
                out.open_conditions_ok, total_space.flatten_point(d, out.point).tobytes())
    if isinstance(out, total_space.InfeasibilityEvidence):
        return ("evidence", out.n_starts, out.best_residual.hex(),
                tuple((s.start_index, s.converged, s.residual_norm.hex(), s.iterations,
                       s.open_conditions_ok, s.reason) for s in out.starts))
    return out


def solve():
    parsed = inputs.parse_all()
    for name, lam, starts, *_ in workloads.Solve.CASES:
        for seed in SOLVE_SEEDS:
            out = _outcome(total_space.solve_fiber, parsed[name], lam, seed=seed,
                           n_starts=starts)
            yield name, repr(lam), seed, _solve_record(parsed[name], out)


def _cli_call(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_family():
    with tempfile.TemporaryDirectory() as tmp:
        workloads.WORK_DIR = Path(tmp)
        w = workloads.Cli(CLI_SEED, smoke=False)
        # the work directory's name is the only path in the output
        where = str(w.dir)
        try:
            for argv in w.argvs:
                code, out, err = _cli_call(argv)
                yield ([a.replace(where, "<dir>") for a in argv], code,
                       out.replace(where, "<dir>"), err.replace(where, "<dir>"))
        finally:
            w.close()


FAMILIES = {"heuristic": partial(_verdicts, "heuristic"), "exact01": partial(_verdicts, "exact01"),
            "sweep": sweep, "reduce": reduce, "solve": solve, "cli": cli_family}


def fingerprint(family: str) -> tuple:
    """(record count, sha256 hex) of one family's records, in order."""
    h = hashlib.sha256()
    count = 0
    for record in FAMILIES[family]():
        h.update(repr(record).encode())
        h.update(b"\n")
        count += 1
    return count, h.hexdigest()


def main(argv=None) -> int:
    names = list(argv if argv is not None else sys.argv[1:]) or list(FAMILIES)
    unknown = [n for n in names if n not in FAMILIES]
    if unknown:
        print(f"unknown family {unknown}; expected some of {list(FAMILIES)}", file=sys.stderr)
        return 2
    for name in names:
        count, digest = fingerprint(name)
        print(f"{name} {count} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
