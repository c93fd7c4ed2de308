"""bowlab's benchmark: one workload, one process, metrics as JSON.

Usage, from the repository root:

    python3 benchmark/run.py --workload solve --seed 1 --seconds 20 --trace 0

and, to check the benchmark itself, python3 -m pytest benchmark/test_smoke.py.

Workloads (see workloads.py): solve (solve_fiber), stability
(check_semistable / rep_semistable on frozen points) and cli (in-process
bowlab.cli.main).  The workload seed makes the inputs: solver start
seeds, and the unitary gauge applied to the frozen points.

A run sets the workload up many times, spread over its length (setup_s
is the median), runs one untimed warm-up pass, then timed passes until
--seconds have passed and at least MIN_CALLS top-level calls were
timed.  Every timed pass makes the same calls, so each operation (a
function on given inputs) is timed once per pass, and more often if a
pass repeats it; its time is the median of those.

Times are scaled to the host's speed.  On a shared host, neighbours
slow every computation for seconds to minutes at a time (by 1.5 to 1.6
times on a shared 2-core host).  So the run times a fixed reference
computation (interpreted Python and small dense solves, the kind of
work bowlab does) between every two calls, and scales each call by the
reference's fastest time in the run over its mean time just before and
just after the call.  The metrics are then seconds at the speed the
host had at its least loaded moment in the run; a change to bowlab
moves them as it moves the unscaled times, which the line before the
last records as well (wall_s_unscaled, and host_slowdown: the median
reference time over the fastest).

With --trace 0 the last line of stdout carries the end-to-end metrics:
setup_s, wall_s (time of one pass over the case list, each call at its
operation's time), call_ms.p50 and call_ms.p90 (over every timed
top-level call, each at its operation's time: solve_fiber,
check_semistable / rep_semistable, or cli.main) and peak_rss_mb.  With
--trace 1 untraced and traced passes alternate on the same inputs; the
last line carries the per-layer metrics of the traced passes (per pass,
unscaled) and the tracing overhead, and the spans are written to
.bench_out/.

The line before the last records the run's provenance: commit, seed,
Python, numpy and BLAS versions, core count and BLAS thread count.

`attempted` counts operations, however often the run repeats them, so
it is fixed by the workload and `failed` by the workload and the seed,
not by how many passes fit in --seconds.  An operation has failed if
any of its calls failed.  `correct` is false when any output is wrong:
a point that fails independent re-verification, a verdict that changes
under a unitary gauge or contradicts another checker, a CLI output that
differs from the warm-up pass, or a call that raised.  `failed` also
counts operations that did not achieve their purpose without being
wrong, such as a feasible fiber for which no open point was found.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread through this process's own environment, before
# numpy loads: with the default thread count, the first large solves
# run far slower than later ones and the timings do not settle.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

T_START = perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_CALLS = 100     # timed top-level calls per run, so p90 has 10 beyond it
# setup_s is the median of many set-ups, each scaled to the host's speed
# like the calls, taken in samples spread over the run (one before the
# warm-up, then one between passes every SETUP_EVERY_S).  A sample
# repeats the set-up until SETUP_SAMPLE_S have passed and SETUP_MIN_REPS
# were taken.
SETUP_SAMPLE_S = 0.05
SETUP_EVERY_S = 2.0
SETUP_MIN_REPS = 5
HARD_STOP_S = 140   # start no new pass after this many seconds in the process

# layers reported as .self_ms and .calls per traced pass
LAYERS = (
    "total_space.moment_jacobian",
    "total_space.unflatten_point",
    "total_space.moment_differential",
    "total_space.moment_residual",
    "total_space.open_conditions_hold",
    "total_space.flatten_point",
    "solve.gauss_newton",
    "graded.candidate_lattice",
    "graded.largest_invariant_graded",
    "graded.smallest_invariant_graded",
    "diagrams.parse_bow_diagram",
    "total_space.point_to_json_dict",
    "total_space.point_from_json_dict",
    "linalg.matrix_to_json",
    "linalg.matrix_from_json",
    "reduction.gauge_fix_H",
    "reduction.to_quiver_point",
    "cli.main",
)
SUBSPACE_OPS = ("linalg.subspace_sum", "linalg.subspace_intersection",
                "linalg.subspace_image", "linalg.subspace_preimage",
                "linalg.kernel_basis", "linalg.image_basis")
# inclusive time per pass of one checker mode
BY_MODE = {
    "total_space.check_semistable.heuristic_ms": ("total_space.check_semistable", "heuristic"),
    "total_space.check_semistable.exact01_ms": ("total_space.check_semistable", "exact01"),
    "quiver.rep_semistable.heuristic_ms": ("quiver.rep_semistable", "heuristic"),
    "quiver.rep_semistable.exact01_ms": ("quiver.rep_semistable", "exact01"),
}


def _import_library():
    """Import bowlab from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(SRC))
    try:
        import bowlab
        import bowlab.cli  # noqa: F401  (traced like the other modules)
    except ImportError as exc:
        sys.exit(f"error: cannot import bowlab from {SRC}: {exc}")
    if SRC.resolve() not in Path(bowlab.__file__).resolve().parents:
        sys.exit(f"error: bowlab was imported from {bowlab.__file__}, not {SRC}")


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


SEVERITY = {None: 0, "failed": 1, "wrong": 2}


class Pass:
    """One pass, without its outputs: they are checked and dropped, so
    that peak memory does not grow with the length of the run."""

    def __init__(self, ops: list, times: list, refs: list, bad: dict, counts: dict):
        self.ops = ops         # the operation of each top-level call, in order
        self.times = times     # seconds per top-level call
        self.refs = refs       # reference seconds around each call
        self.bad = bad         # operation -> "failed" | "wrong"
        self.counts = counts   # workload-specific counts over the pass


class Gauge:
    """The host's speed, from a fixed reference computation timed often."""

    def __init__(self):
        self.matrix = np.random.default_rng(0).standard_normal((60, 60))
        self.times: list = []   # seconds per probe

    def _reference(self) -> None:
        total = 0
        for i in range(3000):
            total += i * i
        for _ in range(3):
            np.linalg.solve(self.matrix, self.matrix[0])

    def probe(self) -> float:
        """Seconds the reference computation takes, run once untimed
        first: a call just before can leave the caches cold, and that
        would read as a slow host."""
        self._reference()
        t0 = perf_counter()
        self._reference()
        seconds = perf_counter() - t0
        self.times.append(seconds)
        return seconds

    def scaled(self, samples: list) -> list:
        """(seconds, reference seconds meanwhile) pairs -> seconds at the
        host's fastest speed in the run."""
        fastest = min(self.times)
        return [s * fastest / ref for s, ref in samples]


def run_pass(wl, index: int, gauge: Gauge, tracer=None) -> Pass:
    plan = wl.plan(index)
    records = []
    refs = []
    if tracer is not None:
        tracer.install()
    try:
        before = gauge.probe()
        for key, thunk in plan:
            c0 = perf_counter()
            try:
                out = thunk()
            except Exception as exc:  # a raising call is checked as wrong
                traceback.print_exc(file=sys.stderr)
                out = exc
            records.append((key, perf_counter() - c0, out))
            after = gauge.probe()
            refs.append((before + after) / 2)
            before = after
    finally:
        if tracer is not None:
            tracer.uninstall()
    bad: dict = {}
    for key, kind in wl.check(index, {k: out for k, _, out in records}).items():
        op = wl.op(index, key)
        if SEVERITY[kind] > SEVERITY[bad.get(op)]:
            bad[op] = kind
    return Pass([wl.op(index, k) for k, _, _ in records], [s for _, s, _ in records],
                refs, bad, wl.counts(records))


def _value(x: float, unit: str) -> dict:
    return {"value": float(x), "unit": unit}


def _per_layer(tracer, n_passes: int) -> dict:
    stats = tracer.by_label()
    out = {}

    def per_pass(x):
        return x / n_passes

    for qual in LAYERS:
        if qual in tracer.wrapped:
            calls, _, own = stats.get(qual, (0, 0.0, 0.0))
            out[f"{qual}.self_ms"] = _value(per_pass(own) * 1e3, "ms")
            out[f"{qual}.calls"] = _value(per_pass(calls), "count")
    ops = [q for q in SUBSPACE_OPS if q in tracer.wrapped]
    if ops:
        own = sum(stats.get(q, (0, 0.0, 0.0))[2] for q in ops)
        calls = sum(stats.get(q, (0, 0.0, 0.0))[0] for q in ops)
        out["linalg.subspace_ops.self_ms"] = _value(per_pass(own) * 1e3, "ms")
        out["linalg.subspace_ops.calls"] = _value(per_pass(calls), "count")
    if tracer.counts_svd:
        out["linalg.svd.calls"] = _value(per_pass(tracer.counters["linalg.svd.calls"]), "count")
    if "graded.candidate_lattice" in tracer.wrapped:
        for name in ("graded.candidate_lattice.size", "graded.candidate_lattice.cap_hits"):
            out[name] = _value(per_pass(tracer.counters[name]), "count")
    if "solve.gauss_newton" in tracer.wrapped:
        out["solve.iterations"] = _value(per_pass(tracer.counters["solve.iterations"]), "count")
    for metric, (qual, mode) in BY_MODE.items():
        if qual in tracer.wrapped:
            total = stats.get(f"{qual}:{mode}", (0, 0.0, 0.0))[1]
            out[metric] = _value(per_pass(total) * 1e3, "ms")
    return out


def setup_sample(cls, args, gauge: Gauge, samples: list) -> None:
    """Set the workload up and tear it down again, for SETUP_SAMPLE_S;
    appends (seconds, reference seconds) per set-up."""
    end = perf_counter() + SETUP_SAMPLE_S
    before = gauge.probe()
    while True:
        t0 = perf_counter()
        wl = cls(args.seed, args.smoke)
        seconds = perf_counter() - t0
        wl.close()
        after = gauge.probe()
        samples.append((seconds, (before + after) / 2))
        before = after
        if perf_counter() >= end and len(samples) >= SETUP_MIN_REPS:
            return


def outcomes(passes: list) -> dict:
    """operation -> the worst outcome of its calls: None, "failed" or "wrong"."""
    worst: dict = {}
    for p in passes:
        for op in p.ops:
            worst.setdefault(op, None)
        for op, kind in p.bad.items():
            if SEVERITY[kind] > SEVERITY[worst[op]]:
                worst[op] = kind
    return worst


def call_seconds(passes: list, gauge: Gauge) -> list:
    """Every call of the passes, each at the median scaled time of its
    operation."""
    samples: dict = {}
    for p in passes:
        scaled = gauge.scaled(list(zip(p.times, p.refs)))
        for op, s in zip(p.ops, scaled):
            samples.setdefault(op, []).append(s)
    median = {op: statistics.median(v) for op, v in samples.items()}
    return [median[op] for p in passes for op in p.ops]


def pass_seconds(passes: list, gauge: Gauge) -> float:
    """One pass, with each call at the median scaled time of its operation."""
    return sum(call_seconds(passes, gauge)) / len(passes)


def _counts(passes: list) -> dict:
    total: dict = {}
    for p in passes:
        for k, v in p.counts.items():
            total[k] = total.get(k, 0) + v
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("solve", "stability", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest cases only, one timed pass: checks the benchmark itself")
    args = parser.parse_args(argv)

    _import_library()
    from tracer import Tracer
    from workloads import WORKLOADS

    info = provenance(args)
    cls = WORKLOADS[args.workload]
    gauge = Gauge()
    setup_times: list = []
    setup_sample(cls, args, gauge, setup_times)
    wl = cls(args.seed, args.smoke)
    try:
        warm = run_pass(wl, 0, gauge)
        min_calls = 1 if args.smoke else MIN_CALLS
        untraced, traced = [], []
        tracer = Tracer() if args.trace else None
        t0 = last_setup = perf_counter()
        index = 1
        while True:
            untraced.append(run_pass(wl, index, gauge))
            if tracer is not None:
                traced.append(run_pass(wl, index, gauge, tracer))
            elif perf_counter() - last_setup >= SETUP_EVERY_S:
                setup_sample(cls, args, gauge, setup_times)
                last_setup = perf_counter()
            index += 1
            elapsed = perf_counter() - t0
            calls = sum(len(p.times) for p in untraced)
            if args.smoke or perf_counter() - T_START > HARD_STOP_S:
                break
            if elapsed >= args.seconds and (tracer is not None or calls >= min_calls):
                break
    finally:
        wl.close()

    worst = outcomes([warm] + untraced + traced)
    attempted = len(worst)
    failed = sum(1 for kind in worst.values() if kind is not None)
    wrong = sum(1 for kind in worst.values() if kind == "wrong")
    for op, kind in worst.items():
        if kind is not None:
            print(f"{kind}: {args.workload} {op}", file=sys.stderr)

    timed_calls = sum(len(p.times) for p in untraced)
    call_ms = [s * 1e3 for s in call_seconds(untraced, gauge)]
    counts = _counts(untraced)
    ev_seconds = counts.get("evidence_seconds", 0.0)
    evidence_rate = counts.get("evidence_starts", 0) / ev_seconds if ev_seconds else 0.0
    info.update(passes=len(untraced), traced_passes=len(traced),
                timed_calls=timed_calls, attempted=attempted, failed=failed,
                wrong=wrong, failed_frac=failed / attempted,
                evidence_starts_per_s=evidence_rate,
                wall_s_unscaled=statistics.median(sum(p.times) for p in untraced),
                host_slowdown=statistics.median(gauge.times) / min(gauge.times))

    if tracer is None:
        deciles = statistics.quantiles(call_ms, n=10) if len(call_ms) > 1 else call_ms * 9
        metrics = {
            "setup_s": _value(statistics.median(gauge.scaled(setup_times)), "s"),
            "wall_s": _value(pass_seconds(untraced, gauge), "s"),
            "call_ms.p50": _value(statistics.median(call_ms), "ms"),
            "call_ms.p90": _value(deciles[8], "ms"),
            "peak_rss_mb": _value(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                  "MB"),
        }
    else:
        metrics = _per_layer(tracer, len(traced))
        tcounts = _counts(traced)
        starts = tcounts.get("starts", 0)
        wall_u = pass_seconds(untraced, gauge)
        wall_t = pass_seconds(traced, gauge)
        metrics.update({
            "solve.starts": _value(starts / len(traced), "count"),
            "solve.open_frac": _value(tcounts.get("open", 0) / starts if starts else 0.0,
                                      "ratio"),
            "evidence_starts_per_s": _value(evidence_rate, "1/s"),
            "failed_frac": _value(failed / attempted, "ratio"),
            "call_ms.samples": _value(timed_calls, "count"),
            "wall_s.untraced": _value(wall_u, "s"),
            "wall_s.traced": _value(wall_t, "s"),
            "trace_overhead_s": _value(wall_t - wall_u, "s"),
        })
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")

    print(json.dumps({"provenance": info}))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
