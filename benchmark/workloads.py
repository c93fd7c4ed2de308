"""The three workloads: what one pass calls, and how its outputs are checked.

A workload object is built once per set-up.  plan(pass_index) lists the
top-level calls of one pass as (key, thunk) pairs; pass 0 is the
warm-up.  check(pass_index, outputs) returns, for every key whose
output fails its check, either "failed" (the operation did not achieve
what it should, e.g. no open point found where one exists) or "wrong"
(the output is incorrect, or the call raised).

op(pass_index, key) names the operation a call performs: calls with
the same op run the same function on the same inputs.  The benchmark
counts operations, not calls, in `attempted` and `failed`, and times an
operation by the median of its calls, scaled to the host's speed (see
run.py).

Library functions are looked up on their modules at call time, so the
tracer's rebinding sees every top-level call.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from pathlib import Path

import numpy as np

from bowlab import cli, quiver, total_space

import checks
import inputs

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"


def _sub_seed(*words: int) -> int:
    return int(np.random.SeedSequence(list(words)).generate_state(1)[0])


class Solve:
    """solve_fiber over a fixed case list, with start seeds drawn per
    case and repeat from the workload seed; every pass runs the same
    calls.

    Repeats are chosen so that the order statistics sit in the middle of
    large groups of like calls, where a draw of solver luck moves them
    least: of the 44 calls of a pass, LOOP_2, the cheapest case, takes
    the 12 fastest places, so that the p50 latency falls in the middle of
    the 20 INTERVAL_111 calls, and CYCLE_444 (n = 288) runs six times,
    so that the p90 latency falls among its calls.
    EMPTY_252 and S222 at lambda = 5 run every start whatever the solver
    does; S222 at lambda = 5 has open solutions that these starts do not
    find, a known defect that shows as failed calls.
    """

    name = "solve"
    # (diagram, lambda, starts, repeats per pass, feasible, in the smoke subset)
    CASES = (
        ("LOOP_2", {"a": 0}, 20, 12, True, True),
        ("INTERVAL_111", {"s": 0}, 20, 20, True, True),
        ("CYCLE_11", {"a": 0.4, "b": -0.4}, 20, 2, True, True),
        ("S222", {"s": 0.5}, 20, 1, True, False),
        ("S222", {"s": 5}, 10, 1, True, False),
        ("MIX_3333_33", {"a": 0.5, "b": -0.5}, 20, 1, True, False),
        ("CYCLE_444", {"a": 0.5, "b": -0.5}, 20, 6, True, False),
        ("EMPTY_252", {"a": 0.6 + 0.3j, "b": -1.1 + 0.7j}, 8, 1, False, True),
    )
    EVIDENCE_CASE = "EMPTY_252"

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        parsed = inputs.parse_all()
        self.cases = [(parsed[name], name, lam, starts, 1 if smoke else reps, feasible)
                      for name, lam, starts, reps, feasible, small in self.CASES
                      if small or not smoke]

    def plan(self, pass_index: int) -> list:
        out = []
        for j, (d, name, lam, starts, reps, _) in enumerate(self.cases):
            for r in range(reps):
                s = _sub_seed(self.seed, j, r)
                out.append(((j, r), lambda d=d, lam=lam, s=s, n=starts:
                            total_space.solve_fiber(d, lam, seed=s, n_starts=n)))
        return out

    def op(self, pass_index: int, key):
        return key

    def check(self, pass_index: int, outputs: dict) -> dict:
        bad = {}
        for (j, r), out in outputs.items():
            d, name, lam, starts, _, feasible = self.cases[j]
            if isinstance(out, total_space.FiberSolveReport):
                if not feasible or not checks.on_fiber(d, out.point, lam):
                    bad[(j, r)] = "wrong"
                elif not checks.open_point(out.point):
                    # on the fiber, but within rounding of a point where
                    # (S1)/(S2) fail: the solver did not deliver an open point
                    bad[(j, r)] = "failed"
            elif isinstance(out, total_space.InfeasibilityEvidence):
                if out.n_starts != starts:
                    bad[(j, r)] = "wrong"
                elif feasible:
                    bad[(j, r)] = "failed"
            else:
                bad[(j, r)] = "wrong"
        return bad

    def counts(self, records: list) -> dict:
        """Starts run, starts that ended open, and the evidence calls' share."""
        starts = opened = ev_starts = 0
        ev_seconds = 0.0
        for (j, _), seconds, out in records:
            name = self.cases[j][1]
            if isinstance(out, total_space.FiberSolveReport):
                n, k = out.start_index + 1, 1
            elif isinstance(out, total_space.InfeasibilityEvidence):
                n = out.n_starts
                k = sum(1 for s in out.starts if s.open_conditions_ok)
            else:
                continue
            starts += n
            opened += k
            if name == self.EVIDENCE_CASE:
                ev_starts += n
                ev_seconds += seconds
        return {"starts": starts, "open": opened,
                "evidence_starts": ev_starts, "evidence_seconds": ev_seconds}

    def close(self):
        pass


class Stability:
    """check_semistable and rep_semistable on frozen points.

    Timed passes run on the frozen points moved by a seeded unitary
    gauge; the warm-up pass runs on the frozen points themselves and
    gives the reference verdicts.  The heuristic bow checks, and exact01
    on CYCLE3_1x5 (2^15 supports), run once per pass.  The other exact01
    and quiver checks take a few milliseconds or less and repeat, so
    that the run times enough calls and its p50 and p90 latencies sit on
    them rather than on the few slow calls.  The slow checks are spread
    evenly between the repeats of the fast ones.
    """

    name = "stability"
    BOW_HEURISTIC = ("CYCLE_444", "CYCLE3_11", "S222", "CYCLE_11", "LOOP_2")
    BOW_EXACT01 = ("CYCLE_11", "CYCLE3_11", "CYCLE3_1x5")
    SLOW_EXACT01 = ("CYCLE3_1x5",)
    SMOKE = ("CYCLE_11", "LOOP_2")
    REPEATS = 12

    def __init__(self, seed: int, smoke: bool):
        frozen = inputs.load_frozen(inputs.parse_all())
        names = set(self.BOW_HEURISTIC) | set(self.BOW_EXACT01)
        if smoke:
            names &= set(self.SMOKE)
        self.repeats = 1 if smoke else self.REPEATS
        self.points = {}   # name -> {False: frozen, True: gauge-moved} (d, p, q, theta)
        for j, name in enumerate(sorted(names)):
            d, p, _lam, theta = frozen[name]
            moved = inputs.unitary_gauge(d, p, np.random.default_rng([seed, j]))
            self.points[name] = {
                False: (d, p, inputs.reduced(d, p), theta),
                True: (d, moved, inputs.reduced(d, moved), theta),
            }
        self.reference: dict = {}

    def op(self, pass_index: int, key):
        return ("moved" if pass_index > 0 else "frozen",) + key[:4]

    def plan(self, pass_index: int) -> list:
        moved = pass_index > 0

        def bow(name, mode, stable, r):
            d, p, _, theta = self.points[name][moved]
            return (("bow", mode, stable, name, r), lambda: total_space.check_semistable(
                d, p, theta, mode=mode, stable=stable))

        def rep(name, mode, r):
            _, _, q, theta = self.points[name][moved]
            return (("quiver", mode, False, name, r),
                    lambda: quiver.rep_semistable(q, theta, mode=mode))

        slow = [bow(name, "heuristic", False, 0)
                for name in self.BOW_HEURISTIC if name in self.points]
        for name in self.SLOW_EXACT01:
            if name in self.points:
                slow += [bow(name, "exact01", False, 0), bow(name, "exact01", True, 0)]
        fast = []
        for r in range(self.repeats):
            block = []
            for name in self.BOW_EXACT01:
                if name in self.points:
                    if name not in self.SLOW_EXACT01:
                        block += [bow(name, "exact01", False, r), bow(name, "exact01", True, r)]
                    block.append(rep(name, "exact01", r))
            block += [rep(name, "heuristic", r)
                      for name in self.BOW_HEURISTIC if name in self.points]
            fast.append(block)
        # the slow checks are spread evenly between the repeats of the
        # fast ones, so that those are timed at moments spread over the pass
        out = []
        for i, block in enumerate(fast):
            out += block
            out += slow[len(slow) * i // len(fast):len(slow) * (i + 1) // len(fast)]
        return out

    def check(self, pass_index: int, outputs: dict) -> dict:
        moved = pass_index > 0
        bad = {}
        kinds: dict = {}  # (diagram, stable) -> set of verdict kinds
        for key, out in outputs.items():
            _, _, stable, name, _ = key
            if not isinstance(out, quiver.StabilityVerdict):
                bad[key] = "wrong"
                continue
            kinds.setdefault((name, stable), set()).add(out.kind)
            if out.kind == "unstable" and not self._witness_ok(key, out, moved):
                bad[key] = "wrong"
            ref = key[:4]
            if pass_index == 0:
                self.reference.setdefault(ref, out.kind)
            if self.reference.get(ref) != out.kind:
                bad[key] = "wrong"   # not repeatable, or not gauge invariant
        for key in outputs:
            name, stable = key[3], key[2]
            semi = kinds.get((name, False), set())
            # exact01 vs heuristic and bow vs quiver must not contradict,
            # and a stable point is semistable
            contradiction = checks.CONTRADICTION <= semi or (
                "unstable" in semi and "semistable" in kinds.get((name, True), set()))
            if contradiction:
                bad[key] = "wrong"
        return bad

    def _witness_ok(self, key, verdict, moved: bool) -> bool:
        side, _, stable, name, _ = key
        d, p, q, theta = self.points[name][moved]
        if side == "bow":
            weight, full = checks.bow_weights(d, theta)
            return checks.witness_ok(verdict, checks.bow_maps(d, p), weight, full, stable)
        return checks.witness_ok(verdict, checks.quiver_maps(q), theta, dict(q.v), stable)

    def counts(self, records: list) -> dict:
        return {}

    def close(self):
        pass


class Cli:
    """In-process bowlab.cli.main calls with stdout captured.

    Inputs are written to a work directory in the checkout: the diagram
    texts and the frozen points moved by a seeded unitary gauge.  Every
    call must exit 0 and print, byte for byte, what it printed in the
    warm-up pass.  The solver calls use fixed start seeds: how many
    iterations a start takes is solver luck, which the solve workload
    measures.  They run once per pass and the other calls REPEATS times,
    so that the solver calls stay under a twentieth of the calls and the
    p50 and p90 latencies sit on parsing, JSON and reduction.
    """

    name = "cli"
    SOLVER_SEED = "0"
    REPEATS = 3
    PARSE = ("CYCLE_444", "MIX_3333_33", "EMPTY_252", "CYCLE3_1x5")
    STABILITY = ("INTERVAL_111", "CYCLE_11", "CYCLE3_11")
    REDUCE = ("CYCLE_444", "MIX_3333_33", "INTERVAL_111")

    def __init__(self, seed: int, smoke: bool):
        self.dir = WORK_DIR / f"cli-{seed}-{id(self)}"
        self.dir.mkdir(parents=True, exist_ok=True)
        frozen = inputs.load_frozen(inputs.parse_all())
        diag = {}
        for name, text in inputs.TEXTS.items():
            diag[name] = self.dir / f"{name}.bow"
            diag[name].write_text(text, encoding="utf-8")
        point = {}
        for j, name in enumerate(sorted(set(self.STABILITY) | set(self.REDUCE))):
            d, p, _lam, _theta = frozen[name]
            moved = inputs.unitary_gauge(d, p, np.random.default_rng([seed, j]))
            point[name] = self.dir / f"{name}.json"
            with open(point[name], "w", encoding="utf-8") as fh:
                json.dump(total_space.point_to_json_dict(d, moved), fh)
        cseed = self.SOLVER_SEED
        solver = [["check-empty", str(diag["INTERVAL_111"]), "--starts", "3", "--seed", cseed],
                  ["solve", str(diag["INTERVAL_111"]), "--seed", cseed],
                  ["solve", str(diag["LOOP_2"]), "--seed", cseed]]
        other = []
        for name in self.PARSE:
            other += [["parse", str(diag[name])], ["parse", "--dsl", str(diag[name])],
                      ["dim", str(diag[name])]]
        other += [["check-empty", str(diag["EMPTY_252"])],
                  ["check-empty", str(diag["INTERVAL_111"])]]
        for name in self.STABILITY:
            theta = ",".join(str(v) for v in frozen[name][3].values())
            other.append(["stability", str(diag[name]), str(point[name]),
                          "--mode", "exact01", "--theta", theta])
        for name in self.REDUCE:
            other.append(["reduce", str(diag[name]), str(point[name])])
        self.argvs = solver + other
        self.plan_order = list(range(len(solver))) + [
            len(solver) + k for _ in range(1 if smoke else self.REPEATS)
            for k in range(len(other))]
        self.reference: dict = {}

    @staticmethod
    def _call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue()

    def op(self, pass_index: int, key):
        return key[0]   # the index of the argv

    def plan(self, pass_index: int) -> list:
        return [((k, r), lambda argv=self.argvs[k]: self._call(argv))
                for r, k in enumerate(self.plan_order)]

    def check(self, pass_index: int, outputs: dict) -> dict:
        bad = {}
        for key, out in outputs.items():
            k = key[0]
            if not isinstance(out, tuple) or out[0] != 0:
                bad[key] = "wrong"
                continue
            if pass_index == 0:
                self.reference.setdefault(k, out[1])
            if self.reference.get(k) != out[1]:
                bad[key] = "wrong"
        return bad

    def counts(self, records: list) -> dict:
        return {}

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()


WORKLOADS = {w.name: w for w in (Solve, Stability, Cli)}
