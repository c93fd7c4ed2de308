"""Parent-against-change benchmark runs, in alternating pairs.

    python3 tools/ab.py PARENT CHANGE --workload W --seeds 41-50 --seconds 20 [--trace 0|1]

PARENT and CHANGE are two checkouts of the repository.  For every seed
the tool runs `python3 benchmark/run.py --workload W --seed S --seconds T
--trace X` once in each tree, with that tree's own benchmark/ and src/:
the parent first on odd seeds, the change first on even ones.  It then
prints one JSON object: the settings, and per metric of the runs' last
lines (the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1) which way is better, as the change's BENCHMARK.json says,
each side's per-pair values, median and quartiles, and in how many
pairs the change was better, ties counting for neither.  Each
end-to-end metric also gets the two acceptance rules: `gain_rule`, the
change is better in at least 9 of 10 pairs and its median beats the
parent's by more than the parent's interquartile range, and
`within_bound`, the change's median is no worse than the parent's by
more than the metric's `bound` fraction.  Each run's `correct`,
`attempted` and `failed` are listed too.  A run's progress goes to
stderr.

The tool writes nothing itself; run.py writes a traced run's spans to
.bench_out/ at the root of the tree it runs in.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def summarize(pairs: list, better: dict, bounds: dict | None = None) -> dict:
    """Per metric named in better (its value "lower" or "higher") and
    present on both sides of every pair, the change's wins and each
    side's values, median and quartiles (statistics.quantiles, inclusive
    method).  pairs holds (parent, change) dicts of metric values.  A
    metric with a bound (a fraction) in bounds also gets gain_rule and
    within_bound, as the module docstring states them."""
    out = {}
    for name, way in better.items():
        if not pairs or any(name not in side for pair in pairs for side in pair):
            continue
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        wins = sum(c < p if way == "lower" else c > p for p, c in zip(parent, change))
        out[name] = entry = {"better": way, "pairs": len(pairs), "change_wins": wins,
                             "parent": _spread(parent), "change": _spread(change)}
        if name in (bounds or {}):
            p, c = entry["parent"], entry["change"]
            sign = 1 if way == "lower" else -1   # a gap > 0 is a gain
            entry["gain_rule"] = (10 * wins >= 9 * len(pairs)
                                  and sign * (p["median"] - c["median"]) > p["q3"] - p["q1"])
            entry["within_bound"] = sign * (c["median"] - p["median"]) <= bounds[name] * abs(
                p["median"])
    return out


def _spread(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"values": values, "q1": q1, "median": median, "q3": q3}


def _seeds(text: str) -> list:
    """"41-50" or "41,43,47" as a list of ints."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, choices=("solve", "stability", "cli"))
    parser.add_argument("--seeds", required=True, type=_seeds, help='e.g. "41-50"')
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    pairs, runs = [], []
    for seed in args.seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        result = {}
        for side in order:
            print(f"seed {seed}: {side}", file=sys.stderr, flush=True)
            tree = args.parent if side == "parent" else args.change
            result[side] = _run(tree, args.workload, seed, args.seconds, args.trace)
        runs.append({"seed": seed, "first": order[0],
                     **{side: {k: result[side][k] for k in ("correct", "attempted", "failed")}
                        for side in order}})
        pairs.append(tuple({k: m["value"] for k, m in result[side]["metrics"].items()}
                           for side in ("parent", "change")))
    print(json.dumps({"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                      "seeds": args.seeds, "parent": str(args.parent),
                      "change": str(args.change), "runs": runs,
                      "metrics": summarize(pairs, better, bounds)}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
