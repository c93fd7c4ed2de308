"""Write fixtures/points.json: one solved, open point per frozen diagram.

Run from the repository root:

    python3 benchmark/make_fixtures.py

Each point is the first open solution solve_fiber finds from start
seed FIXTURE_SEED, or from the next seeds in turn when that solution on
a cobalanced diagram has a singular A and so no framed quiver image.
The file is written once and checked in; rerunning this script after a
solver change may give other points, which would change what the
stability and CLI workloads measure.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bowlab import diagrams, reduction, total_space  # noqa: E402

import inputs  # noqa: E402

FIXTURE_SEED = 20240726


def reduces(d, p) -> bool:
    if not diagrams.is_cobalanced(d):
        return True
    try:
        inputs.reduced(d, p)
    except reduction.SingularA:
        return False
    return True


def main() -> int:
    parsed = inputs.parse_all()
    out = {}
    for name, (lam, _theta) in inputs.FROZEN.items():
        d = parsed[name]
        for seed in range(FIXTURE_SEED, FIXTURE_SEED + 10):
            report = total_space.solve_fiber(d, lam, seed=seed, n_starts=20)
            if isinstance(report, total_space.FiberSolveReport) and reduces(d, report.point):
                break
        else:
            print(f"{name}: no reducible open solution", file=sys.stderr)
            return 1
        inputs.verify_point(d, report.point, lam)
        out[name] = {
            "seed": seed,
            "start_index": report.start_index,
            "residual_norm": report.residual_norm,
            "point": total_space.point_to_json_dict(d, report.point),
        }
    inputs.FIXTURE_PATH.parent.mkdir(exist_ok=True)
    with open(inputs.FIXTURE_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
