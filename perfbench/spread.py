"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload batch_join --seeds 1-10 [--trace 1]

Each seed is one run of ``perfbench/run.py`` with ``run_seconds`` from
``BENCHMARK.json``.  For every metric the report gives the median, the
inter-quartile distance as a share of the median (``stats.spread``) and,
for end-to-end metrics, whether that spread is below a third of the
metric's bound.  Exit status 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402  (needs the path above)


def parse_seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"1,4,7"``."""
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    ok = True
    for seed in parse_seeds(args.seeds):
        command = [*spec["command"], "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, check=False)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {"correct": False}
        print(f"seed {seed}: exit {done.returncode}, "
              f"correct {result['correct']}", flush=True)
        if done.returncode != 0 or not result["correct"]:
            ok = False
            print(done.stderr[-2000:], file=sys.stderr)
            continue
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        if len(series) < 2:
            continue
        share = stats.spread(series)
        verdict = ""
        if name in bounds:
            steady = share < bounds[name] / 3
            verdict = (f"bound {bounds[name]:g}: "
                       f"{'steady' if steady else 'NOT below bound/3'}")
        print(f"  {name:<34} median {statistics.median(series):>16.6f}  "
              f"spread {share:7.4f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
