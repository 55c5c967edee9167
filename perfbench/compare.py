"""Compare two sets of benchmark results for one workload.

  python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the last output line of several runs (one JSON result per
line), e.g. from
``python3 perfbench/run.py --workload chain --seed N | tail -n 1 >> BASE.jsonl``.
For every metric the script prints both medians and BASE's quartile spread
(interquartile distance over the median).  An end-to-end metric with a
bound in BENCHMARK.json is marked `regressed` when NEW's median is worse
than BASE's by more than the bound, `unresolved` when BASE's own spread
exceeds the bound, and `ok` otherwise.  Per-layer metrics have no bound and
are only listed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            for name, metric in json.loads(line)["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
    return values


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    bench = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    for name in sorted(set(base) & set(new)):
        b, n = statistics.median(base[name]), statistics.median(new[name])
        change = (n - b) / b if b else 0.0
        line = f"{name:48s} base {b:.6g}  new {n:.6g}  change {change:+.2%}  base spread {spread(base[name]):.2%}"
        if name in bounds:
            bound = bounds[name]["bound"]
            worse = -change if bounds[name]["better"] == "higher" else change
            if spread(base[name]) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
            else:
                verdict = "ok"
            line += f"  bound {bound:.0%}: {verdict}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
