"""Benchmark for curvegroups: four closed-loop workloads, checked outputs.

Run from the root of a checkout (the library is imported from ./src):

  python3 perfbench/run.py --workload chain --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --workload all --seed 1      # every workload

Every workload is a closed loop with one client: one process, one thread,
the next op starts when the previous one has returned.  The seed is the
only source of randomness; the library sees only the generated inputs.
Inputs come in rounds of fixed shape (same op kinds, same size ladder); the
seed draws contents and jitter inside that shape.

Workloads (an op is one CLI command, or one library call on abelianize):
  chain       5 pipelines per round (smooth, pencil, generic-lines, custom
              Z/d, custom Fin(q) with q a 10-digit prime): `seed`, then 60
              `apply` steps with counts 1-4 and an `audit` every tenth
              step, each step reading the previous document from a file;
              schedule kinds rotate, pipelines interleave.  The main
              user path: documents, singularities, cli and extensions grow
              with the step index; Fin(q) steps are trial division.
  wide        `apply` with transformation totals 1e3-1e5, `meridians
              --trace` and `apply --meridians` with schedules of 1e2-1e3
              steps, on small seeds; sizes on fixed ladders, schedule kinds
              rotating.  Long expanded runs and the quadratic
              meridian replay, with free reduction under it.
  family      `zariski --enumerate B`, B in {8,9,10,10,10,11,11}, over
              seeded pairs (cyclic left curve, certified non-cyclic right
              curve) whose degree and singularity count follow B.  The only
              workload that runs zariski; output-only documents.
  abelianize  `abelianization` of random presentations (3-7 generators),
              `smith_normal_form` of dense random matrices 2x2 to 5x5 with
              entries in +-9, `cyclic_quotient_order` of 2 to 80 fibers.
              The only workload where Smith normal form does real work.

Every op is checked after it returns, outside the timed region, against an
independent answer (perfbench/oracles.py).  An op fails when it raises,
exits nonzero, answers wrongly or misses the workload's per-op deadline
(an interval timer); each failure is printed with its seed, round and
index.  `correct` is false when any op raised or answered wrongly.  The
exit status is 0 whenever a result line was printed.

End-to-end metrics (--trace 0; tracing off):
  setup_s      s     lower   median of 9 set-ups in the run: import
                             curvegroups and build round 0's inputs
  ops_per_s    1/s   higher  successful ops / seconds spent inside ops,
                             the median over the run's complete cycles
                             (a cycle is one round; nine on abelianize,
                             whose fiber counts cycle through a ladder)
  op_p50_ms    ms    lower   median op latency
  op_tail_ms   ms    lower   op latency at the workload's tail percentile,
                             the highest of p80, p90, p95, p97, p99, p99.9
                             that leaves about ten samples beyond it in a
                             25 s run: chain p99 (~3800 ops), wide p97 (~380),
                             family p80 (~45, so 9), abelianize p99.9
                             (~48000); the report line gives the count
  peak_rss_mb  MB    lower   peak resident memory of the process
fail_ratio (failed / attempted) is the result's `failed` / `attempted`.

Per-layer metrics (--trace 1): spans around the public functions of
fpgroup, extensions, singularities, curves, constructions, meridians,
zariski, documents and cli (see perfbench/tracer.py).  The traced run
replays the workload's first cycle (round 0; rounds 0-8 on abelianize) in
whole passes for at least --seconds, alternately traced and untraced.
`calls`, sizes and `self_s` (span time minus child spans, seconds) are
per traced pass and repeat exactly for a seed; maxima, ratios and
`scaling` cover the run.  `scaling` is a log-log
slope of time against size (SNF: dimension, apply: total counts, replay:
steps); for enumerate_family it is the time factor per +1 of B.
trace.overhead_ratio is the traced passes' op time over the untraced
passes' op time.  Spans are written to .perfbench_work/spans-<workload>-seed<n>.jsonl.

Comparing two result files: collect the last line of each run into one
file per commit, then `python3 perfbench/compare.py BASE.jsonl NEW.jsonl`.
It prints each metric's median and quartile spread per side and marks an
end-to-end metric regressed when NEW's median is worse than BASE's by more
than the bound in BENCHMARK.json, unresolved when BASE's own spread is
wider than that bound.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 9
LAYERS = ("fpgroup", "extensions", "singularities", "curves", "constructions", "meridians", "zariski", "documents", "cli")
MAX_PRINTED_FAILURES = 50

sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Deadline(BaseException):
    """Raised by the interval timer inside an op that overran its deadline."""


def _on_alarm(signum, frame):
    raise Deadline()


def load_library() -> SimpleNamespace:
    for name in [m for m in sys.modules if m == "curvegroups" or m.startswith("curvegroups.")]:
        del sys.modules[name]
    importlib.import_module("curvegroups")
    return SimpleNamespace(**{layer: importlib.import_module(f"curvegroups.{layer}") for layer in LAYERS})


def setup(workload_cls, seed: int, workdir: Path):
    """Import the library and build round 0, SETUP_REPEATS times from a
    clean module table; keep the last and report the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        lib = load_library()
        workload = workload_cls(lib, workdir, seed)
        first = workload.build_round(0)
        times.append(perf_counter() - start)
    return statistics.median(times), workload, first


class Loop:
    """Runs ops one at a time, timing each and checking its output."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.incorrect = 0
        self.cycle_rates: list[float] = []  # successful ops per busy second, per complete cycle

    def run(self, round_no: int, index: int, op, tracer=None) -> float:
        self.attempted += 1
        error = None
        if tracer is not None:
            tracer.op_id += 1
            tracer.active = True
        signal.setitimer(signal.ITIMER_REAL, self.workload.deadline_s)
        start = perf_counter()
        try:
            try:
                result = op.run()
            finally:
                elapsed = perf_counter() - start
                signal.setitimer(signal.ITIMER_REAL, 0)
                if tracer is not None:
                    tracer.active = False
        except Deadline:
            error = f"missed the {self.workload.deadline_s} s deadline"
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"raised {exc!r}"
            self.incorrect += 1
        if error is None:
            try:
                error = op.check(result)
            except Exception as exc:  # a malformed output is a wrong answer
                error = f"output check raised {exc!r}"
            self.incorrect += error is not None
        if error is not None:
            self.failures.append(f"seed={self.workload.seed} round={round_no} index={index} [{op.label}]: {error}")
            if tracer is not None:
                tracer._stack.clear()
        self.latencies.append(elapsed)
        return elapsed


def measure(workload, first_round, seconds: float) -> Loop:
    loop = Loop(workload)
    end = perf_counter() + seconds
    round_no, ops = 0, first_round
    busy, done, failed = 0.0, 0, 0
    while True:
        for index, op in enumerate(ops):
            if perf_counter() >= end:
                return loop
            busy += loop.run(round_no, index, op)
        done += len(ops)
        round_no += 1
        if round_no % workload.cycle_rounds == 0:
            loop.cycle_rates.append((done - (len(loop.failures) - failed)) / busy)
            busy, done, failed = 0.0, 0, len(loop.failures)
        ops = workload.build_round(round_no)


def percentile(values, p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(loop: Loop, setup_s: float, peak_rss_mb: float) -> tuple[dict, str]:
    tail, beyond = percentile(loop.latencies, loop.workload.tail_percentile)
    # the median over complete cycles resists a slowdown of the machine
    # that lasts a minority of the run; with no complete cycle, the run's rate
    rates = loop.cycle_rates or [(loop.attempted - len(loop.failures)) / sum(loop.latencies)]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_p50_ms": (statistics.median(loop.latencies) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    note = (
        f"ops_per_s is the median of {len(loop.cycle_rates)} complete cycles; "
        f"op_tail_ms is p{loop.workload.tail_percentile:g} of {len(loop.latencies)} samples "
        f"({beyond} beyond it)"
    )
    return metrics, note


def traced(workload, seconds: float) -> tuple[Loop, dict]:
    """Alternate traced and untraced passes over the first cycle for at
    least ``seconds``; alternating keeps a slow spell of the machine from
    landing on one side of the overhead ratio."""
    trace_set = [(r, workload.build_round(r)) for r in range(workload.cycle_rounds)]
    tracer = tracing.Tracer({layer: getattr(workload.lib, layer) for layer in LAYERS})
    loop = Loop(workload)
    traced_s = untraced_s = 0.0
    passes = 0
    end = perf_counter() + seconds
    while passes == 0 or perf_counter() < end:
        tracer.install()
        workload.observe_curve = tracer.observe_curve
        try:
            traced_s += run_pass(loop, trace_set, tracer)
        finally:
            tracer.uninstall()
            workload.observe_curve = None
        untraced_s += run_pass(loop, trace_set)
        passes += 1
    tracer.write_spans(WORK / f"spans-{workload.name}-seed{workload.seed}.jsonl")
    units = dict(tracing.PER_LAYER)
    values = tracing.layer_metrics(tracer, passes, traced_s / untraced_s)
    return loop, {name: (value, units[name]) for name, value in values.items()}


def run_pass(loop: Loop, trace_set, tracer=None) -> float:
    busy = 0.0
    for round_no, ops in trace_set:
        for index, op in enumerate(ops):
            busy += loop.run(round_no, index, op, tracer)
    return busy


def run_workload(args) -> int:
    workdir = WORK / f"ops-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        setup_s, workload, first = setup(WORKLOADS[args.workload], args.seed, workdir)
        if args.trace:
            loop, metrics = traced(workload, args.seconds)
            note = f"per-layer metrics over the first cycle; spans in {WORK.name}/"
        else:
            loop = measure(workload, first, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            for label, error in workload.late_errors():
                loop.failures.append(f"seed={args.seed} sympy check [{label}]: {error}")
                loop.incorrect += 1
            metrics, note = end_to_end(loop, setup_s, peak_rss_mb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {args.workload} seed {args.seed}: {loop.attempted} ops, {len(loop.failures)} failed; {note}")
    for line in loop.failures[:MAX_PRINTED_FAILURES]:
        print(f"  FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    print(f"  {'fail_ratio':48s} {len(loop.failures) / loop.attempted:.6g} ratio (failed / attempted in the result)")
    result = {
        "correct": loop.incorrect == 0,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    results, status = {}, 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time per run (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if not (SRC / "curvegroups" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
