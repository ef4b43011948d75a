"""Run one benchmark workload and print its metrics.

    python3 fubarbench/run.py --workload converge-sweep --seed 1 --seconds 50 --trace 0

With ``--trace 0`` the workload runs untraced and the last line of standard
output is a JSON object carrying every end-to-end metric.  With ``--trace 1``
it runs once untraced and once with every layer span installed; the JSON
then carries every per-layer metric, and the spans are written under
``.fubarbench-out/``.  Every timing is printed with its sample count above
the JSON line.  See ``README.md`` for the workloads and metrics.
"""

import os

# Pin BLAS/OpenMP pools to one thread before numpy is imported, so the
# process never runs more threads than the event loop plus the daemon's
# single executor thread.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

import numpy  # noqa: E402

from spans import SpanRecorder  # noqa: E402
from workloads import (  # noqa: E402
    CORE_TRANSITIONS,
    DECLARED_SPANS,
    SPANS,
    WORKLOADS,
    changed_keys,
)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".fubarbench-out"

#: A percentile is refused unless at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


class TooFewSamples(RuntimeError):
    """A percentile was asked of too few samples to be stable."""


def percentile(values: List[float], q: float, what: str) -> float:
    """Nearest-rank percentile, refused with fewer than 10 samples beyond it."""
    beyond = math.floor(len(values) * (1.0 - q))
    if beyond < MIN_SAMPLES_BEYOND:
        raise TooFewSamples(
            f"{what}: p{round(q * 100)} of {len(values)} samples leaves {beyond} "
            f"beyond it; at least {MIN_SAMPLES_BEYOND} are required"
        )
    if q == 0.5:
        return statistics.median(values)
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Report:
    """Collects metrics and prints each with its unit and sample count."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Dict[str, object]] = {}

    def add(self, name: str, value: float, unit: str, samples: Optional[int] = None) -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        count = f"  (n={samples})" if samples is not None else ""
        print(f"  {name:<42} {value:>14.6g} {unit}{count}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(report: Report, result) -> None:
    report.add("setup_s", statistics.median(result.setup_s), "s", len(result.setup_s))
    report.add("run_s", statistics.median(result.unit_s), "s", len(result.unit_s))
    report.add(
        "op_p50_ms", percentile(result.op_s, 0.5, "op latency") * 1e3, "ms", len(result.op_s)
    )
    report.add("utility", result.utility, "utility")
    report.add("peak_rss_mb", _peak_rss_mb(), "MB")


def per_layer(
    report: Report, workload: str, plain, traced, recorder, failures: List[str]
) -> None:
    """Report per-layer metrics of the traced pass; append self-check failures."""
    per_window = [recorder.layer_stats(window) for window in traced.windows]
    counts = [recorder.counter_totals(window) for window in traced.windows]
    reps = len(traced.windows)

    absent = {"self_s": 0.0, "total_s": 0.0, "calls": 0}
    for spec in SPANS:
        rows = [stats.get(spec.name, absent) for stats in per_window]
        calls = {int(row["calls"]) for row in rows}
        if len(calls) > 1:
            failures.append(f"{spec.name} call count changed between repetitions: {sorted(calls)}")
        if spec.name in DECLARED_SPANS[workload] and max(calls) == 0:
            failures.append(f"declared span {spec.name} never fired in {workload}")
        report.add(f"{spec.name}.self_s", statistics.median(r["self_s"] for r in rows), "s", reps)
        report.add(f"{spec.name}.total_s", statistics.median(r["total_s"] for r in rows), "s", reps)
        report.add(f"{spec.name}.calls", max(calls), "count")

    if any(window_counts != counts[0] for window_counts in counts):
        failures.append("hooked work counters changed between repetitions")
    hooked = counts[0]
    step_calls = int(per_window[0].get("core.perform_step", {}).get("calls", 0))
    committed = hooked.get("core.perform_step.committed", 0)
    candidates = hooked.get("trafficmodel.scorer.candidates", 0)
    report.add("trafficmodel.scorer.candidates", candidates, "count")
    report.add("core.perform_step.committed", committed, "count")
    report.add("core.step_commit_ratio", committed / step_calls if step_calls else 0.0, "ratio")
    report.add("core.candidates_per_commit", candidates / committed if committed else 0.0, "ratio")
    report.add("core.model_evaluations", hooked.get("core.model_evaluations", 0), "count")
    report.add("core.steps", hooked.get("core.steps", 0), "count")

    counters = traced.counters
    for name in ("service.decisions", "service.reoptimizations", "service.rule_churn"):
        report.add(name, counters.get(name, 0), "count")
    for cache in ("path_cache", "model_cache"):
        hits = counters.get(f"runner.{cache}.hits", 0)
        misses = counters.get(f"runner.{cache}.misses", 0)
        report.add(f"runner.{cache}.hits", hits, "count")
        report.add(f"runner.{cache}.misses", misses, "count")
        ratio = hits / (hits + misses) if hits + misses else 0.0
        report.add(f"runner.{cache}.hit_ratio", ratio, "ratio")

    # Daemon latencies: like operations only, from the untraced pass.
    reopt = plain.samples.get("reoptimize", [])
    decisions = plain.samples.get("decision", [])
    waits = [
        (received - sent) - recorder.time_inside(CORE_TRANSITIONS, (sent, received))
        for sent, received in traced.decisions
    ]
    report.add(
        "service.reopt_p50_ms",
        percentile(reopt, 0.5, "reoptimize latency") * 1e3 if reopt else 0.0,
        "ms",
        len(reopt),
    )
    report.add(
        "service.decision_p90_ms",
        percentile(decisions, 0.9, "decision latency") * 1e3 if decisions else 0.0,
        "ms",
        len(decisions),
    )
    report.add(
        "service.decision_overhead_ms",
        percentile(waits, 0.5, "decision overhead") * 1e3 if waits else 0.0,
        "ms",
        len(waits),
    )

    unattributed = [
        (high - low) - sum(row["self_s"] for row in stats.values())
        for (low, high), stats in zip(traced.windows, per_window)
    ]
    traced_run = statistics.median(traced.unit_s)
    report.add("trace.unattributed_s", statistics.median(unattributed), "s", reps)
    report.add("trace.run_s", traced_run, "s", reps)
    report.add("trace.overhead", traced_run / statistics.median(plain.unit_s), "ratio")


def _report_unless_failed(failures: List[str], reporter, *args) -> None:
    """Run *reporter*; a failed gate that left too few samples is reported, not raised."""
    try:
        reporter(*args)
    except TooFewSamples as error:
        if not failures:
            raise
        failures.append(str(error))


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    OUT_DIR.mkdir(exist_ok=True)

    run = WORKLOADS[args.workload]
    print(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"traced={bool(args.trace)} nproc={os.cpu_count()} "
        f"python={platform.python_version()} numpy={numpy.__version__}"
    )
    plain = run(args.seed, args.seconds, str(OUT_DIR))
    passes = [plain]
    report = Report()
    failures = list(plain.failures)
    if not args.trace:
        _report_unless_failed(failures, end_to_end, report, plain)
    else:
        recorder = SpanRecorder()
        recorder.install(SPANS)
        try:
            traced = run(args.seed, args.seconds, str(OUT_DIR))
        finally:
            recorder.uninstall()
        passes.append(traced)
        failures.extend(traced.failures)
        if traced.counters != plain.counters:
            changed = changed_keys(traced.counters, plain.counters)
            failures.append(f"work counters differ between untraced and traced runs: {changed}")
        _report_unless_failed(
            failures, per_layer, report, args.workload, plain, traced, recorder, failures
        )
        recorder.write(str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"))

    for failure in failures:
        print(f"FAILED: {failure}")
    attempted = sum(p.attempted for p in passes)
    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": report.metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
