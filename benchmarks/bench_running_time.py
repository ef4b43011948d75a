"""Experiment E8 — §3 "Running time", plus the incremental-engine benchmark.

The paper reports that the provisioned case converges in under a minute and
the underprovisioned case in about five minutes (single-threaded Java,
1.3 GHz Core i5).  Absolute numbers are not comparable with a pure-Python
reimplementation on different hardware and (by default) a reduced topology;
the property that carries over is the *relationship*: the underprovisioned
case needs more steps/time because the optimizer keeps spreading traffic over
more lightly-congested links before giving up.

This module additionally measures the compiled/incremental traffic-model
engine against the pre-compiled-engine baseline — a full
:func:`~repro.trafficmodel.waterfill.reference_evaluate` rebuild of every
candidate move — on the same scenario and step budget.  The compiled
optimizer runs first; the baseline then replays the candidates of each of
its steps (enumerated with ``_candidate_moves``, as ``bench_scale.py`` does)
and times their full rebuilds.  The result (including the optimizer
trajectory) can be written to ``BENCH_running_time.json``:

    PYTHONPATH=src python -m benchmarks.bench_running_time \
        --num-pops 31 --max-steps 6 --output BENCH_running_time.json

The pytest entry points run the same comparison at reduced scale and fail on
model-equivalence drift, which is what the CI benchmark smoke job checks.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, Optional

from benchmarks.conftest import BENCH_SEED, print_header, run_once
from repro.core.optimizer import FubarOptimizer
from repro.core.state import AllocationState, build_path_sets
from repro.core.step import _candidate_moves, perform_step
from repro.experiments.figures import run_running_time
from repro.experiments.scenarios import provisioned_scenario
from repro.metrics.reporting import format_table
from repro.paths.generator import PathGenerator
from repro.trafficmodel.waterfill import TrafficModel, reference_evaluate

#: Default location of the running-time benchmark record (repo root).
BENCH_JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_running_time.json"

#: Schema version of BENCH_running_time.json.
BENCH_SCHEMA = 1

#: Relative tolerance for the model-equivalence drift gate: both engines must
#: land on the same final utility (they evaluate the same model).
DRIFT_RTOL = 1e-6


def _timing(engine: str, wall: float, steps: int, evaluations: int) -> Dict:
    return {
        "engine": engine,
        "wall_clock_s": wall,
        "steps": steps,
        "model_evaluations": evaluations,
        "ms_per_evaluation": wall / evaluations * 1e3 if evaluations else None,
        "evaluations_per_s": evaluations / wall if wall > 0 else None,
    }


def _run_compiled(scenario, max_steps: Optional[int]) -> Dict:
    """Run FUBAR on *scenario* (batched incremental scoring) and time it."""
    config = replace(scenario.fubar_config, max_steps=max_steps)
    optimizer = FubarOptimizer(scenario.network, scenario.traffic_matrix, config=config)
    started = time.perf_counter()
    result = optimizer.run()
    wall = time.perf_counter() - started
    record = _timing(
        "compiled-incremental", wall, result.num_steps, result.model_evaluations
    )
    record.update(
        final_utility=result.network_utility,
        termination=result.termination_reason,
        trajectory=[point.as_dict() for point in result.trace],
    )
    return record


def _replay_reference(scenario, max_steps: Optional[int]) -> Dict:
    """Time a full reference rebuild of every candidate the compiled run scores.

    Re-drives the optimizer loop (Listing 1) through ``perform_step``, so
    the trajectory is the compiled run's.  Before each step, every candidate
    move it is about to score is rebuilt as a whole bundle list and
    evaluated with ``reference_evaluate`` (waterfill plus utility roll-up);
    only those rebuilds are timed.
    """
    network = scenario.network
    config = replace(scenario.fubar_config, max_steps=max_steps)
    weights = config.priority_weights
    generator = PathGenerator(network)
    model = TrafficModel(network)
    state = AllocationState.initial(network, scenario.traffic_matrix, generator)
    path_sets = build_path_sets(network, state)
    result = model.evaluate(state.bundles())
    wall = 0.0
    steps = evaluations = level = 0
    while result.has_congestion and (max_steps is None or steps < max_steps):
        progress = False
        for link_id in result.congested_links_by_oversubscription():
            moves = [
                (bundle.aggregate_key, bundle.path, candidate, num_to_move)
                for bundle, candidate, num_to_move in _candidate_moves(
                    link_id, state, path_sets, generator, config, result, level
                )
            ]
            started = time.perf_counter()
            for move in moves:
                trial = state.with_move(*move)
                reference_evaluate(network, trial.bundles()).network_utility(weights)
            wall += time.perf_counter() - started
            evaluations += len(moves)
            step = perform_step(
                link_id, state, path_sets, model, generator, config, result, level
            )
            if step.progress:
                state, result = step.state, step.result
                steps += 1
                progress = True
                break
        if progress:
            level = 0
        elif level >= config.max_escalation_level:
            break
        else:
            level += 1
    record = _timing("reference-full", wall, steps, evaluations)
    final = reference_evaluate(network, state.bundles())
    record["final_utility"] = final.network_utility()
    return record


def measure_incremental_speedup(
    seed: int = BENCH_SEED,
    max_steps: Optional[int] = 6,
    **scenario_kwargs,
) -> Dict:
    """Compare the compiled engine against the reference baseline.

    Runs the provisioned scenario with the optimizer's batched incremental
    scoring, then replays the candidates of its steps through full
    reference rebuilds under the same step budget, and reports
    per-evaluation timings, the speedup, and a single-evaluation
    microbenchmark.
    """
    scenario = provisioned_scenario(seed=seed, **scenario_kwargs)
    compiled = _run_compiled(scenario, max_steps)
    baseline = _replay_reference(scenario, max_steps)
    if baseline["steps"] != compiled["steps"]:
        raise RuntimeError(
            f"reference replay took {baseline['steps']} steps, the compiled "
            f"run {compiled['steps']}"
        )

    # Single-evaluation microbenchmark (shortest-path allocation).
    from repro.trafficmodel.compiled import CompiledTrafficModel

    state = AllocationState.initial(scenario.network, scenario.traffic_matrix)
    bundles = state.bundles()

    started = time.perf_counter()
    reference_result = reference_evaluate(scenario.network, bundles)
    reference_eval_ms = (time.perf_counter() - started) * 1e3

    engine = CompiledTrafficModel(scenario.network)
    engine.evaluate(bundles)  # warm the row cache
    started = time.perf_counter()
    compiled_result = engine.evaluate(bundles)
    compiled_eval_ms = (time.perf_counter() - started) * 1e3

    base = engine.compile(bundles)
    sample = bundles[0]
    patch = {
        (sample.aggregate_key, sample.path): sample.with_num_flows(
            max(1, sample.num_flows // 2)
        )
    }
    started = time.perf_counter()
    patched = engine.compile_patched(base, patch)
    solution = engine.solve(patched)
    engine.weighted_utility(patched, solution.rates)
    patched_eval_ms = (time.perf_counter() - started) * 1e3

    return {
        "schema": BENCH_SCHEMA,
        "scenario": dict(scenario.summary()),
        "seed": seed,
        "max_steps": max_steps,
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "engines": {"reference": baseline, "compiled": compiled},
        "speedup": {
            # evaluations/s speedup is the same ratio by construction, so
            # only the ms-per-evaluation form is recorded.
            "ms_per_evaluation": (
                baseline["ms_per_evaluation"] / compiled["ms_per_evaluation"]
                if baseline["ms_per_evaluation"] and compiled["ms_per_evaluation"]
                else None
            ),
            "wall_clock": (
                baseline["wall_clock_s"] / compiled["wall_clock_s"]
                if compiled["wall_clock_s"] > 0
                else None
            ),
        },
        "microbench": {
            "reference_eval_ms": reference_eval_ms,
            "compiled_full_eval_ms": compiled_eval_ms,
            "compiled_patched_eval_ms": patched_eval_ms,
            "full_vs_incremental_speedup": (
                reference_eval_ms / patched_eval_ms if patched_eval_ms > 0 else None
            ),
        },
        "drift": {
            "final_utility_reference": baseline["final_utility"],
            "final_utility_compiled": compiled["final_utility"],
            "single_eval_utility_reference": reference_result.network_utility(),
            "single_eval_utility_compiled": compiled_result.network_utility(),
        },
    }


def _assert_no_drift(record: Dict) -> None:
    drift = record["drift"]
    assert abs(
        drift["single_eval_utility_reference"] - drift["single_eval_utility_compiled"]
    ) <= DRIFT_RTOL * max(abs(drift["single_eval_utility_reference"]), 1e-12), (
        "compiled engine drifted from the reference model on a single evaluation"
    )
    assert abs(
        drift["final_utility_reference"] - drift["final_utility_compiled"]
    ) <= 1e-3 * max(abs(drift["final_utility_reference"]), 1e-12), (
        "the engines disagree on the utility of the final allocation"
    )


def _print_speedup(record: Dict) -> None:
    print_header("Incremental traffic-model engine vs reference baseline")
    rows = []
    for name in ("reference", "compiled"):
        engine = record["engines"][name]
        rows.append(
            (
                name,
                f"{engine['wall_clock_s']:.2f}",
                engine["steps"],
                engine["model_evaluations"],
                f"{engine['ms_per_evaluation']:.2f}" if engine["ms_per_evaluation"] else "-",
                f"{engine['evaluations_per_s']:.0f}" if engine["evaluations_per_s"] else "-",
                f"{engine['final_utility']:.4f}",
            )
        )
    print(
        format_table(
            ("engine", "wall_s", "steps", "evals", "ms/eval", "evals/s", "utility"),
            rows,
        )
    )
    speedup = record["speedup"]
    micro = record["microbench"]
    print(
        f"\nper-evaluation speedup: {speedup['ms_per_evaluation']:.2f}x   "
        f"wall-clock speedup: {speedup['wall_clock']:.2f}x"
    )
    print(
        f"microbench: reference {micro['reference_eval_ms']:.2f} ms, "
        f"compiled full {micro['compiled_full_eval_ms']:.2f} ms, "
        f"compiled patched {micro['compiled_patched_eval_ms']:.2f} ms "
        f"({micro['full_vs_incremental_speedup']:.1f}x full-vs-incremental)"
    )


# ------------------------------------------------------------------- pytest


def test_running_time(benchmark):
    result = run_once(benchmark, run_running_time, seed=BENCH_SEED)

    summary = result.summary()
    print_header("Running time: provisioned vs underprovisioned")
    print(
        format_table(
            ("case", "wall_clock_s", "steps", "model_evaluations"),
            [
                (
                    "provisioned",
                    f"{summary['provisioned_wall_clock_s']:.2f}",
                    summary["provisioned_steps"],
                    result.provisioned.plan.result.model_evaluations,
                ),
                (
                    "underprovisioned",
                    f"{summary['underprovisioned_wall_clock_s']:.2f}",
                    summary["underprovisioned_steps"],
                    result.underprovisioned.plan.result.model_evaluations,
                ),
            ],
        )
    )
    print(f"\nunderprovisioned / provisioned wall-clock ratio: {summary['underprovisioned_slower_by']:.2f}x")

    assert summary["provisioned_wall_clock_s"] > 0.0
    assert summary["underprovisioned_steps"] >= 1


def test_incremental_engine_speedup_and_equivalence(benchmark):
    """The CI smoke gate: both engines agree; the compiled one is not slower.

    At the default reduced scale the absolute speedup is modest (smaller
    matrices shrink the reference model's disadvantage), so the hard gate is
    model equivalence; the ≥3x acceptance number is recorded at full scale in
    BENCH_running_time.json.
    """
    record = run_once(benchmark, measure_incremental_speedup, max_steps=4)
    _print_speedup(record)
    _assert_no_drift(record)
    assert record["speedup"]["ms_per_evaluation"] is not None
    assert record["speedup"]["ms_per_evaluation"] > 0.8


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure the incremental engine and write BENCH_running_time.json"
    )
    parser.add_argument(
        "--num-pops",
        type=int,
        default=None,
        help="POP count (defaults to the scenario default; 31 = paper scale)",
    )
    parser.add_argument("--seed", type=int, default=BENCH_SEED)
    parser.add_argument(
        "--max-steps",
        type=int,
        default=6,
        help="step budget per engine (bounds the baseline's wall clock)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=BENCH_JSON_PATH,
        help=f"where to write the JSON record (default {BENCH_JSON_PATH})",
    )
    args = parser.parse_args(argv)

    kwargs = {}
    if args.num_pops is not None:
        kwargs["num_pops"] = args.num_pops
    record = measure_incremental_speedup(
        seed=args.seed, max_steps=args.max_steps, **kwargs
    )
    _print_speedup(record)
    _assert_no_drift(record)
    args.output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
