"""The three benchmark workloads and the layer spans each must fire.

Every workload runs a fixed unit of work, derived only from the seed, as
many times as the time budget allows (at least ``min_reps`` times).  Each
repetition is timed on its own, so timings are medians over repetitions,
while the exact work counters of every repetition must be identical.  Set-up
(inputs generated, engines built, tenants registered) is timed apart from
the unit.  Why each workload exists is recorded in ``README.md`` next to
this file.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Tuple

from spans import SpanSpec, Target

clock = time.perf_counter


def _digest(value: object) -> int:
    """A process-independent fingerprint of a result, for exact comparison."""
    return int(hashlib.sha256(repr(value).encode()).hexdigest()[:15], 16)


# ------------------------------------------------------------------ spans


def _step_committed(args: tuple, kwargs: dict, result: Any) -> Dict[str, int]:
    return {"core.perform_step.committed": int(result.progress)}


def _scored_candidates(args: tuple, kwargs: dict, result: Any) -> Dict[str, int]:
    return {"trafficmodel.scorer.candidates": len(args[1])}


def _run_work(args: tuple, kwargs: dict, result: Any) -> Dict[str, int]:
    return {"core.model_evaluations": result.model_evaluations, "core.steps": result.num_steps}


def _span(name: str, *targets: Tuple[str, str], hook=None) -> SpanSpec:
    return SpanSpec(name, tuple(Target(owner, attr) for owner, attr in targets), hook)


_ENGINE = "repro.trafficmodel.compiled:CompiledTrafficModel"
_STATE = "repro.core.state:AllocationState"

#: Every span the traced run can record, in report order.
SPANS: Tuple[SpanSpec, ...] = (
    _span("trafficmodel.solve_batched", (_ENGINE, "solve_batched")),
    _span("trafficmodel.solve", (_ENGINE, "solve")),
    _span("trafficmodel.compile_patched", (_ENGINE, "compile_patched")),
    _span("trafficmodel.compile", (_ENGINE, "compile")),
    _span("trafficmodel.weighted_utility", (_ENGINE, "weighted_utility")),
    _span("trafficmodel.result_of", (_ENGINE, "result_of")),
    _span(
        "trafficmodel.aggregate_utilities",
        ("repro.trafficmodel.result:TrafficModelResult", "aggregate_utilities"),
    ),
    _span(
        "trafficmodel.scorer.score",
        ("repro.trafficmodel.compiled:BatchedCandidateScorer", "score"),
        hook=_scored_candidates,
    ),
    _span("core.run", ("repro.core.optimizer:FubarOptimizer", "run"), hook=_run_work),
    _span(
        "core.perform_step", ("repro.core.optimizer", "perform_step"), hook=_step_committed
    ),
    _span("core.recorder.record", ("repro.core.recorder:OptimizationRecorder", "record")),
    _span(
        "core.state",
        ("repro.core.optimizer", "build_path_sets"),
        (_STATE, "initial"),
        (_STATE, "warm_start"),
        (_STATE, "bundles"),
        (_STATE, "move_delta"),
        (_STATE, "with_move"),
    ),
    _span("paths.alternatives", ("repro.paths.generator:PathGenerator", "alternatives")),
    _span("paths.k_shortest", ("repro.paths.generator:PathGenerator", "k_shortest")),
    _span(
        "paths.dijkstra",
        ("repro.paths.generator", "shortest_path_or_none"),
        ("repro.paths.ksp", "shortest_path_or_none"),
        ("repro.paths.dijkstra", "shortest_path_or_none"),
    ),
    _span("service.reoptimize", ("repro.service.core:ControllerCore", "reoptimize")),
    _span("service.install", ("repro.service.core:ControllerCore", "install")),
    _span("service.carry", ("repro.service.core:ControllerCore", "carry")),
    _span("service.debounce.decide", ("repro.service.debounce:Debouncer", "decide")),
    _span("service.bus.encode", ("repro.service.bus", "encode_event")),
    _span("service.bus.decode", ("repro.service.bus", "decode_event")),
    _span("sdn.install_routing", ("repro.sdn.controller:SdnController", "install_routing")),
    _span(
        "sdn.measured_traffic_matrix",
        ("repro.sdn.controller:SdnController", "measured_traffic_matrix"),
    ),
    _span("failures.prune_warm_start", ("repro.service.core", "prune_warm_start")),
    _span("runner.evaluate_cell", ("repro.runner.engine", "evaluate_cell")),
    _span("runner.build_scenario", ("repro.runner.engine", "build_scenario")),
    _span("runner.cache.store", ("repro.runner.cache:ResultCache", "store")),
    _span("baselines.shortest_path", ("repro.runner.engine:_BASELINE_RUNNERS", "shortest-path")),
    _span("baselines.ecmp", ("repro.runner.engine:_BASELINE_RUNNERS", "ecmp")),
    _span("baselines.minmax_lp", ("repro.runner.engine:_BASELINE_RUNNERS", "minmax-lp")),
    _span("baselines.upper_bound", ("repro.runner.engine", "upper_bound_utility")),
)

#: Spans every optimizing workload must fire.
_OPTIMIZER_SPANS = (
    "trafficmodel.solve_batched",
    "trafficmodel.solve",
    "trafficmodel.compile_patched",
    "trafficmodel.compile",
    "trafficmodel.weighted_utility",
    "trafficmodel.result_of",
    "trafficmodel.aggregate_utilities",
    "trafficmodel.scorer.score",
    "core.run",
    "core.perform_step",
    "core.recorder.record",
    "core.state",
    "paths.alternatives",
    "paths.dijkstra",
)

#: Spans that must fire in each workload's timed phase (the traced self-check).
DECLARED_SPANS: Dict[str, Tuple[str, ...]] = {
    "he31-steps": _OPTIMIZER_SPANS,
    "converge-sweep": _OPTIMIZER_SPANS
    + (
        "paths.k_shortest",
        "runner.evaluate_cell",
        "runner.build_scenario",
        "runner.cache.store",
        "baselines.shortest_path",
        "baselines.ecmp",
        "baselines.minmax_lp",
        "baselines.upper_bound",
    ),
    "service-replay": _OPTIMIZER_SPANS
    + (
        "service.reoptimize",
        "service.install",
        "service.carry",
        "service.debounce.decide",
        "service.bus.encode",
        "service.bus.decode",
        "sdn.install_routing",
        "sdn.measured_traffic_matrix",
        "failures.prune_warm_start",
    ),
}

#: Core transitions of one daemon decision; the rest of its latency is waiting.
CORE_TRANSITIONS = ("service.reoptimize", "service.install", "service.carry")


# ------------------------------------------------------------- pass result


@dataclass
class Pass:
    """Everything one pass of a workload measured and checked."""

    setup_s: List[float] = field(default_factory=list)
    unit_s: List[float] = field(default_factory=list)
    #: Latencies of the workload's most frequent like operation (seconds).
    op_s: List[float] = field(default_factory=list)
    #: Timed windows, one per repetition (for attributing spans).
    windows: List[Tuple[float, float]] = field(default_factory=list)
    utility: float = 0.0
    #: Exact work counters of one repetition (identical across repetitions).
    counters: Dict[str, int] = field(default_factory=dict)
    #: Workload-specific samples (seconds), e.g. reoptimize latencies.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Closed-loop decision windows (service only), for the overhead metric.
    decisions: List[Tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def record_counters(self, counters: Dict[str, int], rep: int) -> None:
        """Keep the first repetition's counters; flag any later mismatch."""
        if rep == 0:
            self.counters = dict(counters)
        elif counters != self.counters:
            changed = changed_keys(counters, self.counters)
            self.fail(f"work counters changed between repetitions: {changed}")


def changed_keys(first: Dict[str, int], second: Dict[str, int]) -> List[str]:
    """Names of the counters whose values differ between two snapshots."""
    return sorted(key for key in set(first) | set(second) if first.get(key) != second.get(key))


def _repeat(seconds: float, min_reps: int, body: Callable[[int], float]) -> None:
    """Run ``body(rep)`` until the next repetition would overrun *seconds*.

    ``body`` returns the wall time it took; the loop predicts the next
    repetition from the longest one so far.
    """
    started = clock()
    longest = 0.0
    rep = 0
    while True:
        longest = max(longest, body(rep))
        rep += 1
        if rep >= min_reps and clock() - started + longest > seconds:
            return


def _median_setup(samples: List[float], build: Callable[[], object], count: int) -> None:
    """Top *samples* up to *count* repeated identical builds."""
    while len(samples) < count:
        started = clock()
        build()
        samples.append(clock() - started)


# -------------------------------------------------------------- he31-steps

#: Committed steps per cold optimizer run on the full HE-31 core.
HE31_STEPS = 10

#: Relative tolerance between the compiled and the reference utility.
REFERENCE_RTOL = 1e-6


def he31_steps(seed: int, seconds: float, out_dir: str) -> Pass:
    """Cold ``FubarOptimizer.run`` on HE-31 at 75 Mbps for a fixed step budget."""
    from repro.core.optimizer import TERMINATED_STEP_LIMIT, FubarOptimizer
    from repro.experiments.scenarios import underprovisioned_scenario
    from repro.trafficmodel.waterfill import reference_evaluate

    result_holder = []
    p = Pass()

    def build():
        scenario = underprovisioned_scenario(seed=seed, num_pops=31)
        config = replace(scenario.fubar_config, max_steps=HE31_STEPS)
        return FubarOptimizer(scenario.network, scenario.traffic_matrix, config)

    def body(rep: int) -> float:
        started = clock()
        optimizer = build()
        ready = clock()
        result = optimizer.run()
        done = clock()
        p.setup_s.append(ready - started)
        p.unit_s.append(done - ready)
        p.windows.append((ready, done))
        p.attempted += 1
        if result.termination_reason != TERMINATED_STEP_LIMIT:
            p.fail(f"run {rep} ended with {result.termination_reason!r}, not the step limit")
        points = [point for point in result.trace if not point.event.startswith("terminated")]
        p.op_s.extend(b.wall_clock_s - a.wall_clock_s for a, b in zip(points, points[1:]))
        p.record_counters(
            {
                "core.steps": result.num_steps,
                "core.model_evaluations": result.model_evaluations,
                "utility_bits": _digest(result.network_utility),
            },
            rep,
        )
        result_holder[:] = [result]
        return done - started

    _repeat(seconds, 2, body)
    _median_setup(p.setup_s, build, 7)

    result = result_holder[0]
    reference = reference_evaluate(result.network, result.state.bundles())
    compiled_utility = result.network_utility
    reference_utility = reference.network_utility()
    if abs(reference_utility - compiled_utility) > REFERENCE_RTOL * abs(reference_utility):
        p.fail(
            f"compiled utility {compiled_utility!r} differs from the reference "
            f"waterfill {reference_utility!r}"
        )
    p.utility = compiled_utility
    return p


# ---------------------------------------------------------- converge-sweep

#: Cells per sweep and the reduced POP count of each cell.
SWEEP_CELLS = 120
SWEEP_POPS = 6
SWEEP_FAMILY = "he-underprovisioned"

#: Slack on the sandwich gate shortest-path <= FUBAR <= upper bound.
SANDWICH_TOL = 1e-9


def converge_sweep(seed: int, seconds: float, out_dir: str) -> Pass:
    """A Figure-7-style repeatability sweep, each cell run to its own end."""
    from repro.core.optimizer import TERMINATED_STEP_LIMIT
    from repro.runner import (
        CellSpec,
        ResultCache,
        WorkerCaches,
        clear_worker_caches,
        install_worker_caches,
        iter_sweep,
        resolve_spec,
    )

    p = Pass()

    def build():
        cells = [
            CellSpec(SWEEP_FAMILY, {"num_pops": SWEEP_POPS}, seed=seed * 1000 + index)
            for index in range(SWEEP_CELLS)
        ]
        for spec in cells:
            resolve_spec(spec).config_hash()
        return cells, WorkerCaches()

    def body(rep: int) -> float:
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=out_dir)
        started = clock()
        cells, caches = build()
        ready = clock()
        install_worker_caches(caches)
        records = []
        try:
            last = ready
            for event, record in iter_sweep(
                cells, jobs=1, cache=ResultCache(cache_dir), force=True
            ):
                now = clock()
                p.op_s.append(now - last)
                last = now
                records.append((event, record))
        finally:
            clear_worker_caches()
        done = clock()
        shutil.rmtree(cache_dir)
        p.setup_s.append(ready - started)
        p.unit_s.append(done - ready)
        p.windows.append((ready, done))
        p.attempted += len(cells)

        steps = 0
        outcome = []
        utilities = []
        for event, record in records:
            label = record.get("label")
            if event != "done" or "error" in record:
                p.fail(f"cell {label} produced {event}: {record.get('error')}")
                continue
            schemes = record["schemes"]
            fubar = schemes["fubar"]
            utility = float(fubar["utility"])
            bound = float(record["upper_bound_utility"])
            floor = float(schemes["shortest-path"]["utility"])
            if not floor - SANDWICH_TOL <= utility <= bound + SANDWICH_TOL:
                p.fail(
                    f"cell {label}: FUBAR {utility!r} outside "
                    f"[shortest-path {floor!r}, upper bound {bound!r}]"
                )
            if fubar["termination"] == TERMINATED_STEP_LIMIT:
                p.fail(f"cell {label} stopped at a step limit, not its own termination")
            steps += int(fubar["steps"])
            utilities.append(utility)
            outcome.append((label, utility, fubar["steps"], fubar["termination"]))
        if len(records) != len(cells):
            p.fail(f"sweep yielded {len(records)} records for {len(cells)} cells")
        stats = caches.stats()
        p.record_counters(
            {
                "core.steps": steps,
                "runner.cells": len(records),
                "runner.path_cache.hits": stats["paths"]["hits"],
                "runner.path_cache.misses": stats["paths"]["misses"],
                "runner.model_cache.hits": stats["models"]["hits"],
                "runner.model_cache.misses": stats["models"]["misses"],
                "outcome_bits": _digest(outcome),
            },
            rep,
        )
        p.utility = statistics.fmean(utilities) if utilities else 0.0
        return done - started

    _repeat(seconds, 1, body)
    _median_setup(p.setup_s, build, 15)
    return p


# ---------------------------------------------------------- service-replay

#: The daemon's tenants: (name, topology family, POP count, scenario seed).
#: Their topologies and base matrices are fixed; the benchmark seed draws
#: the drift trace, so every seed replays the same tenants.
TENANTS = (
    ("he10", "hurricane-electric", 10, 1),
    ("abilene", "abilene", None, 2),
    ("waxman10", "waxman", 10, 3),
)
SERVICE_PROVISIONING = 0.75
#: Optimizer step cap per re-optimization.  Warm re-optimizations stay
#: short, so their cost no longer hinges on how far one trace drifted.
SERVICE_MAX_STEPS = 6
#: Timed epochs after the epoch-0 bootstrap, and the random-walk step.
SERVICE_EPOCHS = 36
SERVICE_STEP_STD = 0.07
#: One fibre cut on one tenant, repaired later.
FAILURE_TENANT = "abilene"
FAILURE_EPOCH = 12
REPAIR_EPOCH = 24
CLEAN_BYE = "daemon drained; closing"
#: Tenant statuses that acknowledge a failure or repair event.
TOPOLOGY_ACKS = ("failure-applied", "repaired")


def _service_inputs(seed: int):
    from repro.dynamics.processes import RandomWalkProcess
    from repro.experiments.scenarios import build_sweep_scenario
    from repro.service.daemon import TenantConfig

    configs = []
    matrices = {}
    for index, (name, topology, pops, scenario_seed) in enumerate(TENANTS):
        scenario = build_sweep_scenario(
            topology=topology,
            num_pops=pops,
            provisioning_ratio=SERVICE_PROVISIONING,
            seed=scenario_seed,
            max_steps=SERVICE_MAX_STEPS,
        )
        configs.append(
            TenantConfig(
                name=name, network=scenario.network, fubar_config=scenario.fubar_config
            )
        )
        walk = RandomWalkProcess(
            scenario.traffic_matrix, seed=seed * 10 + index, step_std=SERVICE_STEP_STD
        )
        matrices[name] = [walk.matrix_at(epoch) for epoch in range(SERVICE_EPOCHS + 1)]
    failed_link = next(
        config.network.links[0].link_id for config in configs if config.name == FAILURE_TENANT
    )
    return configs, matrices, failed_link


def _expected_actions(configs, matrices) -> Dict[str, List[str]]:
    """Replay each tenant's debouncer locally over the same matrices."""
    from repro.service.debounce import Debouncer

    expected = {}
    for config in configs:
        debouncer = Debouncer(config.debounce)
        actions = []
        for epoch, matrix in enumerate(matrices[config.name]):
            if config.name == FAILURE_TENANT and epoch in (FAILURE_EPOCH, REPAIR_EPOCH):
                debouncer.notify_failure()
            decision = debouncer.decide(matrix)
            if decision.reoptimize:
                debouncer.mark_reoptimized(matrix)
            else:
                debouncer.mark_skipped()
            actions.append("reoptimize" if decision.reoptimize else "skip")
        expected[config.name] = actions
    return expected


async def _replay_once(p: Pass, seed: int, rep: int, out_dir: str) -> float:
    from repro.service.bus import BusClient, ServiceBus
    from repro.service.daemon import ControllerDaemon
    from repro.service.events import (
        DecisionTelemetry,
        FailureEvent,
        MeasurementEvent,
        RepairEvent,
        ShutdownEvent,
        TenantStatus,
    )

    socket_path = os.path.join(os.path.relpath(out_dir), f"bus-{os.getpid()}-{rep}.sock")
    actions: Dict[str, List[str]] = {name: [] for name, _, _, _ in TENANTS}
    errors: List[str] = []

    async def next_event(client):
        event = await client.receive()
        if event is None:
            raise RuntimeError("daemon closed the bus mid-replay")
        if isinstance(event, TenantStatus) and event.status == "error":
            errors.append(f"{event.tenant}: {event.detail}")
        return event

    async def decide(client, name: str, epoch: int):
        sent = clock()
        await client.send(MeasurementEvent(tenant=name, matrix=matrices[name][epoch], epoch=epoch))
        while True:
            event = await next_event(client)
            if isinstance(event, DecisionTelemetry):
                break
        received = clock()
        if event.tenant != name or event.epoch != epoch:
            p.fail(f"expected the decision of {name}@{epoch}, got {event.tenant}@{event.epoch}")
        actions[event.tenant].append(event.action)
        return event, sent, received

    async def topology_change(client, event) -> None:
        await client.send(event)
        while True:
            status = await next_event(client)
            if isinstance(status, TenantStatus) and status.status in TOPOLOGY_ACKS:
                return
            if isinstance(status, DecisionTelemetry):
                p.fail(f"unexpected decision {status.tenant}@{status.epoch}")

    started = clock()
    configs, matrices, failed_link = _service_inputs(seed)
    daemon = ControllerDaemon()
    for config in configs:
        await daemon.add_tenant(config)
    bus = ServiceBus(daemon, unix_path=socket_path)
    await bus.start()
    serving = asyncio.ensure_future(bus.serve_until_shutdown())
    client = await BusClient.connect_unix(socket_path)
    shut_down = False
    try:
        for name, _, _, _ in TENANTS:
            await decide(client, name, 0)
        ready = clock()

        delivered = []
        churn = evaluations = steps = 0
        for epoch in range(1, SERVICE_EPOCHS + 1):
            for name, _, _, _ in TENANTS:
                if name == FAILURE_TENANT and epoch == FAILURE_EPOCH:
                    cut = FailureEvent(tenant=name, failed_links=(failed_link,))
                    await topology_change(client, cut)
                if name == FAILURE_TENANT and epoch == REPAIR_EPOCH:
                    await topology_change(client, RepairEvent(tenant=name))
                event, sent, received = await decide(client, name, epoch)
                latency = received - sent
                p.decisions.append((sent, received))
                p.samples.setdefault("decision", []).append(latency)
                p.samples.setdefault(event.action, []).append(latency)
                if event.action == "skip":
                    p.op_s.append(latency)
                record = event.record
                install = record["install"]
                delivered.append(float(record["delivered_utility"]))
                churn += (
                    int(install["rules_added"])
                    + int(install["rules_removed"])
                    + int(install["rules_updated"])
                )
                evaluations += int(record["model_evaluations"])
                steps += int(record["steps"])
        done = clock()
        await client.send(ShutdownEvent())
        shut_down = True
        trailing, bye = await client.receive_until_bye()
    finally:
        await client.close()
        if not shut_down:
            serving.cancel()
            await bus.stop()
        with contextlib.suppress(asyncio.CancelledError):
            await serving
        await daemon.close()

    p.setup_s.append(ready - started)
    p.unit_s.append(done - ready)
    p.windows.append((ready, done))
    p.attempted += len(TENANTS) * (SERVICE_EPOCHS + 1)
    for event in trailing:
        if isinstance(event, DecisionTelemetry):
            p.fail(f"extra decision {event.tenant}@{event.epoch} after the replay")
        elif isinstance(event, TenantStatus) and event.status == "error":
            errors.append(f"{event.tenant}: {event.detail}")
    for error in errors:
        p.fail(f"tenant error status: {error}")
    if bye is None or bye.detail != CLEAN_BYE:
        p.fail(f"no clean bye: {bye!r}")
    if actions != _expected_actions(configs, matrices):
        p.fail("decision sequence differs from a local replay of the debouncer")
    stats = daemon.caches.stats()
    p.record_counters(
        {
            "service.decisions": sum(len(seq) for seq in actions.values()),
            "service.reoptimizations": sum(seq.count("reoptimize") for seq in actions.values()),
            "service.rule_churn": churn,
            "core.model_evaluations": evaluations,
            "core.steps": steps,
            "runner.path_cache.hits": stats["paths"]["hits"],
            "runner.path_cache.misses": stats["paths"]["misses"],
            "runner.model_cache.hits": stats["models"]["hits"],
            "runner.model_cache.misses": stats["models"]["misses"],
            "actions_bits": _digest(sorted(actions.items())),
            "utility_bits": _digest(delivered),
        },
        rep,
    )
    p.utility = statistics.fmean(delivered)
    return done - started


def service_replay(seed: int, seconds: float, out_dir: str) -> Pass:
    """Closed-loop replay through an in-process daemon over a Unix socket."""
    p = Pass()
    _repeat(seconds, 2, lambda rep: asyncio.run(_replay_once(p, seed, rep, out_dir)))
    return p


WORKLOADS: Dict[str, Callable[[int, float, str], Pass]] = {
    "he31-steps": he31_steps,
    "converge-sweep": converge_sweep,
    "service-replay": service_replay,
}

