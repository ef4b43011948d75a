"""Equivalence suite: BatchedCandidateScorer, the optimizer's one scoring path.

The batched scorer only counts if it is *bitwise* interchangeable with
scoring each candidate alone (``compile_patched`` + ``solve`` +
``weighted_utility``), and if the moves it commits are the ones a full
rebuild of every candidate would pick.  This suite locks that in three
layers:

1. ``solve`` vs ``solve_batched`` — rates and bottleneck attribution of a
   block solved alone equal those of the same block inside any batch,
   including under capacity overrides and warm-started initial crossing
   times (the full-vs-delta solve agreement on the stacked tensor).
2. Scores — ``BatchedCandidateScorer.score`` equals per-move scores exactly
   (drift 0, not within a tolerance) on HE-31, Abilene and tiered seeds.
3. Moves — at each of the first optimizer steps, the committed move is the
   argmax of a full ``engine.evaluate`` rebuild of every candidate (the
   full-rebuild scorer lives here as the oracle), and every batched score
   is within 1e-12 of its rebuilt utility.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.state import AllocationState, build_path_sets
from repro.core.step import _candidate_moves, perform_step
from repro.experiments.scenarios import build_paper_scenario, build_sweep_scenario
from repro.experiments.tiered import build_tiered_scenario
from repro.paths.generator import PathGenerator
from repro.trafficmodel.compiled import (
    BatchedCandidateScorer,
    _adaptive_batch_size,
)
from repro.trafficmodel.waterfill import TrafficModel


def scenario_by_name(name: str):
    if name == "he31":
        return build_paper_scenario(seed=0)
    if name == "abilene":
        return build_sweep_scenario(topology="abilene", seed=1)
    prefix = "tiered-"
    assert name.startswith(prefix)
    return build_tiered_scenario(size="small", seed=int(name[len(prefix):]))


SCENARIOS = ["he31", "abilene", "tiered-0", "tiered-1", "tiered-2"]


def _assert_solutions_equal(single, batched, label):
    assert np.array_equal(single.rates, batched.rates), label
    assert np.array_equal(single.bottleneck, batched.bottleneck), label


# ------------------------------------------------- solve vs solve_batched


@pytest.mark.parametrize("name", SCENARIOS)
def test_solve_equals_solve_batched(name):
    """A block inside any batch solves bitwise as it does alone."""
    scenario = scenario_by_name(name)
    state = AllocationState.initial(scenario.network, scenario.traffic_matrix)
    engine = TrafficModel(scenario.network).engine
    compiled = engine.compile(state.bundles())

    single = engine.solve(compiled)
    for batch in ([compiled], [compiled] * 2, [compiled] * 7):
        for solution in engine.solve_batched(batch):
            _assert_solutions_equal(single, solution, name)


@pytest.mark.parametrize("name", ["he31", "tiered-0"])
def test_solve_batched_capacity_override(name):
    scenario = scenario_by_name(name)
    state = AllocationState.initial(scenario.network, scenario.traffic_matrix)
    engine = TrafficModel(scenario.network).engine
    compiled = engine.compile(state.bundles())
    capacities = np.asarray(
        [link.capacity_bps * 0.6 for link in scenario.network.links]
    )
    single = engine.solve(compiled, capacities=capacities)
    for solution in engine.solve_batched([compiled] * 3, capacities=capacities):
        _assert_solutions_equal(single, solution, name)


def test_warm_started_solve_is_bitwise_cold(hot_workload):
    """Seeding initial crossing times from the base block cannot change any
    patched block's solution when the patch's links are marked fresh."""
    engine, base, deltas, _ = hot_workload
    warm = np.empty(engine._capacities.shape[0], dtype=float)
    engine.solve_batched([base], initial_tau_out=warm)

    scorer = BatchedCandidateScorer(engine, base)
    patched = [engine.compile_patched(base, delta) for delta in deltas]
    cold = engine.solve_batched(patched)
    warmed = engine.solve_batched(
        patched,
        warm_tau=warm,
        fresh_links=[scorer._fresh_links(delta) for delta in deltas],
    )
    for one_cold, one_warm in zip(cold, warmed):
        _assert_solutions_equal(one_cold, one_warm, "warm vs cold")


def test_warm_tau_shape_is_validated(hot_workload):
    engine, base, _, _ = hot_workload
    from repro.exceptions import TrafficModelError

    with pytest.raises(TrafficModelError, match="warm_tau"):
        engine.solve_batched([base], warm_tau=np.zeros(3))


# --------------------------------------------------------- score equality


@pytest.fixture(scope="module")
def hot_workload():
    """Engine, compiled base and the candidate deltas of one hot step.

    HE-31 is the smallest scenario whose congested links have movable
    candidates (the tiered-small sizes congest only access stubs, which
    have no alternative paths); the 200-node tiered drift gate lives in
    benchmarks/bench_scale.py.
    """
    scenario = build_paper_scenario(seed=0)
    network = scenario.network
    generator = PathGenerator(network)
    state = AllocationState.initial(
        network, scenario.traffic_matrix, generator
    )
    model = TrafficModel(network)
    result = model.evaluate(state.bundles())
    deltas = []
    path_sets = build_path_sets(network, state)
    for link_id in result.congested_links:
        deltas = [
            state.move_delta(
                bundle.aggregate_key, bundle.path, candidate, num_to_move
            )
            for bundle, candidate, num_to_move in _candidate_moves(
                link_id,
                state,
                path_sets,
                generator,
                scenario.fubar_config,
                result,
                0,
            )
        ]
        if deltas:
            break
    assert deltas, "HE-31 seed 0 should yield candidate moves"
    engine = model.engine
    return engine, engine.compile(state.bundles()), deltas, scenario


def _per_move_scores(engine, base, deltas, weights):
    scores = []
    for delta in deltas:
        patched = engine.compile_patched(base, delta)
        solution = engine.solve(patched)
        scores.append(engine.weighted_utility(patched, solution.rates, weights))
    return scores


def test_batched_scores_equal_per_move_exactly(hot_workload):
    engine, base, deltas, scenario = hot_workload
    weights = scenario.fubar_config.priority_weights
    expected = _per_move_scores(engine, base, deltas, weights)
    actual = BatchedCandidateScorer(engine, base, weights).score(deltas)
    assert actual == expected  # bitwise, not approx


@pytest.mark.parametrize("batch_size", [1, 2, 3, 64])
def test_scores_do_not_depend_on_chunking(hot_workload, batch_size):
    """Chunk boundaries regroup the stacked solve; scores must not move."""
    engine, base, deltas, scenario = hot_workload
    weights = scenario.fubar_config.priority_weights
    expected = _per_move_scores(engine, base, deltas, weights)
    scorer = BatchedCandidateScorer(
        engine, base, weights, batch_size=batch_size
    )
    assert scorer.score(deltas) == expected


def test_adaptive_batch_size_bounds():
    assert _adaptive_batch_size(100) == 64  # capped
    assert _adaptive_batch_size(32768) == 8  # floored
    assert _adaptive_batch_size(2048) == 16  # in between


# ------------------------------------- committed moves vs a full rebuild

#: Committed optimizer steps checked per scenario.
ORACLE_STEPS = 4

#: Largest allowed gap between a batched score and its full-rebuild utility.
ORACLE_TOL = 1e-12


def _full_rebuild_best_move(
    engine, state, path_sets, generator, config, result, link_id, level
):
    """The full-rebuild scorer: evaluate every candidate's moved state from
    scratch and keep the strict argmax above the improvement threshold.

    Returns ``(best move or None, [(move, rebuilt utility), ...])``.
    """
    weights = config.priority_weights
    best_utility = result.network_utility(weights) + config.min_utility_improvement
    best = None
    scored = []
    for bundle, candidate, num_to_move in _candidate_moves(
        link_id, state, path_sets, generator, config, result, level
    ):
        move = (bundle.aggregate_key, bundle.path, candidate, num_to_move)
        trial = state.with_move(*move)
        utility = engine.evaluate(trial.bundles()).network_utility(weights)
        scored.append((move, utility))
        if utility > best_utility:
            best_utility = utility
            best = move
    return best, scored


@pytest.mark.parametrize("name", SCENARIOS)
def test_committed_moves_match_full_rebuild_oracle(name):
    """Drive the optimizer loop step by step; before each ``perform_step``
    rebuild every candidate in full and check the step commits its argmax."""
    scenario = scenario_by_name(name)
    network = scenario.network
    config = scenario.fubar_config
    weights = config.priority_weights
    generator = PathGenerator(network)
    model = TrafficModel(network)
    engine = model.engine
    state = AllocationState.initial(network, scenario.traffic_matrix, generator)
    path_sets = build_path_sets(network, state)
    result = model.evaluate(state.bundles())

    committed = 0
    level = 0
    while committed < ORACLE_STEPS and result.has_congestion:
        progress = False
        for link_id in result.congested_links_by_oversubscription():
            expected, scored = _full_rebuild_best_move(
                engine, state, path_sets, generator, config, result, link_id, level
            )
            if scored:
                batched = BatchedCandidateScorer(engine, result.compiled, weights).score(
                    [state.move_delta(*move) for move, _ in scored]
                )
                for (move, rebuilt), score in zip(scored, batched):
                    assert abs(score - rebuilt) <= ORACLE_TOL, (name, move)
            step = perform_step(
                link_id, state, path_sets, model, generator, config, result, level
            )
            if expected is None:
                assert not step.progress, (name, link_id)
                continue
            assert step.progress, (name, link_id)
            chosen = (
                step.moved_aggregate, step.from_path, step.to_path, step.num_flows_moved
            )
            assert chosen == expected, (name, committed)
            rebuilt_utility = dict(scored)[expected]
            assert abs(step.utility_after - rebuilt_utility) <= ORACLE_TOL
            state, result = step.state, step.result
            committed += 1
            progress = True
            break
        if progress:
            level = 0
        elif level >= config.max_escalation_level:
            break
        else:
            level += 1
    if name in ("he31", "abilene"):
        assert committed == ORACLE_STEPS, name
