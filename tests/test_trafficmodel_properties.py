"""Property-based tests (hypothesis) for the progressive-filling traffic model.

The model's invariants hold for *any* workload:

* no link ever carries more than its capacity,
* no bundle ever receives more than its demand,
* a bundle is marked satisfied exactly when its rate equals its demand,
* an unsatisfied bundle names a bottleneck link on its own path and that
  link is saturated,
* total carried traffic never exceeds total demand,
* the compiled utility roll-up a result reports matches the scalar
  helpers in :mod:`repro.utility.aggregation`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.recorder import OptimizationRecorder
from repro.topology.builders import ring_topology
from repro.trafficmodel.bundle import Bundle
from repro.trafficmodel.compiled import CompiledBundles
from repro.trafficmodel.waterfill import evaluate_bundles
from repro.units import kbps, mbps
from repro.utility.aggregation import (
    AggregateUtility,
    PriorityWeights,
    class_utility,
    network_utility,
    per_class_utilities,
)
from tests.conftest import make_aggregate

#: The fixed topology used for the property tests: a 6-node ring.
RING = ring_topology(6, capacity_bps=mbps(20))
RING_NODES = list(RING.node_names)


@st.composite
def bundle_workloads(draw):
    """Random workloads: up to 12 bundles with random endpoints, flows and demand."""
    num_bundles = draw(st.integers(min_value=1, max_value=12))
    bundles = []
    for index in range(num_bundles):
        source_index = draw(st.integers(min_value=0, max_value=5))
        offset = draw(st.integers(min_value=1, max_value=5))
        destination_index = (source_index + offset) % 6
        source = RING_NODES[source_index]
        destination = RING_NODES[destination_index]
        num_flows = draw(st.integers(min_value=1, max_value=50))
        demand = draw(st.floats(min_value=kbps(10), max_value=mbps(2)))
        clockwise = draw(st.booleans())
        if clockwise:
            path = tuple(
                RING_NODES[(source_index + step) % 6] for step in range(offset + 1)
            )
        else:
            path = tuple(
                RING_NODES[(source_index - step) % 6] for step in range(6 - offset + 1)
            )
        aggregate = make_aggregate(
            source,
            destination,
            num_flows=num_flows,
            demand_bps=demand,
            traffic_class=f"class{index}",
        )
        bundles.append(Bundle(aggregate=aggregate, path=path, num_flows=num_flows))
    return bundles


@given(bundle_workloads())
@settings(max_examples=60, deadline=None)
def test_capacity_never_exceeded(bundles):
    result = evaluate_bundles(RING, bundles)
    capacities = np.asarray(RING.capacities())
    assert np.all(result.link_loads_bps <= capacities * (1 + 1e-6))


@given(bundle_workloads())
@settings(max_examples=60, deadline=None)
def test_rates_never_exceed_demand(bundles):
    result = evaluate_bundles(RING, bundles)
    for outcome in result.outcomes:
        assert outcome.rate_bps <= outcome.bundle.total_demand_bps * (1 + 1e-9)
        assert outcome.rate_bps >= 0.0


@given(bundle_workloads())
@settings(max_examples=60, deadline=None)
def test_satisfied_iff_rate_equals_demand(bundles):
    result = evaluate_bundles(RING, bundles)
    for outcome in result.outcomes:
        if outcome.satisfied:
            assert outcome.rate_bps == pytest.approx(outcome.bundle.total_demand_bps, rel=1e-6)
        else:
            assert outcome.rate_bps < outcome.bundle.total_demand_bps


@given(bundle_workloads())
@settings(max_examples=60, deadline=None)
def test_unsatisfied_bundles_have_saturated_bottleneck_on_their_path(bundles):
    result = evaluate_bundles(RING, bundles)
    for outcome in result.outcomes:
        if outcome.satisfied:
            continue
        assert outcome.bottleneck_link is not None
        assert outcome.bundle.uses_link(outcome.bottleneck_link)
        link = RING.link_by_id(outcome.bottleneck_link)
        assert result.link_loads_bps[link.index] == pytest.approx(
            link.capacity_bps, rel=1e-6
        )


@given(bundle_workloads())
@settings(max_examples=60, deadline=None)
def test_total_carried_at_most_total_demand(bundles):
    result = evaluate_bundles(RING, bundles)
    assert result.total_carried_bps <= result.total_demand_bps * (1 + 1e-9)


@given(bundle_workloads())
@settings(max_examples=60, deadline=None)
def test_utilities_are_in_unit_interval(bundles):
    result = evaluate_bundles(RING, bundles)
    for entry in result.aggregate_utilities():
        assert 0.0 <= entry.utility <= 1.0
    assert 0.0 <= result.network_utility() <= 1.0


#: Priority weightings the roll-up is checked under ("class0" is always drawn).
WEIGHTINGS = (
    PriorityWeights.uniform(),
    PriorityWeights.prioritize("large-transfer", 4.0),
    PriorityWeights.prioritize("class0", 4.0),
)


def _other_way_round(path):
    """The same endpoints connected the other way round the ring."""
    source = RING_NODES.index(path[0])
    destination = RING_NODES.index(path[-1])
    step = 1 if path[1] == RING_NODES[(source - 1) % 6] else -1
    nodes = [path[0]]
    index = source
    while index != destination:
        index = (index + step) % 6
        nodes.append(RING_NODES[index])
    return tuple(nodes)


def _split_both_ways(bundles):
    """Split every multi-flow bundle over both ring directions, so aggregates
    carry two bundles and the flow-weighted per-aggregate mean is exercised."""
    split = []
    for bundle in bundles:
        half = bundle.num_flows // 2
        if half == 0:
            split.append(bundle)
            continue
        split.append(bundle.with_num_flows(bundle.num_flows - half))
        split.append(
            Bundle(
                aggregate=bundle.aggregate,
                path=_other_way_round(bundle.path),
                num_flows=half,
            )
        )
    return split


def _scalar_aggregate_utilities(result):
    """The per-bundle scalar roll-up, written out as the oracle."""
    grouped = {}
    for outcome in result.outcomes:
        grouped.setdefault(outcome.bundle.aggregate_key, []).append(outcome)
    utilities = []
    for key, outcomes in grouped.items():
        aggregate = outcomes[0].bundle.aggregate
        total_flows = sum(outcome.bundle.num_flows for outcome in outcomes)
        weighted = 0.0
        for outcome in outcomes:
            weighted += outcome.bundle.num_flows * aggregate.utility(
                outcome.per_flow_rate_bps, outcome.bundle.path_delay(RING)
            )
        utilities.append(
            AggregateUtility(
                aggregate_key=key,
                utility=min(weighted / total_flows, 1.0),
                num_flows=total_flows,
                traffic_class=aggregate.traffic_class,
            )
        )
    return utilities


@given(bundle_workloads(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_rollup_matches_scalar_helpers(bundles, split):
    if split:
        bundles = _split_both_ways(bundles)
    result = evaluate_bundles(RING, bundles)
    expected = _scalar_aggregate_utilities(result)
    assert result.aggregate_utilities() == expected  # exact, in order
    expected_classes = per_class_utilities(expected)
    assert list(result.per_class_utilities().items()) == list(expected_classes.items())
    for name in expected_classes:
        assert result.class_utility(name) == class_utility(expected, name)
    assert result.class_utility("no-such-class") is None
    for weights in WEIGHTINGS:
        gap = result.network_utility(weights) - network_utility(expected, weights)
        assert abs(gap) <= 1e-12


def test_recorder_and_network_utility_roll_up_once(monkeypatch):
    """A result runs its roll-up kernel once, however many views are read."""
    calls = []
    kernel = CompiledBundles.utility_by_aggregate

    def counting_kernel(self, rates):
        calls.append(len(rates))
        return kernel(self, rates)

    monkeypatch.setattr(CompiledBundles, "utility_by_aggregate", counting_kernel)
    bundles = [
        Bundle(
            aggregate=make_aggregate("N0", "N3", num_flows=40, demand_bps=mbps(1)),
            path=("N0", "N1", "N2", "N3"),
            num_flows=40,
        ),
        Bundle(
            aggregate=make_aggregate(
                "N1", "N2", num_flows=30, traffic_class="large-transfer"
            ),
            path=("N1", "N2"),
            num_flows=30,
        ),
    ]
    result = evaluate_bundles(RING, bundles)
    assert calls == []
    OptimizationRecorder(WEIGHTINGS[1]).record(0, result, "initial")
    result.network_utility(WEIGHTINGS[2])
    assert calls == [2]


@given(bundle_workloads(), st.floats(min_value=1.5, max_value=4.0))
@settings(max_examples=40, deadline=None)
def test_scaling_up_capacity_preserves_congestion_free_solutions(bundles, factor):
    """A workload every bundle of which is satisfied stays fully satisfied —
    with the same rates — when every capacity is scaled up: nothing was
    truncated, so the load curves are unchanged and sit even further below
    the larger capacities.  (Per-bundle rates of *congested* workloads are
    NOT monotone in capacity — see
    ``test_progressive_filling_is_not_capacity_monotone`` — which is why
    this test does not assert the stronger per-rate property.)
    """
    small = evaluate_bundles(RING, bundles)
    bigger_ring = RING.with_scaled_capacity(factor)
    rebuilt = [
        Bundle(aggregate=outcome.bundle.aggregate, path=outcome.bundle.path,
               num_flows=outcome.bundle.num_flows)
        for outcome in small.outcomes
    ]
    large = evaluate_bundles(bigger_ring, rebuilt)
    # Scaled capacities are still never exceeded.
    capacities = np.asarray(bigger_ring.capacities())
    assert np.all(large.link_loads_bps <= capacities * (1 + 1e-6))
    if all(outcome.satisfied for outcome in small.outcomes):
        for before, after in zip(small.outcomes, large.outcomes):
            assert after.satisfied
            assert after.rate_bps == pytest.approx(before.rate_bps, rel=1e-9)


@given(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=50),
    st.floats(min_value=kbps(10), max_value=mbps(60)),
    st.floats(min_value=1.5, max_value=4.0),
)
@settings(max_examples=40, deadline=None)
def test_single_bundle_rate_is_monotone_in_capacity(
    source_index, offset, num_flows, demand, factor
):
    """With no competing bundles the rate *is* monotone in capacity: it is
    ``min(total demand, bottleneck capacity)`` along the path."""
    destination_index = (source_index + offset) % 6
    path = tuple(RING_NODES[(source_index + step) % 6] for step in range(offset + 1))
    aggregate = make_aggregate(
        RING_NODES[source_index],
        RING_NODES[destination_index],
        num_flows=num_flows,
        demand_bps=demand,
    )
    bundle = Bundle(aggregate=aggregate, path=path, num_flows=num_flows)
    small = evaluate_bundles(RING, [bundle])
    large = evaluate_bundles(RING.with_scaled_capacity(factor), [bundle])
    assert large.outcomes[0].rate_bps >= small.outcomes[0].rate_bps * (1 - 1e-9)


def test_progressive_filling_is_not_capacity_monotone():
    """Documented model behaviour: adding capacity can *reduce* one bundle's
    rate (hypothesis' counterexample, reproduced by the pre-compiled-engine
    seed implementation as well).

    On the small ring the N5->N4 link saturates early and freezes the heavy
    N0->N3 bundle, which frees N0->N5 for the single-flow N0->N4 bundle; with
    2.5x capacity N5->N4 saturates later, the heavy bundle keeps loading
    N0->N5, and N0->N5 now saturates *earlier* relative to the light bundle's
    growth.  Progressive filling with fixed RTT-biased growth rates (paper
    §2.3) simply is not max-min fair, so per-rate capacity monotonicity does
    not hold.
    """

    def build(index, source, destination, path, num_flows, demand):
        aggregate = make_aggregate(
            source,
            destination,
            num_flows=num_flows,
            demand_bps=demand,
            traffic_class=f"class{index}",
        )
        return Bundle(aggregate=aggregate, path=path, num_flows=num_flows)

    bundles = [
        build(0, "N0", "N4", ("N0", "N5", "N4"), 1, 1569165),
        build(1, "N5", "N4", ("N5", "N4"), 50, 10052),
        build(2, "N3", "N5", ("N3", "N2", "N1", "N0", "N5"), 31, 668979),
        build(3, "N0", "N3", ("N0", "N5", "N4", "N3"), 50, 1176799),
        build(4, "N5", "N4", ("N5", "N4"), 50, 10046),
        build(5, "N5", "N4", ("N5", "N4"), 46, 10008),
        build(6, "N5", "N0", ("N5", "N4", "N3", "N2", "N1", "N0"), 4, 922537),
        build(7, "N4", "N2", ("N4", "N3", "N2"), 50, 206609),
    ]
    small = evaluate_bundles(RING, bundles)
    large = evaluate_bundles(RING.with_scaled_capacity(2.5), bundles)
    light_before = small.outcomes[0].rate_bps
    light_after = large.outcomes[0].rate_bps
    assert light_after < light_before  # more capacity, lower rate — by design
    # The engines agree on the counterexample.
    from repro.trafficmodel.waterfill import reference_evaluate

    reference = reference_evaluate(RING, bundles)
    assert small.outcomes[0].rate_bps == pytest.approx(
        reference.outcomes[0].rate_bps, rel=1e-9
    )
