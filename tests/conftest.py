"""Shared test helpers: stub RNG, graph strategies, trace replay checker."""

from enum import Enum
from itertools import combinations

from hypothesis import strategies as st

from beepmis import Graph, check_mis


class NodeStatus(Enum):
    ACTIVE = "active"
    IN_MIS = "in_mis"
    INACTIVE_NEIGHBOUR = "inactive_neighbour"


class StubRNG:
    """Feeds a fixed sequence of draws to the engine; draws below the node's
    probability produce a beep, so 0.0 forces a beep and 0.999 forces silence."""

    def __init__(self, values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)


BEEP = 0.0
SILENT = 0.999


@st.composite
def small_graphs(draw, max_nodes=10):
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    pairs = list(combinations(range(n), 2))
    if not pairs:
        return Graph(n)
    edges = draw(st.sets(st.sampled_from(pairs)))
    return Graph(n, edges)


def replay_check(graph, result):
    """Re-derive every round's consequences from the beeped sets alone and
    assert the recorded trace and terminal state agree."""
    n = graph.node_count
    status = [NodeStatus.ACTIVE] * n
    counts = [0] * n
    for outcome in result.trace:
        beeped = set(outcome.beeped)
        # inactive nodes never beep
        assert all(status[v] is NodeStatus.ACTIVE for v in beeped)
        # join rule: beeped and heard nothing
        joined = {v for v in beeped if not any(u in beeped for u in graph.neighbours(v))}
        assert joined == set(outcome.joined_mis)
        assert joined <= beeped
        # impossibility: a beeper that heard a beep has no joining neighbour
        for v in beeped - joined:
            assert not any(u in joined for u in graph.neighbours(v))
        expected_inactive = set(joined)
        for j in joined:
            for u in graph.neighbours(j):
                if status[u] is NodeStatus.ACTIVE and u not in joined:
                    expected_inactive.add(u)
        assert expected_inactive == set(outcome.newly_inactive)
        for v in joined:
            status[v] = NodeStatus.IN_MIS
        for v in expected_inactive - joined:
            assert status[v] is NodeStatus.ACTIVE  # deactivated exactly once
            status[v] = NodeStatus.INACTIVE_NEIGHBOUR
        for v in beeped:
            counts[v] += 1
    assert counts == list(result.beep_counts)
    assert result.total_beeps == sum(counts)
    mis = {v for v in range(n) if status[v] is NodeStatus.IN_MIS}
    assert mis == set(result.mis)
    assert result.rounds == len(result.trace)
    if result.terminated:
        assert all(s is not NodeStatus.ACTIVE for s in status)
        assert check_mis(graph, result.mis).ok
