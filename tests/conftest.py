"""Shared test helpers: scripted rounds, graph strategies, trace replay checker."""

from enum import Enum
from itertools import combinations

import numpy as np
from hypothesis import settings, strategies as st

from beepmis import Graph, check_mis, engine

# CI runs the suite with --hypothesis-profile=ci: five times the default
# example budget, so that a strategy drawing invalid inputs fails the change
# that adds it.  Local runs keep the default profile.
settings.register_profile("ci", max_examples=500)


class NodeStatus(Enum):
    ACTIVE = "active"
    IN_MIS = "in_mis"
    INACTIVE_NEIGHBOUR = "inactive_neighbour"


def scripted_round(state, graph, draws):
    """Run one engine round on ``state`` with a fixed sequence of draws and
    return its outcome; draws below the node's probability produce a beep, so
    0.0 forces a beep and 0.999 forces silence."""
    script = list(draws)

    def draw(k):
        assert k <= len(script), "the round drew more values than scripted"
        batch = np.array(script[:k], dtype=float)
        del script[:k]
        return batch

    before = state.active
    beeped, joined = engine._round(state, graph, draw)
    return engine._outcome(beeped, joined, before, state.status)


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
