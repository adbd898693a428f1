"""Deliberately naive reference engine, the differential oracle for ``run``.

Written from the protocol description, not from the production engine: plain
Python sets, one ``rng.random()`` per active node per round in ascending
node order, the feedback rule applied here rather than by the policy, and
schedules read through ``policy.at(step)``.  It reads the graph only through
``node_count`` and ``neighbours(v)``.
"""

import random

from beepmis import LocalFeedback, RoundOutcome, RunResult, default_max_rounds

FLOOR = 2.0 ** -64  # the feedback rule's lower clamp, for every factor


def reference_run(graph, policy, seed, max_rounds=None):
    n = graph.node_count
    if max_rounds is None:
        max_rounds = default_max_rounds(n)
    nbrs = [set(graph.neighbours(v)) for v in range(n)]
    feedback = isinstance(policy, LocalFeedback)
    prob = [policy.initial] * n if feedback else None
    rng = random.Random(seed & (2**64 - 1))
    active = set(range(n))
    mis = set()
    counts = [0] * n
    trace = []
    rounds = 0
    while active and rounds < max_rounds:
        rounds += 1
        beeped = set()
        for v in sorted(active):
            p = prob[v] if feedback else policy.at(rounds)
            if rng.random() < p:
                beeped.add(v)
        joined = {v for v in beeped if not nbrs[v] & beeped}
        dropped = set(joined)
        for v in joined:
            dropped |= nbrs[v] & active
        for v in beeped:
            counts[v] += 1
        mis |= joined
        active -= dropped
        if feedback:
            for v in active:
                if nbrs[v] & beeped:
                    prob[v] = max(prob[v] / policy.factor, FLOOR)
                else:
                    prob[v] = min(prob[v] * policy.factor, policy.cap)
        trace.append(RoundOutcome(frozenset(beeped), frozenset(joined), frozenset(dropped)))
    return RunResult(
        mis=frozenset(mis),
        rounds=rounds,
        beep_counts=tuple(counts),
        total_beeps=sum(counts),
        terminated=not active,
        trace=tuple(trace),
    )
