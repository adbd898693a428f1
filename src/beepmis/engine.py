"""Synchronous two-exchange round engine for beeping MIS protocols.

One round: every active node beeps independently with its policy probability
(first exchange, beeps heard by all neighbours the same round); a node that
beeped and heard nothing joins the independent set, and every active
neighbour of a joiner becomes inactive (second exchange); each surviving
active node then receives the policy update for what it heard.  Per-round,
per-node random draws are consumed in ascending node index over active nodes
only, which pins within-implementation determinism for a given seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Any

from .errors import InvalidParameter
from .graph import Graph

_MASK64 = (1 << 64) - 1


class NodeStatus(Enum):
    ACTIVE = "active"
    IN_MIS = "in_mis"
    INACTIVE_NEIGHBOUR = "inactive_neighbour"


@dataclass(frozen=True)
class RoundOutcome:
    """What happened in one round."""

    beeped: frozenset[int]
    joined_mis: frozenset[int]
    newly_inactive: frozenset[int]


@dataclass(frozen=True)
class RunResult:
    """Terminal state of a run.

    ``terminated`` is False when the round cap was hit with active nodes left;
    in that case ``mis`` holds the joins so far and is not necessarily maximal.
    """

    mis: frozenset[int]
    rounds: int
    beep_counts: tuple[int, ...]
    total_beeps: int
    terminated: bool
    trace: tuple[RoundOutcome, ...] | None = None


@dataclass
class SimState:
    """Mutable state of one run; confined to a single run, never shared."""

    round: int
    status: list[NodeStatus]
    beep_counts: list[int]
    active: list[int]
    policy: Any
    policy_state: Any
    masks: list[int]
    bits: list[int]


def default_max_rounds(node_count: int) -> int:
    """Round cap far above the observed quadratic-log ceiling: 64*ceil(log2(n+2))^2 + 64."""
    return 64 * (node_count + 1).bit_length() ** 2 + 64


def new_state(graph: Graph, policy) -> SimState:
    n = graph.node_count
    return SimState(
        round=0,
        status=[NodeStatus.ACTIVE] * n,
        beep_counts=[0] * n,
        active=list(range(n)),
        policy=policy,
        policy_state=policy.initial_state(n),
        masks=graph.adjacency_masks(),
        bits=[1 << v for v in range(n)],
    )


def step(state: SimState, graph: Graph, rng) -> RoundOutcome:
    """Execute one round in place and report its outcome.

    ``rng`` needs only a ``random()`` method returning floats in [0, 1).
    """
    policy = state.policy
    pstate = state.policy_state
    masks = state.masks
    bits = state.bits
    active = state.active

    beeped: list[int] = []
    beeped_mask = 0
    p_uniform = policy.uniform_probability(pstate)
    if p_uniform is None:
        beep_probability = policy.beep_probability
        for v in active:
            if rng.random() < beep_probability(pstate, v):
                beeped.append(v)
                beeped_mask |= bits[v]
    else:
        for v in active:
            if rng.random() < p_uniform:
                beeped.append(v)
                beeped_mask |= bits[v]

    counts = state.beep_counts
    for v in beeped:
        counts[v] += 1

    # A beeper joins exactly when none of its neighbours beeped this round.
    joined = [v for v in beeped if not masks[v] & beeped_mask]

    status = state.status
    newly_inactive = list(joined)
    for v in joined:
        status[v] = NodeStatus.IN_MIS
    adjacency = graph.adjacency
    for v in joined:
        for u in adjacency[v]:
            if status[u] is NodeStatus.ACTIVE:
                status[u] = NodeStatus.INACTIVE_NEIGHBOUR
                newly_inactive.append(u)

    if joined:
        active = [v for v in active if status[v] is NodeStatus.ACTIVE]
        state.active = active

    # Survivors only: nodes deactivated this round receive no policy update.
    if p_uniform is None:
        heard = [v for v in active if masks[v] & beeped_mask]
        silent = [v for v in active if not masks[v] & beeped_mask]
        policy.update(pstate, heard, silent)
    else:
        policy.end_round(pstate)
    state.round += 1

    return RoundOutcome(
        beeped=frozenset(beeped),
        joined_mis=frozenset(joined),
        newly_inactive=frozenset(newly_inactive),
    )


def run(graph: Graph, policy, seed: int, max_rounds: int | None = None,
        keep_trace: bool = False) -> RunResult:
    """Run the protocol to termination or the round cap.

    Deterministic in (graph, policy configuration, seed, max_rounds); the
    seed is taken as a 64-bit word.
    """
    if max_rounds is None:
        max_rounds = default_max_rounds(graph.node_count)
    if max_rounds < 1:
        raise InvalidParameter(f"max_rounds must be >= 1, got {max_rounds!r}")
    state = new_state(graph, policy)
    rng = random.Random(int(seed) & _MASK64)
    trace: list[RoundOutcome] | None = [] if keep_trace else None
    while state.active and state.round < max_rounds:
        outcome = step(state, graph, rng)
        if trace is not None:
            trace.append(outcome)
    mis = frozenset(v for v, s in enumerate(state.status) if s is NodeStatus.IN_MIS)
    return RunResult(
        mis=mis,
        rounds=state.round,
        beep_counts=tuple(state.beep_counts),
        total_beeps=sum(state.beep_counts),
        terminated=not state.active,
        trace=tuple(trace) if trace is not None else None,
    )


def neighbourhood_weight(state: SimState, graph: Graph, v: int) -> float:
    """Total current beep probability over the active neighbours of v.

    Inactive neighbours contribute 0.  Diagnostic only; the protocol itself
    never reads this quantity.
    """
    if not 0 <= v < graph.node_count:
        raise InvalidParameter(f"node {v} out of range for {graph.node_count} nodes")
    policy = state.policy
    pstate = state.policy_state
    status = state.status
    total = 0.0
    for u in graph.adjacency[v]:
        if status[u] is NodeStatus.ACTIVE:
            total += policy.beep_probability(pstate, u)
    return total
