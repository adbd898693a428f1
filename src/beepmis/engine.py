"""Synchronous two-exchange round engine for beeping MIS protocols.

One round: every active node beeps independently with its policy probability
(first exchange, beeps heard by all neighbours the same round); a node that
beeped and heard nothing joins the independent set, and every active
neighbour of a joiner becomes inactive (second exchange); each surviving
active node then receives the policy update for what it heard.  Per-round,
per-node random draws are consumed in ascending node index over active nodes
only, which pins within-implementation determinism for a given seed.

Node state is held in numpy arrays over the graph's CSR rows.  A round reads
only the rows of that round's beepers and joiners; every node joins at most
once and, under local feedback, beeps O(1) times in expectation, so a run
reads O(n + m) adjacency in expectation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import InvalidParameter
from .graph import Graph

_MASK64 = (1 << 64) - 1


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
    """Mutable state of one run; confined to a single run, never shared.

    ``active`` lists the active nodes in increasing order; ``alive`` and
    ``in_mis`` are per-node flags, ``beep_counts`` per-node counters.
    """

    round: int
    active: np.ndarray
    alive: np.ndarray
    in_mis: np.ndarray
    beep_counts: np.ndarray
    policy: Any
    policy_state: Any


def default_max_rounds(node_count: int) -> int:
    """Round cap far above the observed quadratic-log ceiling: 64*ceil(log2(n+2))^2 + 64."""
    return 64 * (node_count + 1).bit_length() ** 2 + 64


def new_state(graph: Graph, policy) -> SimState:
    n = graph.node_count
    return SimState(
        round=0,
        active=np.arange(n),
        alive=np.ones(n, dtype=bool),
        in_mis=np.zeros(n, dtype=bool),
        beep_counts=np.zeros(n, dtype=np.int64),
        policy=policy,
        policy_state=policy.initial_state(n),
    )


def _neighbours_of(graph: Graph, nodes: np.ndarray) -> np.ndarray:
    """The concatenated CSR rows of ``nodes``, repeats kept."""
    indptr = graph.indptr
    starts = indptr[nodes]
    lengths = indptr[nodes + 1] - starts
    ends = np.cumsum(lengths)
    # Position i of the result lies in row k at offset i - (ends[k] - lengths[k]).
    offsets = np.repeat(starts - ends + lengths, lengths)
    return graph.indices[offsets + np.arange(offsets.size)]


def step(state: SimState, graph: Graph, rng) -> RoundOutcome:
    """Execute one round in place and report its outcome.

    ``rng`` needs only a ``random()`` method returning floats in [0, 1).
    """
    return _outcome(*_round(state, graph, rng))


def _round(state: SimState, graph: Graph, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One round in place; returns the beepers, the joiners and the joiners'
    neighbours that were active until this round."""
    policy = state.policy
    pstate = state.policy_state
    active = state.active

    p_uniform = policy.uniform_probability(pstate)
    p = policy.beep_probability(pstate, active) if p_uniform is None else p_uniform
    # One rng.random() per active node in ascending node order, the stream a
    # per-node loop would draw.
    draws = np.fromiter(iter(rng.random, None), dtype=float, count=active.size)
    beeped = active[draws < p]
    state.beep_counts[beeped] += 1

    heard = np.zeros(graph.node_count, dtype=bool)
    heard[_neighbours_of(graph, beeped)] = True
    # A beeper joins exactly when none of its neighbours beeped this round.
    joined = beeped[~heard[beeped]]
    state.in_mis[joined] = True

    alive = state.alive
    # Joiners are never adjacent, so a joiner is not among these neighbours.
    dropped = _neighbours_of(graph, joined)
    dropped = dropped[alive[dropped]]
    alive[joined] = False
    alive[dropped] = False
    if joined.size:
        active = active[alive[active]]
        state.active = active

    # Survivors only: nodes deactivated this round receive no policy update.
    if p_uniform is None:
        heard_active = heard[active]
        policy.update(pstate, active[heard_active], active[~heard_active])
    else:
        policy.end_round(pstate)
    state.round += 1
    return beeped, joined, dropped


def _outcome(beeped: np.ndarray, joined: np.ndarray, dropped: np.ndarray) -> RoundOutcome:
    joined_list = joined.tolist()
    return RoundOutcome(
        beeped=frozenset(beeped.tolist()),
        joined_mis=frozenset(joined_list),
        newly_inactive=frozenset(joined_list + dropped.tolist()),
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
    while state.active.size and state.round < max_rounds:
        arrays = _round(state, graph, rng)
        if trace is not None:
            trace.append(_outcome(*arrays))
    beep_counts = state.beep_counts.tolist()
    return RunResult(
        mis=frozenset(np.flatnonzero(state.in_mis).tolist()),
        rounds=state.round,
        beep_counts=tuple(beep_counts),
        total_beeps=sum(beep_counts),
        terminated=not state.active.size,
        trace=tuple(trace) if trace is not None else None,
    )


def neighbourhood_weight(state: SimState, graph: Graph, v: int) -> float:
    """Total current beep probability over the active neighbours of v.

    Inactive neighbours contribute 0.  Diagnostic only; the protocol itself
    never reads this quantity.
    """
    nbrs = np.array(graph.neighbours(v), dtype=np.int64)
    nbrs = nbrs[state.alive[nbrs]]
    p = state.policy.beep_probability(state.policy_state, nbrs)
    return sum(np.broadcast_to(p, nbrs.shape).tolist(), 0.0)
