"""Synchronous two-exchange round engine for beeping MIS protocols.

:func:`run` is the only entry point.  A node is active (competing), joined
(in the independent set) or dominated (a neighbour joined).  One round: every
active node beeps independently with its policy probability (first exchange,
beeps heard by all neighbours the same round); a node that beeped and heard
nothing joins, and every active neighbour of a joiner becomes dominated
(second exchange); every node active in the round receives the policy update
for what it heard, which only the nodes that stay active ever read.
Per-round, per-node random draws are consumed in ascending node index over
active nodes only, which pins within-implementation determinism for a given
seed; a round's doubles come in one batch from the very stream of
``random.Random(seed)`` (see :func:`_batched_draws`).

Node state is held in numpy arrays over the graph's CSR rows.  The heard
test needs an answer for the beepers under a schedule (the join test) and
for every active node under local feedback (its adjustment).  It either
marks the beepers' whole rows (top-down) or lets each node that needs an
answer read a window at the start of its own row, all windows in one 2-D
gather, and the rest of the row only when the window held no beeper, all
rests in one segmented OR (bottom-up), whichever reads fewer entries; see
:func:`_heard`; bottom-up clips no window when every row outlasts it.
With no beeper, :func:`_heard` runs neither kernel, the engine's one
no-beeper exit: after its draws only the policy update and the round
count move.  The only other rows a round reads are its joiners'.  Every
node joins at most once and, under local feedback, beeps O(1) times in
expectation, so a feedback run reads O(n + m) adjacency in expectation.
A schedule's rounds with many beepers read mostly windows: a sweep run on
G(512, 1/2) reads about as many entries as the graph holds.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import as_int
from .graph import Graph
from .policy import LocalFeedback
from .seeding import seed_word

_ACTIVE, _JOINED, _DOMINATED = 0, 1, 2  # node status codes; zeros start a run


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
class _State:
    """Mutable state of one run; confined to a single run, never shared.

    ``status`` holds each node's state, ``_ACTIVE``, ``_JOINED`` or
    ``_DOMINATED``; ``active`` lists the ``_ACTIVE`` nodes in increasing
    order and ``beep_counts`` per-node counters.
    """

    round: int
    active: np.ndarray
    status: np.ndarray
    beep_counts: np.ndarray
    policy: Any
    policy_state: Any


def default_max_rounds(node_count: int) -> int:
    """Round cap far above the observed quadratic-log ceiling: 64*ceil(log2(n+2))^2 + 64."""
    return 64 * (as_int(node_count, "node_count", 0) + 1).bit_length() ** 2 + 64


def _new_state(graph: Graph, policy) -> _State:
    n = graph.node_count
    return _State(
        round=0,
        active=np.arange(n),
        status=np.zeros(n, dtype=np.int8),
        beep_counts=np.zeros(n, dtype=np.int64),
        policy=policy,
        policy_state=policy.initial_state(n),
    )


def _row_entries(graph: Graph, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``indices[starts[k]:starts[k] + lengths[k]]`` for every k, concatenated.

    Every adjacency read of a round goes through here, except the first
    windows of a bottom-up heard test.
    """
    ends = lengths.cumsum()
    # Position i of the result lies in slice k at offset i - (ends[k] - lengths[k]).
    offsets = (starts - ends + lengths).repeat(lengths)
    offsets += np.arange(offsets.size)
    return graph.indices[offsets]


def _heard(graph: Graph, beeped: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Flags, aligned with ``queries``, of the query nodes with a beeping neighbour.

    Top-down marks the beepers' rows, sum(deg(beeped)) entries.  Bottom-up
    lets each query scan its own row: first a window long enough to hold
    about four beepers if they were spread evenly over the nodes, then the
    rest of the rows whose window held none, ORed per row by
    ``np.logical_or.reduceat``.  Bottom-up is taken when its
    windows, at most ``queries.size * window`` entries, read fewer entries
    than top-down; both give the same flags.  With no beeper every flag is
    False and neither kernel runs.
    """
    if not beeped.size:
        return np.zeros(queries.size, dtype=bool)
    beeper_degrees = graph.degree[beeped]
    window = -(-4 * graph.node_count // beeped.size)
    if queries.size * window < np.add.reduce(beeper_degrees):
        return _heard_bottom_up(graph, beeped, queries, window)
    return _heard_top_down(graph, beeped, beeper_degrees, queries)


def _heard_top_down(graph: Graph, beeped: np.ndarray, beeper_degrees: np.ndarray,
                    queries: np.ndarray) -> np.ndarray:
    marked = np.zeros(graph.node_count, dtype=bool)
    marked[_row_entries(graph, graph.indptr[beeped], beeper_degrees)] = True
    return marked[queries]


def _heard_bottom_up(graph: Graph, beeped: np.ndarray, queries: np.ndarray, window: int) -> np.ndarray:
    """The graph needs at least one edge; :func:`_heard` takes this path
    only when some beeper has a neighbour."""
    is_beeper = np.zeros(graph.node_count, dtype=bool)
    is_beeper[beeped] = True
    starts = graph.indptr[queries]
    degrees = graph.degree[queries]
    # Every first window as one (window, queries) gather, window-major so that
    # each numpy inner loop runs over all queries.  If every row outlasts the
    # window, no offset needs a clip and every unheard row has a rest.  Else
    # offsets are clipped to the row's length, so a shorter row repeats its last
    # entry; an empty row reads the entry before its start (``indices[-1]`` for
    # node 0), another row's, which the degree mask discards.
    if degrees.size and np.minimum.reduce(degrees) > window:
        heard = np.logical_or.reduce(is_beeper[graph.indices[np.arange(window)[:, None] + starts]], axis=0)
        rest = (~heard).nonzero()[0]
    else:
        columns = np.minimum(np.arange(window)[:, None], degrees - 1)
        columns += starts
        heard = np.logical_or.reduce(is_beeper[graph.indices[columns]], axis=0)
        heard &= degrees > 0
        rest = (~heard & (degrees > window)).nonzero()[0]
    # The rest of the rows, one segmented OR over their concatenation: as one
    # 2-D gather it would be as wide as the longest row, which has no bound on
    # a hub.  A rest row is longer than the window, so every segment holds an
    # entry, the one condition reduceat needs to OR exactly its own segment.
    if rest.size:
        lengths = degrees[rest] - window
        firsts = lengths.cumsum() - lengths
        heard[rest] = np.logical_or.reduceat(
            is_beeper[_row_entries(graph, starts[rest] + window, lengths)], firsts)
    return heard


# One generator per thread, reseeded by every run: concurrent runs in
# different threads never share a stream.
_generators = threading.local()


def _batched_draws(seed: int) -> Callable[[int], np.ndarray]:
    """k -> the next k doubles of ``random.Random(seed_word(seed)).random()``.

    CPython and numpy share the MT19937 generator, its ``init_by_array``
    seeding and the 53-bit ``genrand_res53`` conversion.  CPython seeds from
    the 32-bit words of the integer, least significant first, at least one;
    numpy's legacy seeding takes the same key when given a list (a single
    integer would go through ``init_genrand`` instead).  The calling thread's
    generator is reseeded in place, so the returned callable is valid until
    the next ``_batched_draws`` call in the same thread.
    """
    masked = seed_word(seed)
    words = [(masked >> shift) & 0xFFFF_FFFF for shift in range(0, max(masked.bit_length(), 1), 32)]
    rs = getattr(_generators, "rs", None)
    if rs is None:
        # Built from a fixed seed, which keeps OS entropy out of the path.
        rs = _generators.rs = np.random.RandomState(np.random.MT19937(0))
    rs.seed(words)
    return rs.random_sample


def _round(state: _State, graph: Graph,
           draw: Callable[[int], np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """One round in place; ``draw(k)`` gives the next k uniform doubles.
    Returns the beepers and the joiners."""
    policy = state.policy
    pstate = state.policy_state
    active = state.active

    per_node = isinstance(policy, LocalFeedback)
    p = pstate[active] if per_node else policy.uniform_probability(pstate)
    # One draw per active node in ascending node order, the stream a per-node
    # loop would draw.
    beeps = draw(active.size) < p
    beeped = active[beeps]
    state.beep_counts[beeped] += 1
    # A schedule reads heard only for the join test, local feedback for
    # every active node's adjustment.
    heard = _heard(graph, beeped, active if per_node else beeped)
    # A beeper joins exactly when none of its neighbours beeped this round.
    joined = beeped[~heard[beeps]] if per_node else beeped[~heard]
    # The whole slice is adjusted: a node that leaves this round is never
    # read again, so its probability does not matter.
    if per_node:
        pstate[active] = policy.adjust(p, heard)
    else:
        policy.end_round(pstate)
    if joined.size:
        # A joiner's row holds no joiner of any round: no status leaves _JOINED.
        state.status[_row_entries(graph, graph.indptr[joined], graph.degree[joined])] = _DOMINATED
        state.status[joined] = _JOINED
        state.active = active[state.status[active] == _ACTIVE]
    state.round += 1
    return beeped, joined


def _outcome(beeped: np.ndarray, joined: np.ndarray, before: np.ndarray,
             status: np.ndarray) -> RoundOutcome:
    """The round's trace entry; ``before`` held the active nodes as it began."""
    return RoundOutcome(
        beeped=frozenset(beeped.tolist()),
        joined_mis=frozenset(joined.tolist()),
        newly_inactive=frozenset(before[status[before] != _ACTIVE].tolist()),
    )


def run(graph: Graph, policy, seed: int, max_rounds: int | None = None,
        keep_trace: bool = False) -> RunResult:
    """Run the protocol to termination or the round cap.

    Deterministic in (graph, policy configuration, seed, max_rounds); the
    seed must be an integer, and is taken as a 64-bit word.
    """
    if max_rounds is None:
        max_rounds = default_max_rounds(graph.node_count)
    max_rounds = as_int(max_rounds, "max_rounds", 1)
    state = _new_state(graph, policy)
    draw = _batched_draws(seed)
    trace: list[RoundOutcome] | None = [] if keep_trace else None
    while state.active.size and state.round < max_rounds:
        before = state.active
        beeped, joined = _round(state, graph, draw)
        if trace is not None:
            trace.append(_outcome(beeped, joined, before, state.status))
    beep_counts = state.beep_counts.tolist()
    return RunResult(
        mis=frozenset(np.flatnonzero(state.status == _JOINED).tolist()),
        rounds=state.round,
        beep_counts=tuple(beep_counts),
        total_beeps=sum(beep_counts),
        terminated=not state.active.size,
        trace=tuple(trace) if trace is not None else None,
    )
