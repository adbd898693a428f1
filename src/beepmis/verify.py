"""Independent correctness oracle for maximal independent sets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooLarge, as_node_ids
from .graph import Graph

_ENUMERATION_LIMIT = 20


@dataclass(frozen=True)
class VerifyReport:
    """Result of checking a candidate set: its two witnesses, each None when
    there is none.  ``witness_edge`` is an edge inside the candidate and
    ``witness_vertex`` a node outside it with no neighbour inside it.
    """

    witness_edge: tuple[int, int] | None = None
    witness_vertex: int | None = None

    @property
    def ok(self) -> bool:
        return self.witness_edge is None and self.witness_vertex is None


def check_mis(graph: Graph, candidate) -> VerifyReport:
    """Check independence and maximality of a candidate node set.

    Independence: no edge joins two candidate nodes.  Maximality: every node
    outside the candidate has a neighbour inside it.  Witnesses are the
    first violation in ascending node order.  Runs in O(n + m) over the CSR
    arrays.
    """
    n = graph.node_count
    members = np.zeros(n, dtype=bool)
    members[as_node_ids(candidate, "candidate node", n)] = True
    indptr, indices = graph.indptr, graph.indices
    # Entries in CSR order, (v, u) for v ascending and u ascending within a
    # row, so the first flagged entry is the first violation.
    in_member_row = np.repeat(members, graph.degree)
    inside = in_member_row & members[indices]
    witness_edge = None
    if inside.any():
        # The first such row has no member neighbour below it, so u > v.
        first = int(np.argmax(inside))
        witness_edge = (int(np.searchsorted(indptr, first, side="right")) - 1,
                        int(indices[first]))
    dominated = members.copy()
    dominated[indices[in_member_row]] = True
    witness_vertex = None if dominated.all() else int(np.argmin(dominated))
    return VerifyReport(witness_edge, witness_vertex)


def enumerate_mis(graph: Graph) -> list[tuple[int, ...]]:
    """All maximal independent sets of a small graph, by exhaustive 2^n scan.

    Returns sorted tuples in lexicographic order.  Deliberately naive: this
    is the oracle the simulator is checked against, so simplicity beats
    cleverness.  Guarded at 20 nodes.
    """
    n = graph.node_count
    if n > _ENUMERATION_LIMIT:
        raise TooLarge(f"enumeration limited to {_ENUMERATION_LIMIT} nodes, got {n}")
    nbr_masks = graph.adjacency_masks()
    full = (1 << n) - 1
    found = []
    for subset in range(1 << n):
        covered = subset
        independent = True
        bits = subset
        while bits:
            low = bits & -bits
            v = low.bit_length() - 1
            if nbr_masks[v] & subset:
                independent = False
                break
            covered |= nbr_masks[v]
            bits ^= low
        if independent and covered == full:
            found.append(tuple(v for v in range(n) if subset >> v & 1))
    found.sort()
    return found
