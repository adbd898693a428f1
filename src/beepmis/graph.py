"""Immutable undirected simple graphs, deterministic generators, edge-list text I/O.

Nodes are dense indices 0..n-1 with no labels; the protocols simulated on top
of these graphs are anonymous, so nothing else is needed.  A graph is held in
compressed sparse row (CSR) form only: the neighbours of v are
``indices[indptr[v]:indptr[v + 1]]``, so memory is linear in n + m.  The
edge-list text format (see :func:`parse_edge_list`) is the single
interchange format.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable

import numpy as np

from .errors import (InvalidParameter, ParseError, TooLarge, as_int, as_node_ids, as_real, parse_decimal,
                     text_fields, text_lines)
from .seeding import seed_word

# Most cells a graph build may allocate: one per node, one per edge
# orientation, or one per node pair for the dense builders (G(n, p) and
# cliques).  16 times the largest input in
# use (path:1000000, and G(n, p) at n = 1024, both about 2^20 cells), so a
# mistyped size or file header fails with TooLarge before it exhausts memory.
_CELL_BUDGET = 1 << 24


def _check_cells(cells: int, what: str) -> None:
    if cells > _CELL_BUDGET:
        raise TooLarge(f"{what}: {cells} cells, over the budget of {_CELL_BUDGET}")


def _owned(array: np.ndarray) -> np.ndarray:
    """array, or a copy of it if the end of its base chain is a writeable non-ndarray buffer."""
    root = array
    while isinstance(root, np.ndarray):
        root = root.base
    try:
        foreign = root is not None and not memoryview(root).readonly
    except TypeError:  # no buffer protocol: nothing to tell that it is read-only
        foreign = True
    return array.copy() if foreign else array


class Graph:
    """Undirected simple graph stored as read-only CSR int64 arrays.

    ``degree`` holds the row lengths, ``np.diff(indptr)``, derived once at
    construction.  Invariants (checked by :func:`validate_graph`): ``indptr``
    starts at 0, never decreases and ends at ``len(indices)``; every row of
    ``indices`` is strictly increasing, in range and free of self-loops; and
    the adjacency is symmetric.  Instances are immutable and therefore safe
    to share across concurrently executing simulation runs; pickled and
    deep-copied instances are read-only too.
    """

    __slots__ = ("_indptr", "_indices", "_degree")

    def __init__(self, node_count: int, edges: Iterable[tuple[int, int]] = ()):
        node_count = as_int(node_count, "node_count", 0)
        _check_cells(node_count, f"graph on {node_count} nodes")
        # Anything but (u, v) integer pairs is refused, not truncated or regrouped.
        pairs = as_node_ids(edges, "edge endpoint", node_count)
        if pairs.size and pairs.shape[1:] != (2,):
            raise InvalidParameter("edges must be (u, v) pairs of integers")
        pairs = pairs.reshape(-1, 2)
        _check_cells(2 * len(pairs), f"graph with {len(pairs)} edges")
        loops = pairs[pairs[:, 0] == pairs[:, 1]].tolist()
        if loops:
            raise InvalidParameter(f"self-loop ({loops[0][0]}, {loops[0][1]}) not allowed")
        # Both orientations of every edge, sorted by (row, column), duplicates
        # dropped (a sort and a neighbour mask: np.unique hashes, many times slower).
        keys = np.sort(np.concatenate([pairs[:, 0] * node_count + pairs[:, 1],
                                       pairs[:, 1] * node_count + pairs[:, 0]]))
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        keys = keys[first]
        rows, indices = np.divmod(keys, max(node_count, 1))
        indptr = np.searchsorted(rows, np.arange(node_count + 1))
        self._set_csr(indptr, indices)

    @classmethod
    def from_csr(cls, indptr, indices) -> "Graph":
        """Wrap CSR arrays as a Graph without checking them.

        The fast path for generators that build valid arrays directly;
        :func:`validate_graph` checks the invariants of the result.  The
        arrays are frozen in place, not copied, together with every array
        they view, so no reference the caller keeps can move a row; an array
        over a writeable buffer that is not an ndarray (a bytearray, a
        writable memoryview, an mmap) cannot be frozen and is copied.
        """
        g = object.__new__(cls)
        g._set_csr(indptr, indices)
        return g

    def _set_csr(self, indptr, indices) -> None:
        self._indptr, self._indices = (_owned(np.asarray(a, dtype=np.int64)) for a in (indptr, indices))
        self._degree = np.diff(self._indptr)
        for array in (self._indptr, self._indices, self._degree):
            while isinstance(array, np.ndarray):
                array.setflags(write=False)
                array = array.base

    def __reduce__(self):
        # Copies and unpickled graphs are rebuilt, and so frozen, by from_csr.
        return Graph.from_csr, (self._indptr, self._indices)

    @property
    def node_count(self) -> int:
        return len(self._indptr) - 1

    @property
    def edge_count(self) -> int:
        return len(self._indices) // 2

    @property
    def indptr(self) -> np.ndarray:
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        return self._indices

    @property
    def degree(self) -> np.ndarray:
        return self._degree

    def neighbours(self, v: int) -> tuple[int, ...]:
        """The neighbours of v in increasing order, as Python ints."""
        v, indptr = as_int(v, "node"), self._indptr
        if not 0 <= v < len(indptr) - 1:
            raise InvalidParameter(f"node {v} out of range for {self.node_count} nodes")
        return tuple(self._indices[indptr[v]:indptr[v + 1]].tolist())

    def adjacency_masks(self) -> list[int]:
        """Per-node neighbour sets as little-endian bitmask integers.

        Quadratic in n; meant for exhaustive work on tiny graphs only.
        """
        return [sum(1 << u for u in self.neighbours(v)) for v in range(self.node_count)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (np.array_equal(self._indptr, other._indptr)
                and np.array_equal(self._indices, other._indices))

    def __repr__(self) -> str:
        return f"Graph(node_count={self.node_count}, edge_count={self.edge_count})"


def validate_graph(g: Graph) -> None:
    """Raise InvalidParameter unless g satisfies all structural invariants."""
    indptr, indices, degree = g.indptr, g.indices, g.degree
    n = g.node_count
    if (n < 0 or indptr[0] != 0 or indptr[-1] != len(indices) or (degree < 0).any()
            or not np.array_equal(np.cumsum(degree), indptr[1:])):
        raise InvalidParameter("indptr must start at 0, never decrease, end at len(indices) and match degree")
    if ((indices < 0) | (indices >= n)).any():
        raise InvalidParameter("neighbour index out of range")
    rows = np.repeat(np.arange(n), degree)
    if (rows == indices).any():
        raise InvalidParameter(f"self-loop at node {int(rows[np.argmax(rows == indices)])}")
    same_row = rows[1:] == rows[:-1]
    if (same_row & (indices[1:] <= indices[:-1])).any():
        raise InvalidParameter("a neighbour row is not strictly increasing")
    # Rows are sorted, so the (row, column) keys are too; symmetry means the
    # (column, row) keys are the same set.
    if not np.array_equal(np.sort(indices * n + rows), rows * n + indices):
        raise InvalidParameter("adjacency is not symmetric")


def _cliques(sizes: range, copies: int = 1) -> Graph:
    """Disjoint union of ``copies`` complete graphs on d nodes for each d in sizes.

    Blocks are laid out d ascending, the copies of one size next to each other.
    """
    def squares(x):  # 1 + 4 + ... + x * x, the cells of one copy of each K_1..K_x
        return x * (x + 1) * (2 * x + 1) // 6

    _check_cells(copies * (squares(sizes[-1]) - squares(sizes[0] - 1)),
                 f"cliques of {sizes[0]} to {sizes[-1]} nodes, {copies} of each")
    sizes = np.repeat(np.arange(sizes.start, sizes.stop, dtype=np.int64), copies)
    start = np.repeat(np.cumsum(sizes) - sizes, sizes)  # first node of each node's block
    local = np.arange(len(start)) - start
    degree = np.repeat(sizes, sizes) - 1
    indptr = np.concatenate([[0], np.cumsum(degree)])
    # Entry j of a row, j = 0..d-2, is the block's j-th node, skipping the row's own node.
    j = np.arange(indptr[-1]) - np.repeat(indptr[:-1], degree)
    indices = np.repeat(start, degree) + j + (j >= np.repeat(local, degree))
    return Graph.from_csr(indptr, indices)


def complete_graph(d: int) -> Graph:
    """Complete graph on d nodes (every pair adjacent)."""
    d = as_int(d, "complete_graph d", 1)
    return _cliques(range(d, d + 1))


def clique_family(m: int) -> Graph:
    """Disjoint union of m copies of the complete graph on d nodes, for every d in 1..m.

    Blocks are laid out consecutively, d ascending and copy index ascending,
    giving m*m components and m*m*(m+1)/2 nodes in total.
    """
    m = as_int(m, "clique_family m", 1)
    return _cliques(range(1, m + 1), m)


@functools.lru_cache(maxsize=1)
def _upper_triangle(n: int) -> np.ndarray:
    """Read-only n x n mask of the pairs u < v.  Batches build every graph of
    one size before the next, so one cached size serves them; the cache holds
    at most one mask, 16 MiB at the cell budget."""
    nodes = np.arange(n)
    mask = nodes[:, None] < nodes
    mask.setflags(write=False)
    return mask


def erdos_renyi(n: int, p_edge: float, seed: int) -> Graph:
    """G(n, p) random graph, reproducible for equal (n, p_edge, seed).

    Each unordered pair is included independently with probability p_edge.
    Pairs are drawn in lexicographic order (0,1), (0,2), ..., (n-2,n-1) from
    the raw words of a PCG64 stream seeded with the 64-bit seed, so the
    adjacency is a pure function of the arguments.  A pair is present when
    its word's top 53 bits are below ceil(p_edge * 2^53): exactly
    ``Generator.random() < p_edge``, but with no Generator method, whose
    stream numpy does not promise to keep.
    """
    n, p_edge = as_int(n, "erdos_renyi n", 1), as_real(p_edge, "p_edge")
    if not 0.0 <= p_edge <= 1.0:
        raise InvalidParameter(f"p_edge must be in [0, 1], got {p_edge!r}")
    _check_cells(n * n, f"G(n, p) on {n} nodes")
    words = np.random.PCG64(seed_word(seed)).random_raw(n * (n - 1) // 2)
    words >>= 11
    # The dense upper triangle, filled row by row in draw order, then
    # mirrored; its nonzero positions in row-major order are CSR order.
    adjacent = np.zeros((n, n), dtype=bool)
    adjacent[_upper_triangle(n)] = words < math.ceil(p_edge * 2**53)
    # Large temporaries cost page faults on fresh memory, so the words are
    # freed before the result is allocated and the columns are computed in
    # place: in a batch of G(512, 1/2) builds and runs, holding the words
    # and subtracting a repeated row-offset array took about 800 page
    # faults per build against 260 this way.
    del words
    adjacent |= adjacent.T
    flat = np.flatnonzero(adjacent)
    indptr = np.searchsorted(flat, np.arange(n + 1) * n)
    flat %= n  # position row * n + column becomes the column
    return Graph.from_csr(indptr, flat)


def grid_graph(rows: int, cols: int) -> Graph:
    """Rectangular grid: node (r, c) at index r*cols + c, 4-neighbour adjacency."""
    rows, cols = as_int(rows, "grid_graph rows", 1), as_int(cols, "grid_graph cols", 1)
    _check_cells(rows * cols, f"{rows}x{cols} grid")
    v = np.arange(rows * cols)
    r, c = np.divmod(v, cols)
    # Up, left, right, down: increasing node order within each row.
    candidates = np.stack([v - cols, v - 1, v + 1, v + cols], axis=1)
    present = np.stack([r > 0, c > 0, c < cols - 1, r < rows - 1], axis=1)
    indptr = np.concatenate([[0], np.cumsum(present.sum(axis=1))])
    return Graph.from_csr(indptr, candidates[present])


def path_graph(n: int) -> Graph:
    """Path 0 - 1 - ... - (n-1)."""
    return grid_graph(1, as_int(n, "path_graph n", 1))


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list interchange format into a Graph.

    Format: first line ``n m``, then exactly m lines ``u v`` with
    0 <= u, v < n and u != v; lines end in LF (CRLF is read too), fields are
    separated by ASCII spaces or tabs.  Duplicate edges (in either
    orientation), self-loops, out-of-range indices and malformed lines are
    rejected with a ParseError carrying the offending line number.
    """
    lines = text_lines(text)
    if not lines:
        raise ParseError("empty input, expected header 'n m'", line=1)
    header = text_fields(lines[0])
    if len(header) != 2:
        raise ParseError(f"expected header 'n m', got {lines[0]!r}", line=1)
    try:
        n, m = parse_decimal(header[0]), parse_decimal(header[1])
    except ValueError:
        raise ParseError(f"header fields must be integers, got {lines[0]!r}", line=1) from None
    if n < 0 or m < 0:
        raise ParseError(f"header fields must be nonnegative, got {lines[0]!r}", line=1)
    _check_cells(n, f"graph on {n} nodes")
    _check_cells(2 * m, f"edge list of {m} edges")
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}", line=len(lines))
    seen: set[tuple[int, int]] = set()
    for i, raw in enumerate(lines[1:], start=2):
        fields = text_fields(raw)
        if len(fields) != 2:
            raise ParseError(f"expected 'u v', got {raw!r}", line=i)
        try:
            u, v = parse_decimal(fields[0]), parse_decimal(fields[1])
        except ValueError:
            raise ParseError(f"edge endpoints must be integers, got {raw!r}", line=i) from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge ({u}, {v}) out of range for {n} nodes", line=i)
        if u == v:
            raise ParseError(f"self-loop ({u}, {v}) not allowed", line=i)
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ParseError(f"duplicate edge ({u}, {v})", line=i)
        seen.add(key)
    return Graph(n, np.array(list(seen), dtype=np.int64))  # Graph sorts its edges


def write_edge_list(g: Graph) -> str:
    """Serialize a Graph to the edge-list format; inverse of parse_edge_list.

    Edges are written with u < v in lexicographic order, ASCII decimal, LF
    line endings, so equal graphs serialize to identical bytes.
    """
    # CSR order is (row, column) order, so the entries whose row is below
    # their column are the edges u < v in lexicographic order.
    rows = np.repeat(np.arange(g.node_count), g.degree)
    upper = rows < g.indices
    return "\n".join([f"{g.node_count} {g.edge_count}",
                      *map("{} {}".format, rows[upper].tolist(), g.indices[upper].tolist()), ""])
