import copy
import math
import mmap
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import beepmis.graph as graph_module
from beepmis import (
    Graph,
    InvalidParameter,
    ParseError,
    TooLarge,
    clique_family,
    complete_graph,
    erdos_renyi,
    grid_graph,
    parse_edge_list,
    path_graph,
    validate_graph,
    write_edge_list,
)
from beepmis.errors import read_text

from conftest import small_graphs
from reference_graph import reference_erdos_renyi


def anonymous_mmap(data: bytes) -> mmap.mmap:
    m = mmap.mmap(-1, len(data))
    m[:] = data
    return m


def count_components(g):
    # independent BFS component counter, not relying on Graph internals
    seen = [False] * g.node_count
    count = 0
    for start in range(g.node_count):
        if seen[start]:
            continue
        count += 1
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            for u in g.neighbours(v):
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
    return count


class TestCompleteGraph:
    def test_single_node(self):
        g = complete_graph(1)
        assert g.node_count == 1 and g.edge_count == 0

    def test_triangle(self):
        g = complete_graph(3)
        assert g.node_count == 3 and g.edge_count == 3

    def test_k5(self):
        assert complete_graph(5).edge_count == 10

    def test_rejects_zero(self):
        with pytest.raises(InvalidParameter):
            complete_graph(0)

    @given(st.integers(min_value=1, max_value=12))
    def test_edge_formula(self, d):
        g = complete_graph(d)
        validate_graph(g)
        assert g.edge_count == d * (d - 1) // 2


class TestCliqueFamily:
    def test_m1(self):
        g = clique_family(1)
        assert g.node_count == 1 and g.edge_count == 0

    def test_m3(self):
        g = clique_family(3)
        assert g.node_count == 18
        assert g.edge_count == 3 * (0 + 1 + 3)

    def test_m10_node_count(self):
        # independent sum over the construction, not the closed form
        expected = sum(10 * d for d in range(1, 11))
        assert expected == 550
        assert clique_family(10).node_count == expected

    def test_rejects_zero(self):
        with pytest.raises(InvalidParameter):
            clique_family(0)

    @given(st.integers(min_value=1, max_value=7))
    def test_structure(self, m):
        g = clique_family(m)
        validate_graph(g)
        assert count_components(g) == m * m
        assert np.diff(g.indptr).max(initial=0) == m - 1


class TestErdosRenyi:
    def test_p_zero(self):
        assert erdos_renyi(5, 0.0, 1).edge_count == 0

    def test_p_one(self):
        assert erdos_renyi(5, 1.0, 1) == complete_graph(5)

    def test_edge_count_bounds(self):
        # Window [2000, 2950] around the binomial(4950, 1/2) mean 2475.
        # Hoeffding oracle: P(|X - 2475| >= 475) <= 2 exp(-2 * 475^2 / 4950),
        # far below the 1e-9 budget; check that before trusting the window.
        assert 2.0 * math.exp(-2 * 475**2 / 4950) < 1e-9
        for seed in range(20):
            g = erdos_renyi(100, 0.5, seed)
            assert 2000 <= g.edge_count <= 2950

    def test_reproducible(self):
        a = erdos_renyi(60, 0.3, 987654321)
        b = erdos_renyi(60, 0.3, 987654321)
        assert a == b
        assert write_edge_list(a) == write_edge_list(b)

    def test_seed_changes_graph(self):
        assert erdos_renyi(60, 0.5, 1) != erdos_renyi(60, 0.5, 2)

    def test_rejects_bad_probability(self):
        with pytest.raises(InvalidParameter):
            erdos_renyi(5, 1.5, 0)
        with pytest.raises(InvalidParameter):
            erdos_renyi(5, -0.1, 0)
        with pytest.raises(InvalidParameter):
            erdos_renyi(0, 0.5, 0)

    @given(st.integers(min_value=1, max_value=30),
           st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
           st.integers(min_value=0, max_value=2**64 - 1))
    def test_invariants(self, n, p, seed):
        validate_graph(erdos_renyi(n, p, seed))

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 257])
    @pytest.mark.parametrize("p", [0.0, 1e-300, 0.3, 0.5, 0.9999999999, 1.0])
    def test_equals_dense_reference(self, n, p):
        for seed in (0, 20240802, 2**64 - 1):
            g = erdos_renyi(n, p, seed)
            assert g == reference_erdos_renyi(n, p, seed)
            assert g.indptr.dtype == g.indices.dtype == np.int64

    def test_draws_without_a_generator(self, monkeypatch):
        # numpy keeps PCG64's raw words stable, not the streams of Generator's methods
        expected = reference_erdos_renyi(64, 0.5, 7)

        def refuse(*args, **kwargs):
            raise AssertionError("erdos_renyi made a numpy Generator")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(np.random, "Generator", refuse)
        assert erdos_renyi(64, 0.5, 7) == expected


class TestGridGraph:
    def test_1x1(self):
        g = grid_graph(1, 1)
        assert g.node_count == 1 and g.edge_count == 0

    def test_2x2(self):
        assert grid_graph(2, 2).edge_count == 4

    def test_3x4(self):
        g = grid_graph(3, 4)
        assert g.node_count == 12 and g.edge_count == 17

    def test_rejects_zero_dimension(self):
        with pytest.raises(InvalidParameter):
            grid_graph(0, 3)
        with pytest.raises(InvalidParameter):
            grid_graph(3, 0)
        with pytest.raises(InvalidParameter):
            path_graph(0)  # the 1 x n grid

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
    def test_edge_formula(self, rows, cols):
        g = grid_graph(rows, cols)
        validate_graph(g)
        assert g.edge_count == rows * (cols - 1) + cols * (rows - 1)

    def test_path(self):
        g = path_graph(5)
        assert g.edge_count == 4
        assert g.neighbours(0) == (1,)
        assert g.neighbours(2) == (1, 3)
        assert all(type(u) is int for u in g.neighbours(2))


class TestGraphConstruction:
    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidParameter):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameter):
            Graph(3, [(0, 3)])
        with pytest.raises(InvalidParameter):
            Graph(-1)
        for v in (3, -1):
            with pytest.raises(InvalidParameter):
                path_graph(3).neighbours(v)

    @pytest.mark.parametrize("edges, message", [
        ([(0.7, 2)], "edge endpoint must be an integer, got 0.7"),
        ([(0, 1, 2, 3)], "pairs of integers"),
        ([(0, 1, 2)], "pairs of integers"),
        ([(0, 1), (2,)], r"edge endpoint must be an integer, got \(2,\)"),
        ([(0, 1.0)], "edge endpoint must be an integer, got 1.0"),
        ([(True, False)], "edge endpoint must be an integer, got"),
        ([(True, 2)], "edge endpoint must be an integer, got True"),
        ([(np.True_, 2)], "edge endpoint must be an integer, got"),
        ([("0", "1")], "edge endpoint must be an integer, got '1'"),
        ([0, 1], "pairs of integers"),
        (np.array([[0.0, 1.0]]), "edge endpoint must be an integer, got an array of float64"),
        (np.array([[True, False]]), "edge endpoint must be an integer, got an array of bool"),
        (5, "edge endpoints must be given as an iterable, got 5"),
        (None, "edge endpoints must be given as an iterable, got None"),
        (np.array(5), r"edge endpoints must be given as an iterable, got array\(5\)"),
    ], ids=["float", "quadruple", "triple", "ragged", "mixed-float", "bool", "bool-among-ints",
            "numpy-bool-among-ints", "str", "flat", "float-array", "bool-array", "scalar", "none",
            "0-d-array"])
    def test_rejects_edges_that_are_not_integer_pairs(self, edges, message):
        # none of these may be truncated to an edge or regrouped into pairs
        with pytest.raises(InvalidParameter, match=message):
            Graph(4, edges)

    def test_rejects_out_of_range_endpoint_past_int64(self):
        with pytest.raises(InvalidParameter, match=f"edge endpoint {2**70} out of range for 4 nodes"):
            Graph(4, [(0, 2**70)])

    def test_accepts_empty_numpy_and_generator_edges(self):
        assert Graph(4, []) == Graph(4, np.empty((0, 2))) == Graph(4)
        expected = path_graph(4)
        assert Graph(4, np.array([[0, 1], [1, 2], [2, 3]], dtype=np.int32)) == expected
        assert Graph(4, np.array([[0, 1], [1, 2], [2, 3]], dtype=np.uint16)) == expected
        assert Graph(4, ((v, v + 1) for v in range(3))) == expected
        assert Graph(4, [(np.int64(0), 1), (1, np.int8(2)), (2, 3)]) == expected

    def test_equality_and_repr(self):
        assert path_graph(3) != 3
        assert Graph.__eq__(path_graph(3), 3) is NotImplemented
        assert repr(path_graph(3)) == "Graph(node_count=3, edge_count=2)"

    def test_masks_match_adjacency(self):
        g = Graph(5, [(0, 1), (0, 4), (2, 3)])
        masks = g.adjacency_masks()
        for v in range(5):
            assert masks[v] == sum(1 << u for u in g.neighbours(v))


class TestValidateGraph:
    # Each case breaks exactly one CSR invariant of the path 0 - 1 - 2,
    # whose arrays are indptr [0, 1, 3, 4] and indices [1, 0, 2, 1].
    def test_accepts_path(self):
        g = Graph.from_csr([0, 1, 3, 4], [1, 0, 2, 1])
        validate_graph(g)
        assert g == path_graph(3)

    def test_rejects_indptr_not_starting_at_zero(self):
        with pytest.raises(InvalidParameter):
            validate_graph(Graph.from_csr([1, 1, 3, 4], [1, 0, 2, 1]))

    def test_rejects_decreasing_indptr(self):
        with pytest.raises(InvalidParameter):
            validate_graph(Graph.from_csr([0, 3, 1, 4], [1, 0, 2, 1]))

    def test_rejects_indptr_not_ending_at_len_indices(self):
        with pytest.raises(InvalidParameter):
            validate_graph(Graph.from_csr([0, 1, 3, 3], [1, 0, 2, 1]))

    def test_rejects_out_of_range_index(self):
        with pytest.raises(InvalidParameter):
            validate_graph(Graph.from_csr([0, 1, 3, 4], [1, 0, 3, 1]))
        with pytest.raises(InvalidParameter):
            validate_graph(Graph.from_csr([0, 1, 3, 4], [1, -1, 2, 1]))

    def test_rejects_self_loop(self):
        # node 1 lists itself; the rows stay increasing and the graph symmetric
        with pytest.raises(InvalidParameter):
            validate_graph(Graph.from_csr([0, 1, 4, 5], [1, 0, 1, 2, 1]))

    def test_rejects_unsorted_row(self):
        with pytest.raises(InvalidParameter):
            validate_graph(Graph.from_csr([0, 1, 3, 4], [1, 2, 0, 1]))

    def test_rejects_repeated_neighbour(self):
        with pytest.raises(InvalidParameter):
            validate_graph(Graph.from_csr([0, 1, 3, 4], [1, 0, 0, 1]))

    def test_rejects_asymmetric(self):
        # 0 lists 1, but 1 does not list 0
        with pytest.raises(InvalidParameter):
            validate_graph(Graph.from_csr([0, 1, 2, 3], [1, 2, 1]))

    def test_rejects_row_lengths_out_of_step_with_indptr(self):
        g = Graph.from_csr([0, 1, 3, 4], [1, 0, 2, 1])
        g._degree = np.array([2, 1, 1])
        with pytest.raises(InvalidParameter, match="match degree"):
            validate_graph(g)

    def test_view_base_is_frozen_too(self):
        # a view's base could otherwise move indptr after degree was taken from it
        base = np.array([0, 1, 3, 4, 99])
        g = Graph.from_csr(base[:4], [1, 0, 2, 1])
        with pytest.raises(ValueError):
            base[1] = 2
        validate_graph(g)
        assert g == path_graph(3)

    @pytest.mark.parametrize("wrap", [bytearray, lambda data: memoryview(bytearray(data)), anonymous_mmap],
                             ids=["bytearray", "memoryview", "mmap"])
    def test_writeable_foreign_buffer_is_copied(self, wrap):
        # a buffer that is not an ndarray cannot be frozen, so it would move indptr under degree
        buf = wrap(np.array([0, 1, 3, 4], dtype=np.int64).tobytes())
        g = Graph.from_csr(np.frombuffer(buf, dtype=np.int64), [1, 0, 2, 1])
        buf[8] = 2
        assert g.indptr.tolist() == [0, 1, 3, 4]
        validate_graph(g)
        assert g == path_graph(3)

    def test_base_without_buffer_protocol_is_copied(self):
        # as_strided's view ends its base chain in an object with no buffer to
        # ask whether it is read-only, so the graph cannot trust it and copies
        a = np.array([0, 1, 3, 4])
        g = Graph.from_csr(np.lib.stride_tricks.as_strided(a), [1, 0, 2, 1])
        a[1] = 2
        assert g.indptr.tolist() == [0, 1, 3, 4]
        validate_graph(g)
        assert g == path_graph(3)

    def test_ndarray_views_and_read_only_buffers_are_kept(self):
        # only a writeable foreign buffer costs a copy; G(n, p) hands over views of its own arrays
        base = np.array([0, 1, 3, 4, 99], dtype=np.int64)
        data = base[:4].tobytes()
        for indptr in (base[:4], np.frombuffer(data, dtype=np.int64)):
            assert Graph.from_csr(indptr, [1, 0, 2, 1]).indptr is indptr

    def test_arrays_are_read_only(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            g.indices[0] = 2
        with pytest.raises(ValueError):
            g.indptr[0] = 1
        with pytest.raises(ValueError):
            g.degree[0] = 2

    @pytest.mark.parametrize("clone", [lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_copies_are_read_only(self, clone):
        g = erdos_renyi(16, 0.5, 3)
        h = clone(g)
        assert h == g and h.degree.tolist() == g.degree.tolist()
        for array in (h.indptr, h.indices, h.degree):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_shallow_copy_shares_the_arrays(self):
        g = path_graph(4)
        h = copy.copy(g)
        assert h == g and h.indptr is g.indptr and h.indices is g.indices


class TestEdgeListFormat:
    def test_parse_k2(self):
        assert parse_edge_list("2 1\n0 1") == complete_graph(2)

    def test_parse_isolated(self):
        g = parse_edge_list("3 0")
        assert g.node_count == 3 and g.edge_count == 0

    def test_parse_rejects_self_loop(self):
        with pytest.raises(ParseError) as exc:
            parse_edge_list("2 1\n0 0")
        assert exc.value.line == 2

    def test_parse_rejects_duplicate(self):
        with pytest.raises(ParseError) as exc:
            parse_edge_list("3 2\n0 1\n1 0")
        assert exc.value.line == 3

    def test_parse_rejects_out_of_range(self):
        with pytest.raises(ParseError):
            parse_edge_list("2 1\n0 2")

    def test_parse_rejects_bad_header(self):
        for header in ("nope", "a b", "-1 0"):
            with pytest.raises(ParseError) as exc:
                parse_edge_list(header)
            assert exc.value.line == 1

    def test_parse_rejects_wrong_edge_count(self):
        with pytest.raises(ParseError):
            parse_edge_list("3 2\n0 1")
        with pytest.raises(ParseError):
            parse_edge_list("3 1\n0 1\n1 2")

    def test_parse_rejects_junk_line(self):
        for line in ("1 2 3", "0 x"):
            with pytest.raises(ParseError) as exc:
                parse_edge_list(f"3 2\n0 1\n{line}")
            assert exc.value.line == 3

    def test_parse_takes_only_ascii_decimal(self):
        # int() would read "1_0" as 10 and "+9" as 9: a 10-node graph with the edge (0, 9)
        for text, line in (("1_0 1\n0 1\n", 1), ("10 1\n0 +9\n", 2), ("1_0 1\n0 +9\n", 1),
                           ("3 1\n0 \u0662\n", 2), ("\uff13 0\n", 1)):
            with pytest.raises(ParseError) as exc:
                parse_edge_list(text)
            assert exc.value.line == line
        assert parse_edge_list("010 1\n0 9\n") == Graph(10, [(0, 9)])

    @pytest.mark.parametrize("text", ["3 2\r\n0 1\r\n1 2\r\n", "3 2\r\n0 1\r\n1 2",
                                      "3\t2\n\t0 \t1\n1\t\t2  \n"], ids=["crlf", "crlf-unended", "tabs"])
    def test_parse_reads_crlf_and_tabs(self, text):
        assert parse_edge_list(text) == path_graph(3)

    @pytest.mark.parametrize("text, line, message", [
        ("3 2\n0\u00a01\n1 2\n", 2, "expected 'u v'"),
        ("3 2\n0\x0b1\n1 2\n", 2, "expected 'u v'"),
        ("3 2\n0 1\n1\x1c2\n", 3, "expected 'u v'"),
        ("3 2\u20280 1\u20281 2", 1, "expected header"),
        ("3 2\r0 1\r1 2\r", 1, "expected header"),
        ("3 2\n0 1\r\r\n1 2\n", 2, "edge endpoints must be integers"),
    ], ids=["no-break-space", "vertical-tab", "file-separator", "line-separator", "bare-cr",
            "two-crs"])
    def test_parse_splits_only_at_lf_spaces_and_tabs(self, text, line, message):
        # str.splitlines and str.split take each of these characters as a line break or a separator
        with pytest.raises(ParseError, match=f"^line {line}: {message}") as exc:
            parse_edge_list(text)
        assert exc.value.line == line

    @pytest.mark.parametrize("data, line, byte", [
        (b"3 2\r\n0 1\r\n1 \xff2", 3, b"\xff"),
        (b"3 1\n0 1\n\xc3", 3, b"\xc3"),
    ], ids=["crlf-unended", "truncated-at-eof"])
    def test_read_text_names_the_line_of_a_bad_byte(self, data, line, byte, tmp_path):
        path = tmp_path / "g.el"
        path.write_bytes(data)
        with pytest.raises(ParseError) as exc:
            read_text(str(path))
        assert str(exc.value) == f"line {line}: not UTF-8: {byte!r}" and exc.value.line == line

    def test_read_text_decodes_without_translating_newlines(self, tmp_path):
        # a valid non-ASCII character decodes, and the field rule then refuses it with its own message
        path = tmp_path / "g.el"
        path.write_bytes("3 1\r\n0 \u00e9\n".encode())
        assert read_text(str(path)) == "3 1\r\n0 \u00e9\n"
        with pytest.raises(ParseError, match="^line 2: edge endpoints must be integers, got '0 \u00e9'$"):
            parse_edge_list(read_text(str(path)))

    def test_parse_rejects_empty(self):
        with pytest.raises(ParseError):
            parse_edge_list("")

    def test_write_format(self):
        g = Graph(3, [(1, 2), (0, 1)])
        assert write_edge_list(g) == "3 2\n0 1\n1 2\n"

    @given(small_graphs(max_nodes=12))
    def test_write_matches_edge_by_edge_formatting(self, g):
        # the writer reads the CSR arrays at once; this writes each upper entry on its own
        # (test_roundtrip checks that parse_edge_list inverts the writer)
        n = g.node_count
        lines = [f"{n} {g.edge_count}"]
        lines += [f"{u} {v}" for u in range(n) for v in g.neighbours(u) if u < v]
        assert write_edge_list(g) == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("g, text", [
        (Graph(0), "0 0\n"),
        (Graph(4), "4 0\n"),
        (Graph.from_csr([0, 1, 3, 4], [1, 0, 2, 1]), "3 2\n0 1\n1 2\n"),
    ], ids=["no-nodes", "isolated-nodes", "from-csr"])
    def test_write_fixed_cases(self, g, text):
        assert write_edge_list(g) == text
        assert parse_edge_list(text) == g

    @given(small_graphs(max_nodes=12))
    def test_roundtrip(self, g):
        assert parse_edge_list(write_edge_list(g)) == g
        assert g.degree.dtype == np.int64 and np.array_equal(g.degree, np.diff(g.indptr))

    def test_text_roundtrip(self):
        text = "4 2\n0 3\n1 2\n"
        assert write_edge_list(parse_edge_list(text)) == text


class TestCellBudget:
    # A budget of 16 cells: each builder is admitted at 16 and refused just above.
    @pytest.mark.parametrize("build, fits, too_big", [
        (Graph, 16, 17),
        (lambda n: parse_edge_list(f"{n} 0\n"), 16, 17),
        (path_graph, 16, 17),
        (lambda cols: grid_graph(4, cols), 4, 5),
        (lambda n: erdos_renyi(n, 0.5, 0), 4, 5),  # n * n node pairs
        (complete_graph, 4, 5),
        (clique_family, 2, 3),  # m * (1 + 4 + ... + m * m): 10, then 42
    ])
    def test_builders_refuse_over_budget(self, monkeypatch, build, fits, too_big):
        monkeypatch.setattr(graph_module, "_CELL_BUDGET", 16)
        build(fits)
        with pytest.raises(TooLarge):
            build(too_big)

    @pytest.mark.parametrize("build", [
        lambda edges: Graph(len(edges) + 1, edges),
        lambda edges: parse_edge_list(f"{len(edges) + 1} {len(edges)}\n"
                                      + "".join(f"{u} {v}\n" for u, v in edges)),
    ], ids=["Graph", "parse_edge_list"])
    def test_edges_count_against_budget(self, monkeypatch, build):
        # one cell per edge orientation: 8 edges fit in 16 cells, 9 do not
        monkeypatch.setattr(graph_module, "_CELL_BUDGET", 16)
        build([(v, v + 1) for v in range(8)])
        with pytest.raises(TooLarge, match="18 cells"):
            build([(v, v + 1) for v in range(9)])

    def test_edge_header_checked_before_any_line(self, monkeypatch):
        # refused for its size, not for the 9 edge lines it lacks
        monkeypatch.setattr(graph_module, "_CELL_BUDGET", 16)
        with pytest.raises(TooLarge, match="edge list of 9 edges"):
            parse_edge_list("4 9\n")

    def test_header_checked_before_allocation(self):
        # at the real budget: the check comes before anything is allocated
        with pytest.raises(TooLarge):
            parse_edge_list("1000000000 0\n")

    def test_inputs_in_use_fit(self):
        assert graph_module._CELL_BUDGET >= max(1_000_000, 1024 * 1024)


class TestBuildMemory:
    # grid:256,256's 130,560 edges; bounds per edge of the traced peak of one
    # build, inputs excluded
    @pytest.fixture(scope="class")
    def grid(self):
        g = grid_graph(256, 256)
        rows = np.repeat(np.arange(g.node_count), g.degree)
        upper = rows < g.indices
        return g, np.stack([rows[upper], g.indices[upper]], axis=1), write_edge_list(g)

    @staticmethod
    def peak_per_edge(build, g):
        tracemalloc.start()
        try:
            built = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built == g
        return peak / g.edge_count

    def test_graph_from_edges(self, grid):
        # the pairs' copy, both orientations' keys and their sort: sorted keys
        # become the columns in place, with no row array beside them
        g, edges, _ = grid
        assert self.peak_per_edge(lambda: Graph(g.node_count, edges), g) <= 64

    def test_parse_edge_list(self, grid):
        # one int key per edge in the duplicate set, not a tuple, and the
        # lines and that set freed before the keys are sorted
        g, _, text = grid
        assert self.peak_per_edge(lambda: parse_edge_list(text), g) <= 240
