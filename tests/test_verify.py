from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beepmis import (
    Graph,
    InvalidParameter,
    TooLarge,
    VerifyReport,
    check_mis,
    complete_graph,
    enumerate_mis,
    erdos_renyi,
    path_graph,
)

from conftest import small_graphs


def reference_check_mis(graph, candidate):
    """Naive set-based oracle for ``check_mis``: plain loops over
    ``neighbours(v)``, first violation in ascending node order."""
    members = set(candidate)
    witness_edge = next(((v, u) for v in sorted(members) for u in graph.neighbours(v)
                         if u > v and u in members), None)
    witness_vertex = next((v for v in range(graph.node_count) if v not in members
                           and not members.intersection(graph.neighbours(v))), None)
    return VerifyReport(witness_edge, witness_vertex)


class TestCheckMis:
    def test_path3_valid(self):
        report = check_mis(path_graph(3), {0, 2})
        assert report == VerifyReport(None, None) and report.ok

    def test_path3_dependent(self):
        report = check_mis(path_graph(3), {0, 1})
        assert report == VerifyReport((0, 1), None) and not report.ok

    def test_path5_maximal(self):
        # every outside node (1, 2, 4) has a neighbour in {0, 3}
        report = check_mis(path_graph(5), {0, 3})
        assert report.witness_edge is None and report.witness_vertex is None

    def test_not_maximal_witness(self):
        report = check_mis(path_graph(3), {0})
        assert report == VerifyReport(None, 2) and not report.ok

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameter):
            check_mis(path_graph(3), {3})

    def test_rejects_negative_id(self):
        # a negative id must not wrap around to the last node
        with pytest.raises(InvalidParameter, match="candidate node -1 out of range for 3 nodes"):
            check_mis(path_graph(3), [0, 2, -1])

    def test_rejects_huge_id(self):
        with pytest.raises(InvalidParameter, match=f"candidate node {2**70} out of range"):
            check_mis(path_graph(3), [2**70])

    def test_rejects_uint64_id_past_int64(self):
        # named as given, not wrapped to a negative id by a cast to int64
        with pytest.raises(InvalidParameter, match=f"candidate node {2**63 + 5} out of range for 3 nodes"):
            check_mis(path_graph(3), [0, np.uint64(2**63 + 5)])

    @pytest.mark.parametrize("candidate", [{1.7}, [0, 2.0], {True}, [0, 2, False], ["1"], [None]],
                             ids=["float", "integral-float", "bool", "bool-among-ints", "str", "none"])
    def test_rejects_non_integer_ids(self, candidate):
        # 1.7 would be truncated to node 1, True read as node 1
        with pytest.raises(InvalidParameter, match="candidate node must be an integer, got"):
            check_mis(path_graph(3), candidate)

    @pytest.mark.parametrize("candidate", [1, np.int64(1), None, np.array(1)],
                             ids=["int", "numpy-int", "none", "0-d-array"])
    def test_rejects_a_scalar_candidate(self, candidate):
        # a 0-d array would otherwise be read as the set {1}, which is a MIS of the path
        with pytest.raises(InvalidParameter, match="candidate nodes must be given as an iterable, got"):
            check_mis(path_graph(3), candidate)

    def test_accepts_numpy_integer_ids(self):
        assert check_mis(path_graph(3), [np.int64(0), np.uint8(2)]).ok
        assert check_mis(path_graph(3), np.array([1], dtype=np.int32)).ok

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_reference(self, data):
        g = data.draw(small_graphs(max_nodes=14))
        candidate = data.draw(st.sets(st.integers(0, max(g.node_count - 1, 0)))
                              if g.node_count else st.just(set()))
        assert check_mis(g, candidate) == reference_check_mis(g, candidate)

    def test_empty_set_maximal_only_for_empty_graph(self):
        assert check_mis(Graph(0), set()).ok
        report = check_mis(Graph(3), set())
        assert report == VerifyReport(None, 0)


class TestEnumerateMis:
    def test_triangle(self):
        assert enumerate_mis(complete_graph(3)) == [(0,), (1,), (2,)]

    def test_path3(self):
        assert enumerate_mis(path_graph(3)) == [(0, 2), (1,)]

    def test_four_cycle(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert enumerate_mis(g) == [(0, 2), (1, 3)]

    def test_empty_graph(self):
        assert enumerate_mis(Graph(0)) == [()]

    def test_too_large(self):
        with pytest.raises(TooLarge):
            enumerate_mis(Graph(21))

    @settings(max_examples=40, deadline=None)
    @given(small_graphs(max_nodes=8))
    def test_agrees_with_check_mis(self, g):
        family = set(enumerate_mis(g))
        for size in range(g.node_count + 1):
            for candidate in combinations(range(g.node_count), size):
                assert check_mis(g, candidate).ok == (candidate in family)

    def test_random_graphs_cross_check(self):
        for seed in range(10):
            g = erdos_renyi(7, 0.4, seed)
            family = set(enumerate_mis(g))
            assert family  # every graph has at least one MIS
            for member in family:
                assert check_mis(g, member).ok
