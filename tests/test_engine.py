import random
import sys
import threading
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beepmis import (
    Constant,
    Graph,
    GlobalSweep,
    InvalidParameter,
    LocalFeedback,
    check_mis,
    clique_family,
    complete_graph,
    default_max_rounds,
    enumerate_mis,
    erdos_renyi,
    grid_graph,
    parse_policy,
    path_graph,
    run,
)
from beepmis import engine

from conftest import BEEP, SILENT, replay_check, scripted_round, small_graphs
from reference_engine import reference_run


class TestStep:
    def test_isolated_node_joins(self):
        g = Graph(1)
        result = run(g, Constant(1.0), seed=0)
        assert result.terminated and result.rounds == 1
        assert result.mis == {0}
        assert result.beep_counts == (1,)

    def test_k2_both_beep(self):
        g = complete_graph(2)
        policy = LocalFeedback()
        state = engine._new_state(g, policy)
        outcome = scripted_round(state, g, [BEEP, BEEP])
        assert outcome.beeped == {0, 1}
        assert outcome.joined_mis == frozenset()
        assert outcome.newly_inactive == frozenset()
        # both heard a beep: probabilities halve
        assert state.policy_state.tolist() == [0.25, 0.25]
        assert state.beep_counts.tolist() == [1, 1]

    def test_k2_one_beeps(self):
        g = complete_graph(2)
        state = engine._new_state(g, LocalFeedback())
        outcome = scripted_round(state, g, [BEEP, SILENT])
        assert outcome.joined_mis == {0}
        assert outcome.newly_inactive == {0, 1}
        # node 0 joined, node 1 became an inactive neighbour
        assert state.in_mis.tolist() == [True, False]
        assert state.alive.tolist() == [False, False]
        assert state.active.size == 0
        # every node of the round is adjusted, the two that left included:
        # node 0 heard silence and stays at the cap, node 1 heard a beep
        assert state.policy_state.tolist() == [0.5, 0.25]

    def test_k2_round1_enumeration(self):
        # all four beep patterns at p = (1/2, 1/2); join happens iff exactly
        # one node beeps, so the round-1 termination probability is 1/2
        join_probability = 0.0
        for bits in product((True, False), repeat=2):
            g = complete_graph(2)
            state = engine._new_state(g, LocalFeedback())
            draws = [BEEP if b else SILENT for b in bits]
            outcome = scripted_round(state, g, draws)
            weight = 0.5 * 0.5
            expected_join = sum(bits) == 1
            assert bool(outcome.joined_mis) == expected_join
            if outcome.joined_mis:
                join_probability += weight
        assert join_probability == 0.5

    def test_multi_join_shared_neighbour(self):
        # both endpoints of a path join in one round; the middle node is
        # deactivated exactly once
        g = path_graph(3)
        state = engine._new_state(g, LocalFeedback())
        outcome = scripted_round(state, g, [BEEP, SILENT, BEEP])
        assert outcome.joined_mis == {0, 2}
        assert outcome.newly_inactive == {0, 1, 2}
        assert not state.alive[1] and not state.in_mis[1]  # an inactive neighbour

    def test_silent_round_doubles_probability(self):
        g = complete_graph(2)
        policy = LocalFeedback()
        state = engine._new_state(g, policy)
        state.policy_state[:] = 0.125
        scripted_round(state, g, [SILENT, SILENT])
        assert state.policy_state.tolist() == [0.25, 0.25]


class TestRun:
    @pytest.mark.parametrize("g", [complete_graph(2), path_graph(9), clique_family(5),
                                   erdos_renyi(64, 0.3, 5), grid_graph(6, 7)],
                             ids=["k2", "path9", "cliquefam5", "er64", "grid6x7"])
    def test_left_nodes_probabilities_are_never_read(self, g):
        # Nodes that left hold NaN from their last round on; a run that read
        # one would draw differently, so the outputs would differ from run's.
        policy = LocalFeedback()
        for seed in range(20):
            state = engine._new_state(g, policy)
            draw = engine._batched_draws(seed)
            while state.active.size and state.round < default_max_rounds(g.node_count):
                engine._round(state, g, draw)
                state.policy_state[~state.alive] = np.nan
            result = run(g, policy, seed)
            assert state.round == result.rounds
            assert tuple(state.beep_counts.tolist()) == result.beep_counts
            assert frozenset(np.flatnonzero(state.in_mis).tolist()) == result.mis

    def test_empty_graph(self):
        result = run(Graph(0), GlobalSweep(), seed=5)
        assert result.terminated and result.rounds == 0 and result.mis == frozenset()

    def test_isolated_nodes_sweep_all_join_round_one(self):
        g = Graph(6)
        result = run(g, GlobalSweep(), seed=11)
        assert result.terminated and result.rounds == 1
        assert result.mis == set(range(6))

    def test_deterministic_including_trace(self):
        g = complete_graph(6)
        a = run(g, LocalFeedback(), seed=99, keep_trace=True)
        b = run(g, LocalFeedback(), seed=99, keep_trace=True)
        assert a == b

    def test_result_holds_python_ints(self):
        result = run(path_graph(6), LocalFeedback(), seed=3, keep_trace=True)
        outcome_sets = [s for o in result.trace for s in (o.beeped, o.joined_mis, o.newly_inactive)]
        values = [*result.mis, *result.beep_counts, result.total_beeps, *(v for s in outcome_sets for v in s)]
        assert values and all(type(v) is int for v in values)

    def test_trace_off_by_default(self):
        assert run(complete_graph(3), GlobalSweep(), seed=0).trace is None

    def test_max_rounds_hit(self):
        # p = 1 on an edge: both nodes beep forever, no one ever joins
        result = run(complete_graph(2), Constant(1.0), seed=0, max_rounds=5)
        assert not result.terminated
        assert result.rounds == 5
        assert result.mis == frozenset()

    def test_rejects_bad_max_rounds(self):
        with pytest.raises(InvalidParameter):
            run(complete_graph(2), GlobalSweep(), seed=0, max_rounds=0)

    def test_default_max_rounds(self):
        assert default_max_rounds(0) == 128
        assert default_max_rounds(1024) == 64 * 11**2 + 64

    def test_small_graph_outputs_are_enumerated_mis(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        family = enumerate_mis(g)
        for seed in range(25):
            result = run(g, LocalFeedback(), seed=seed)
            assert result.terminated
            assert tuple(sorted(result.mis)) in family

    @settings(max_examples=60, deadline=None)
    @given(
        small_graphs(max_nodes=10),
        st.sampled_from(["feedback", "sweep", "const", "feedback_gen"]),
        st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_run_invariants(self, g, policy_kind, seed):
        policy = {
            "feedback": LocalFeedback(),
            "sweep": GlobalSweep(),
            "const": Constant(0.4),
            "feedback_gen": LocalFeedback(factor=1.7, initial=0.45, cap=0.5),
        }[policy_kind]
        result = run(g, policy, seed=seed, keep_trace=True)
        replay_check(g, result)


class TestReferenceEngine:
    POLICIES = ["feedback", "feedback:f=1.7,init=0.45,cap=0.5", "sweep", "const:0.4"]

    @settings(max_examples=200, deadline=None)
    @given(
        small_graphs(max_nodes=12),
        st.sampled_from(POLICIES),
        st.integers(min_value=0, max_value=2**64 - 1),
        st.sampled_from([None, 1, 3]),
    )
    def test_run_equals_reference(self, g, policy_text, seed, max_rounds):
        policy = parse_policy(policy_text)
        result = run(g, policy, seed, max_rounds, keep_trace=True)
        assert result == reference_run(g, policy, seed, max_rounds)

    @pytest.mark.parametrize("policy_text", POLICIES)
    def test_clique_family_equals_reference(self, policy_text):
        g = clique_family(5)
        policy = parse_policy(policy_text)
        for seed in range(5):
            assert run(g, policy, seed, keep_trace=True) == reference_run(g, policy, seed)

    @pytest.mark.parametrize("policy_text", ["feedback", "sweep"])
    def test_dense_random_graph_equals_reference(self, policy_text):
        # dense rows with many beepers: the rounds where the heard test runs
        # bottom-up
        policy = parse_policy(policy_text)
        for seed in range(3):
            g = erdos_renyi(200, 0.5, seed)
            assert run(g, policy, seed, keep_trace=True) == reference_run(g, policy, seed)

    def test_first_round_crosses_generator_refill(self):
        # 700 draws in round one run past the 624-word MT19937 state
        g = path_graph(700)
        for policy_text in ("feedback", "sweep"):
            policy = parse_policy(policy_text)
            assert run(g, policy, 3, keep_trace=True) == reference_run(g, policy, 3)


class TestDraws:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_batches_equal_random_stream(self, seed):
        draw = engine._batched_draws(seed)
        expected = random.Random(seed)
        for k in (0, 1, 623, 624, 625, 5000):
            assert draw(k).tolist() == [expected.random() for _ in range(k)]

    def test_seed_taken_as_64_bit_word(self):
        assert engine._batched_draws(-1)(10).tolist() == engine._batched_draws(2**64 - 1)(10).tolist()

    def test_concurrent_runs_equal_sequential(self):
        # each thread reseeds its own generator; a shared one would let one
        # run's draws land in another's stream
        g = clique_family(6)
        policy = LocalFeedback()
        seeds = range(800)
        expected = [run(g, policy, seed) for seed in seeds]
        got = [None] * len(seeds)

        def worker(offset):
            for seed in seeds[offset::4]:
                got[seed] = run(g, policy, seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == expected


STAR = Graph(13, [(0, leaf) for leaf in range(1, 13)])  # a hub row longer than most windows
WITH_ISOLATED = Graph(9, [(1, 2), (2, 5), (1, 7), (5, 7)])  # 0, 3, 4, 6 and 8 have no row


def heard_reference(graph, beeped, queries):
    beepers = set(beeped.tolist())
    return [bool(beepers.intersection(graph.neighbours(q))) for q in queries.tolist()]


class TestHeard:
    def test_equals_set_based_flags_in_both_directions(self, monkeypatch):
        calls = {"top_down": 0, "bottom_up": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(engine, "_heard_top_down", counted("top_down", engine._heard_top_down))
        monkeypatch.setattr(engine, "_heard_bottom_up", counted("bottom_up", engine._heard_bottom_up))
        graphs = [erdos_renyi(n, p, seed) for seed, n in enumerate((1, 2, 37, 120, 300))
                  for p in (0.05, 0.5, 1.0)]
        graphs += [grid_graph(13, 17), clique_family(6)]
        rng = np.random.default_rng(5)
        for g in graphs:
            n = g.node_count
            for fraction in (1 / n, 0.01, 0.1, 0.3, 0.7, 1.0):
                active = np.flatnonzero(rng.random(n) < 0.8)
                beeped = active[rng.random(active.size) < fraction]
                for queries in (beeped, active):
                    flags = engine._heard(g, np.diff(g.indptr), beeped, queries)
                    assert flags.tolist() == heard_reference(g, beeped, queries)
        assert calls["top_down"] and calls["bottom_up"]

    @given(st.one_of(small_graphs(), st.sampled_from([STAR, WITH_ISOLATED])), st.data())
    def test_each_kernel_equals_set_based_flags(self, g, data):
        # both directions on every window, not only the one _heard would pick
        n = g.node_count
        beeped = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        degree = np.diff(g.indptr)
        for queries in (beeped, np.arange(n)):
            expected = heard_reference(g, beeped, queries)
            assert engine._heard_top_down(g, beeped, degree[beeped], queries).tolist() == expected
            if g.indices.size:  # bottom-up needs an edge, as _heard guarantees
                for window in range(1, n + 1):
                    flags = engine._heard_bottom_up(g, degree, beeped, queries, window)
                    assert flags.tolist() == expected


def traced_peak_mib(build_and_run):
    """Peak traced allocation of one call, graph build included, in MiB."""
    tracemalloc.start()
    try:
        build_and_run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestWork:
    def test_sweep_dense_reads_few_rows(self, monkeypatch):
        # marking every beeper's whole row reads 17.6 times the graph's CSR
        # entries here; a round should read what its answers need
        read = []
        row_entries = engine._row_entries
        bottom_up = engine._heard_bottom_up

        def counted(graph, starts, lengths):
            entries = row_entries(graph, starts, lengths)
            read.append(entries.size)
            return entries

        def windows(graph, degree, beeped, queries, window):
            read.append(queries.size * window)  # the first windows, one 2-D gather
            return bottom_up(graph, degree, beeped, queries, window)

        monkeypatch.setattr(engine, "_row_entries", counted)
        monkeypatch.setattr(engine, "_heard_bottom_up", windows)
        g = erdos_renyi(512, 0.5, 1)
        assert run(g, GlobalSweep(), 1).terminated
        assert sum(read) <= 3 * g.indices.size


class TestLinearMemory:
    def test_grid_128_peak(self):
        # 16,384 nodes of degree <= 4; an n x n neighbour index would need
        # hundreds of MiB here
        peak = traced_peak_mib(lambda: run(grid_graph(128, 128), LocalFeedback(), 0))
        assert peak < 32

    def test_rest_scan_peak(self):
        # A hub joined to 2,000 rows that also share 16 silent nodes, and
        # 2,000 isolated beepers that shrink the window to 9: every query row
        # is longer than the window and holds no beeper, so all of them go
        # through the rest scan.  It reads 36,000 entries; a 2-D rest gather
        # would be as wide as the hub's row, about 4 million entries.
        rows, shared, beepers = 2000, 16, 2000
        n = 1 + rows + shared + beepers
        g = Graph(n, [(0, v) for v in range(1, rows + 1)]
                  + [(v, w) for v in range(1, rows + 1) for w in range(rows + 1, rows + 1 + shared)])
        degree = np.diff(g.indptr)
        beeped, queries = np.arange(n - beepers, n), np.arange(rows + 1)
        window = -(-4 * n // beepers)
        assert degree[queries].min() > window
        read = queries.size * window + int((degree[queries] - window).sum())
        assert not engine._heard_bottom_up(g, degree, beeped, queries, window).any()
        peak = traced_peak_mib(lambda: engine._heard_bottom_up(g, degree, beeped, queries, window))
        assert peak * 2**20 < 64 * read  # eight int64 words per entry read

    def test_path_200k_terminates(self):
        # refuse the big run unless a small one is clearly linear: a quadratic
        # index at 200,000 nodes would need about 40 GB
        assert traced_peak_mib(lambda: run(path_graph(4096), LocalFeedback(), 0)) < 4
        g = path_graph(200_000)
        result = run(g, LocalFeedback(), seed=0)
        assert result.terminated
        assert check_mis(g, result.mis).ok
