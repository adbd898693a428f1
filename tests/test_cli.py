import argparse
import os
import re
import subprocess
import sys
import weakref
from dataclasses import replace

import pytest

import beepmis.cli as cli
import beepmis.graph
import beepmis.engine as engine
from beepmis import InvalidParameter, TooLarge, VerifyReport, read_records
from beepmis.cli import (
    EXIT_NOT_TERMINATED,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    ExperimentSpec,
    build_run_graph,
    main,
    parse_graph,
    run_experiment,
)
from beepmis.seeding import graph_seed, stable_mix

PATH3 = "3 2\n0 1\n1 2\n"
# Every graph builder the grammar's heads call through the cli module.
GRAPH_BUILDERS = ("erdos_renyi", "grid_graph", "complete_graph", "clique_family", "path_graph",
                  "_load_graph_file")
TRIANGLE = "3 3\n0 1\n0 2\n1 2\n"


def build_family(spec, n, seed=0):
    _, head, values = parse_graph(spec, n)
    return head.build(*values, seed)


class TestGraphGrammar:
    def test_run_specs(self):
        assert build_run_graph("path:3", 0).node_count == 3
        assert build_run_graph("clique:4", 0).edge_count == 6
        assert build_run_graph("grid:2,3", 0).node_count == 6
        assert build_run_graph("cliquefam:2", 0).node_count == 6
        assert build_run_graph("er:10,0.5", 0).node_count == 10

    def test_run_spec_deterministic_in_seed(self):
        assert build_run_graph("er:30,0.5", 7) == build_run_graph("er:30,0.5", 7)
        assert build_run_graph("er:30,0.5", 7) != build_run_graph("er:30,0.5", 8)

    def test_run_spec_file(self, tmp_path):
        p = tmp_path / "g.el"
        p.write_text(PATH3)
        assert build_run_graph(f"file:{p}", 0).node_count == 3

    def test_bad_run_specs(self):
        er_fields = "er takes er node count,er edge probability here"
        for bad, message in (("er:5", f"{er_fields}, got 'er:5'"),
                             ("grid:3", "grid takes rows,cols here, got 'grid:3'"),
                             ("wat:1", "unknown graph 'wat:1'"),
                             ("path:x", "path length must be int, got 'x'"),
                             ("er:10,0.5,3", f"{er_fields}, got 'er:10,0.5,3'"),
                             ("path", "path takes path length here, got 'path'")):
            with pytest.raises(InvalidParameter, match=re.escape(message)):
                build_run_graph(bad, 0)

    def test_family_specs(self):
        name, head, values = parse_graph("er:0.5", 64)
        assert name == "er" and head.param(*values) == "0.5"
        g1 = build_family("er:0.5", 16, 1)
        assert g1.node_count == 16
        assert build_family("grid", 100).node_count == 100
        assert build_family("grid", 128).node_count == 144  # smallest square >= n
        _, grid, values = parse_graph("grid", 128)
        assert grid.param(*values) == "12x12"
        assert build_family("cliquefam", 3).node_count == 18

    def test_bad_family(self):
        # the size fields are written out from n, so only the rest are given;
        # n itself is an integer >= 1, even for a file, which ignores it
        for bad, n, message in (("er", 8, "er takes er edge probability here, got 'er'"),
                                ("grid:2,3", 8, "grid takes no fields here, got 'grid:2,3'"),
                                ("grid:3", 8, "grid takes no fields here, got 'grid:3'"),
                                ("file", 8, "file takes path here, got 'file'"),
                                ("grid", 0, "n must be an integer >= 1, got 0"),
                                ("grid", -3, "n must be an integer >= 1, got -3"),
                                ("file:g.el", 0, "n must be an integer >= 1, got 0")):
            with pytest.raises(InvalidParameter, match=re.escape(message)):
                parse_graph(bad, n)

    def test_grid_side_is_ceiling_square_root(self):
        for n in range(1, 300):
            side = parse_graph("grid", n)[2][0]
            assert (side - 1) ** 2 < n <= side ** 2

    @pytest.mark.parametrize("family, n, run_spec", [
        ("er:0.5", 16, "er:16,0.5"),
        ("grid", 128, "grid:12,12"),
        ("clique", 5, "clique:5"),
        ("cliquefam", 3, "cliquefam:3"),
        ("path", 7, "path:7"),
        ("file:{p}", 99, "file:{p}"),
    ])
    def test_grammars_agree(self, family, n, run_spec, tmp_path):
        # an experiment spec at n is the run spec with its sized fields written out
        p = tmp_path / "g.el"
        p.write_text(TRIANGLE)
        family, run_spec = family.format(p=p), run_spec.format(p=p)
        name, head, values = parse_graph(family, n)
        run_name, run_head, run_values = parse_graph(run_spec)
        assert (run_name, run_head, run_values) == (name, head, values)
        assert head.build(*values, 5) == run_head.build(*run_values, 5)
        assert build_run_graph(run_spec, 3) == head.build(*values, graph_seed(3))
        assert head.param(*values) == run_head.param(*run_values)


class TestCmdRun:
    def test_path_sweep(self, capsys):
        code = main(["run", "--graph", "path:3", "--policy", "sweep", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "terminated=true" in out
        assert "mis_size=" in out

    def test_er_feedback_terminates(self, capsys):
        code = main(["run", "--graph", "er:100,0.5", "--policy", "feedback", "--seed", "7"])
        assert code == EXIT_OK
        assert "terminated=true" in capsys.readouterr().out

    def test_zero_probability_rejected(self, capsys):
        code = main(["run", "--graph", "path:3", "--policy", "const:0.0"])
        assert code == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_non_termination_exit_code(self, capsys):
        # p = 1 on an edge never resolves: both beep forever
        code = main(["run", "--graph", "clique:2", "--policy", "const:1.0",
                     "--seed", "0", "--max-rounds", "4"])
        assert code == EXIT_NOT_TERMINATED
        assert "terminated=false" in capsys.readouterr().out

    def test_show_mis_and_trace(self, capsys):
        code = main(["run", "--graph", "path:4", "--policy", "sweep", "--seed", "3",
                     "--show-mis", "--trace"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "mis=" in out
        assert "round 1:" in out

    def test_verification_failure_exit_code(self, monkeypatch, capsys):
        # the engine's sets always pass, so a failing check is forced
        monkeypatch.setattr(cli, "check_mis", lambda g, mis: VerifyReport(witness_edge=(0, 1)))
        code = main(["run", "--graph", "path:3", "--policy", "sweep", "--seed", "1"])
        assert code == EXIT_VERIFY_FAILED
        assert capsys.readouterr().out.splitlines()[-1] == "witness: edge (0,1)"

    def test_empty_graph_file(self, tmp_path, capsys):
        # n = 0: no node beeps, and beeps per node is written as 0
        p = tmp_path / "empty.el"
        p.write_text("0 0\n")
        assert main(["run", "--graph", f"file:{p}", "--policy", "feedback", "--seed", "1"]) == EXIT_OK
        assert capsys.readouterr().out == (f"policy=feedback graph=file:{p} n=0 seed=1 terminated=true"
                                           " rounds=0 total_beeps=0 beeps_per_node=0 mis_size=0\n")

    def test_bad_policy_is_usage_error(self, capsys):
        assert main(["run", "--graph", "path:3", "--policy", "bogus"]) == EXIT_USAGE

    @pytest.mark.parametrize("case, message", [
        (["--policy", "bogus"], "unknown policy 'bogus'"),
        (["--policy", "feedback", "--max-rounds", "0"], "max_rounds must be an integer >= 1, got 0"),
    ], ids=["policy", "max-rounds"])
    def test_bad_run_fails_before_any_build(self, case, message, monkeypatch, capsys):
        # run's twin of the batch test: a million-node grid is never built
        builds = [count_calls(monkeypatch, cli, builder) for builder in GRAPH_BUILDERS]
        runs = count_calls(monkeypatch, engine, "run")
        assert main(["run", "--graph", "grid:1024,1024", *case]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sum(map(len, builds)) == 0
        assert len(runs) == 0

    def test_feedback_initial_below_floor_is_usage_error(self, capsys):
        code = main(["run", "--graph", "path:3", "--policy", "feedback:init=1e-30"])
        assert code == EXIT_USAGE
        assert "initial probability must be in [2^-64, cap]" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["run", "--graph", "file:/no/such/file", "--policy", "sweep"]) == EXIT_USAGE

    def test_missing_subcommand(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_edge_list_header_over_cell_budget(self, tmp_path, capsys):
        # 2 * 8388609 cells is just over the budget of 2^24, and one edge line is all there is
        p = tmp_path / "g.el"
        p.write_text("4 8388609\n0 1\n")
        assert main(["run", "--graph", f"file:{p}", "--policy", "sweep"]) == EXIT_USAGE
        assert "over the budget" in capsys.readouterr().err

    def test_graph_over_cell_budget(self, monkeypatch, capsys):
        monkeypatch.setattr(beepmis.graph, "_CELL_BUDGET", 16)
        assert main(["run", "--graph", "path:16", "--policy", "sweep"]) == EXIT_OK
        capsys.readouterr()
        assert main(["run", "--graph", "path:17", "--policy", "sweep"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")


class TestRunVerifyRoundTrip:
    def test_emitted_mis_passes_cmd_verify(self, tmp_path, capsys):
        # persist a random graph, run on it, feed the printed MIS back to verify
        from beepmis import erdos_renyi, write_edge_list

        g = erdos_renyi(24, 0.3, 5)
        graph_file = tmp_path / "g.el"
        graph_file.write_text(write_edge_list(g))
        code = main(["run", "--graph", f"file:{graph_file}", "--policy", "feedback",
                     "--seed", "3", "--show-mis"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        mis_line = next(line for line in out.splitlines() if line.startswith("mis="))
        set_file = tmp_path / "s.txt"
        set_file.write_text("".join(f"{v}\n" for v in mis_line[4:].split()))
        assert main(["verify", str(graph_file), str(set_file)]) == EXIT_OK


class TestSeedResolution:
    def test_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("BEEPMIS_SEED", "123")
        main(["run", "--graph", "path:3", "--policy", "sweep"])
        assert "seed=123" in capsys.readouterr().out

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("BEEPMIS_SEED", "123")
        main(["run", "--graph", "path:3", "--policy", "sweep", "--seed", "9"])
        assert "seed=9" in capsys.readouterr().out

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("BEEPMIS_SEED", "abc")
        assert main(["run", "--graph", "path:3", "--policy", "sweep"]) == EXIT_USAGE


class TestCmdVerify:
    def write(self, tmp_path, graph_text, indices):
        g = tmp_path / "g.el"
        g.write_text(graph_text, encoding="utf-8")
        s = tmp_path / "s.txt"
        s.write_text("".join(f"{i}\n" for i in indices), encoding="utf-8")
        return str(g), str(s)

    def test_valid_set(self, tmp_path, capsys):
        g, s = self.write(tmp_path, PATH3, [1])
        assert main(["verify", g, s]) == EXIT_OK
        with open(s, "w") as f:
            f.write("\n1\n  \n\n")  # blank lines are skipped
        assert main(["verify", g, s]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == "ok: independent maximal set of size 1"

    def test_not_maximal(self, tmp_path, capsys):
        g, s = self.write(tmp_path, PATH3, [0])
        assert main(["verify", g, s]) == EXIT_VERIFY_FAILED
        assert "vertex 2 addable" in capsys.readouterr().out

    def test_not_independent(self, tmp_path, capsys):
        g, s = self.write(tmp_path, TRIANGLE, [0, 1])
        assert main(["verify", g, s]) == EXIT_VERIFY_FAILED
        assert "edge (0,1)" in capsys.readouterr().out

    def test_graph_parse_error(self, tmp_path, capsys):
        g, s = self.write(tmp_path, "2 1\n0 0\n", [0])
        assert main(["verify", g, s]) == EXIT_USAGE
        assert "line 2" in capsys.readouterr().err

    def test_set_parse_error(self, tmp_path, capsys):
        g = tmp_path / "g.el"
        g.write_text(PATH3)
        s = tmp_path / "s.txt"
        s.write_text("0\nnope\n")
        assert main(["verify", str(g), str(s)]) == EXIT_USAGE
        assert "line 2" in capsys.readouterr().err

    def test_graph_fields_are_ascii_decimal(self, tmp_path, capsys):
        # int() reads "+1" as 1 and the Arabic-Indic two as 2: a path 0-1-2
        g, s = self.write(tmp_path, "3 2\n0 +1\n1 \u0662\n", [1])
        assert main(["verify", g, s]) == EXIT_USAGE
        assert "line 2" in capsys.readouterr().err

    def test_set_entries_are_ascii_decimal(self, tmp_path, capsys):
        for entry in ("+1", "1_0", "\u0661"):
            g, s = self.write(tmp_path, PATH3, ["0", entry])
            assert main(["verify", g, s]) == EXIT_USAGE
            assert "line 2" in capsys.readouterr().err

    def test_crlf_and_tab_files(self, tmp_path, capsys):
        g, s = tmp_path / "g.el", tmp_path / "s.txt"
        g.write_bytes(b"3 2\r\n0\t1\r\n1 2\r\n")
        s.write_bytes(b"\t1 \r\n\r\n")
        assert main(["verify", str(g), str(s)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == "ok: independent maximal set of size 1"

    def test_only_lf_ends_a_line(self, tmp_path, capsys):
        # read with newline translation, a bare CR would end the header line
        g, s = tmp_path / "g.el", tmp_path / "s.txt"
        g.write_bytes(b"3 2\r0 1\r1 2\r")
        s.write_bytes(b"1\n")
        assert main(["verify", str(g), str(s)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: line 1: expected header 'n m'")

    def test_set_entries_split_only_at_spaces_and_tabs(self, tmp_path, capsys):
        g, s = self.write(tmp_path, PATH3, ["0", "\u00a01"])
        assert main(["verify", g, s]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: line 2: set entries must be integers")

    def test_set_line_holds_one_entry(self, tmp_path, capsys):
        g, s = self.write(tmp_path, PATH3, ["0", "1 2"])
        assert main(["verify", g, s]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: line 2: expected one node index, got '1 2'\n"

    def test_header_over_cell_budget(self, tmp_path, capsys):
        g, s = self.write(tmp_path, "1000000000 0\n", [0])
        assert main(["verify", g, s]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    def test_out_of_range_index(self, tmp_path, capsys):
        for index in (7, -1):
            g, s = self.write(tmp_path, PATH3, [index])
            assert main(["verify", g, s]) == EXIT_USAGE
            assert "line 1" in capsys.readouterr().err


class TestUndecodableFiles:
    # A byte that is not UTF-8 is a ParseError naming its line, not a traceback.
    @pytest.mark.parametrize("argv, graph, entries, line", [
        (["run", "--graph", "file:{g}", "--policy", "feedback"], b"\xff3 2\n0 1\n1 2\n", None, 1),
        (["run", "--graph", "file:{g}", "--policy", "feedback"], b"3 2\n0 1\n1 \xff2\n", None, 3),
        (["experiment", "--graph", "file:{g}", "--policy", "feedback", "--n", "1", "--trials", "1",
          "--output", "{out}"], b"\xff3 2\n0 1\n1 2\n", None, 1),
        (["verify", "{g}", "{s}"], PATH3.encode(), b"1\n\xff\n", 2),
        # the decode fault is reported first, though the header on line 1 is bad too
        (["run", "--graph", "file:{g}", "--policy", "feedback"], b"x y\n0 1\n1 \xff2\n", None, 3),
    ], ids=["run-header", "run-edge", "experiment-header", "verify-set", "run-two-faults"])
    def test_bad_byte_is_a_parse_error(self, argv, graph, entries, line, tmp_path, capsys):
        paths = {"g": tmp_path / "g.el", "s": tmp_path / "s.txt", "out": tmp_path / "x.csv"}
        paths["g"].write_bytes(graph)
        paths["s"].write_bytes(entries or b"1\n")
        assert main([a.format(**paths) for a in argv]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: line {line}: not UTF-8: b'\\xff'\n"
        assert not paths["out"].exists()

    def test_bad_byte_crosses_the_pool(self, tmp_path, monkeypatch, capsys):
        # two one-trial blocks go to two worker processes, and the worker's error reaches main
        patch_cpus(monkeypatch, 2)
        g = tmp_path / "g.el"
        g.write_bytes(b"3 2\n0 1\n1 \xff2\n")
        code = main(["experiment", "--graph", f"file:{g}", "--policy", "feedback", "--n", "1",
                     "--trials", "2", "--jobs", "2", "--output", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: line 3: not UTF-8: b'\\xff'\n"


class TestExperiment:
    def test_writes_csv_with_summary(self, tmp_path, capsys):
        out = tmp_path / "exp.csv"
        code = main(["experiment", "--graph", "er:0.5", "--policy", "feedback",
                     "--n", "16", "32", "--trials", "3", "--seed", "5",
                     "--output", str(out)])
        assert code == EXIT_OK
        records = read_records(str(out))
        assert len(records) == 6
        assert [r.n for r in records] == [16, 16, 16, 32, 32, 32]
        assert [r.trial for r in records] == [0, 1, 2, 0, 1, 2]
        printed = capsys.readouterr().out
        assert "policy=feedback" in printed and "n=16" in printed

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["experiment", "--graph", "er:0.5", "--policy", "sweep",
                "--n", "16", "--trials", "4", "--seed", "11"]
        main(argv + ["--output", str(a)])
        main(argv + ["--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_do_not_change_bytes(self, tmp_path, monkeypatch, capsys):
        # the pool runs large n first; rows come back sorted by n whatever the spec order
        # a seed-free graph (cliquefam) is built once per block and reused
        patch_cpus(monkeypatch, 3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for graph, sizes, nodes, trials, jobs in (
                ("er:0.5", ["16", "32"], [16, 32], 4, 2),
                ("er:0.5", ["32", "8", "16"], [8, 16, 32], 4, 2),
                ("cliquefam", ["5", "3", "4"], [18, 40, 75], 4, 2),
                ("cliquefam", ["5", "3", "4"], [18, 40, 75], 5, 3),  # blocks of 1, 2 and 2 trials
                ("er:0.5", ["32", "8", "16"], [8, 16, 32], 1, 2)):  # three one-trial blocks
            argv = ["experiment", "--graph", graph, "--policy", "feedback",
                    "--n", *sizes, "--trials", str(trials), "--seed", "2"]
            main(argv + ["--output", str(a), "--jobs", "1"])
            main(argv + ["--output", str(b), "--jobs", str(jobs)])
            assert a.read_bytes() == b.read_bytes()
            assert [r.n for r in read_records(str(a))][::trials] == nodes

    def test_blocks_cut_each_n_largest_first(self, monkeypatch):
        # serially one block of every trial per n; a pool gets near-equal
        # contiguous blocks, at most one per worker and n, and at least one task per worker
        blocks = count_calls(monkeypatch, cli, "run_trial")
        builds = count_calls(monkeypatch, cli, "path_graph")
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        patch_cpus(monkeypatch, 16)
        spec = ExperimentSpec("feedback", "path", (3, 5, 4), 5, 0)
        serial = run_experiment(spec)
        assert [args[1:] for args in blocks] == [(n, range(5)) for n in (5, 4, 3)]
        assert len(builds) == 3
        cuts = [range(0, 1), range(1, 3), range(3, 5)]
        for jobs, trials, expected in ((3, 5, cuts), (2, 1, [range(1)]), (9, 2, [range(1), range(1, 2)])):
            blocks.clear()
            builds.clear()
            records = run_experiment(replace(spec, trials=trials), jobs=jobs)
            assert records == [r for r in serial if r.trial < trials]
            assert [args[1:] for args in blocks] == [(n, t) for n in (5, 4, 3) for t in expected]
            assert len(builds) == len(blocks) > 1

    @pytest.mark.parametrize("case", [
        ["--graph", "grid", "--n", "10", "16", "12"],  # three sizes, one 4x4 grid
        ["--graph", "file:{path}", "--n", "5", "6"],  # a file ignores n
        ExperimentSpec("feedback", ("er:0.5", "er:0.9"), (8,), 2, 1),  # one head
        ExperimentSpec("feedback", ("er:0.5", "er:0.50"), (8,), 2, 1),  # one head and one cell, er:8,0.5
    ], ids=["grid-sizes", "file-sizes", "er-heads", "er-cells"])
    def test_colliding_graphs_fail_before_any_trial(self, case, tmp_path, monkeypatch, capsys):
        # two graphs under one (policy, graph, n, trial) identity would merge their rows
        runs = count_calls(monkeypatch, engine, "run")
        out = tmp_path / "x.csv"
        if isinstance(case, ExperimentSpec):
            with pytest.raises(InvalidParameter, match="given twice"):
                run_experiment(case)
        else:
            (tmp_path / "g.el").write_text(PATH3)
            argv = ["experiment", *(a.format(path=tmp_path / "g.el") for a in case),
                    "--policy", "feedback", "--trials", "2", "--output", str(out)]
            assert main(argv) == EXIT_USAGE
            assert "given twice" in capsys.readouterr().err
        assert len(runs) == 0
        assert not out.exists()

    @pytest.mark.parametrize("case, message", [
        (["experiment", "--graph", "er:0.5", "--policy", "feedback", "--n", "64", "--trials", "3",
          "--max-rounds", "0"], "max_rounds must be an integer >= 1, got 0"),
        (["lowerbound", "--m", "0", "--trials", "2"], "argument --m: value must be an integer >= 1, got 0"),
        (["experiment", "--graph", "er:0.5", "--policy", "feedback", "--n", "64", "0", "--trials", "3"],
         "argument --n: value must be an integer >= 1, got 0"),
        (["reproduce-fig3", "--n", "0"], "argument --n: value must be an integer >= 1, got 0"),
        (ExperimentSpec((), "er:0.5", (8,), 2, 1), "policies must not be empty"),
        (ExperimentSpec("feedback", (), (8,), 2, 1), "graphs must not be empty"),
        (ExperimentSpec("feedback", "bogus", (), 2, 1), "n_values must not be empty"),
    ], ids=["max-rounds", "lowerbound-m", "experiment-n", "fig3-n", "no-policies", "no-graphs",
            "no-sizes"])
    def test_bad_batch_fails_before_any_build(self, case, message, tmp_path, monkeypatch, capsys):
        builds = [count_calls(monkeypatch, cli, builder) for builder in GRAPH_BUILDERS]
        runs = count_calls(monkeypatch, engine, "run")
        out = tmp_path / "x.csv"
        if isinstance(case, ExperimentSpec):
            with pytest.raises(InvalidParameter, match=message):
                run_experiment(case)
        else:
            assert main([*case, "--output", str(out)]) == EXIT_USAGE
            assert message in capsys.readouterr().err
        assert sum(map(len, builds)) == 0
        assert len(runs) == 0
        assert not out.exists()

    def test_bare_size_stands_for_a_tuple_of_one(self):
        # as a bare string does for policies and graphs
        spec = ExperimentSpec("sweep", "path", 4, 1, 0)
        assert spec.n_values == (4,)
        assert run_experiment(spec) == run_experiment(ExperimentSpec("sweep", "path", (4,), 1, 0))
        with pytest.raises(InvalidParameter, match="n must be an integer >= 1, got 0"):
            run_experiment(ExperimentSpec("sweep", "path", 0, 1, 0))

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_fail_before_any_trial(self, jobs, tmp_path, monkeypatch, capsys):
        runs = count_calls(monkeypatch, engine, "run")
        out = tmp_path / "x.csv"
        code = main(["experiment", "--graph", "path", "--policy", "sweep", "--n", "4",
                     "--trials", "1", "--jobs", jobs, "--output", str(out)])
        assert code == EXIT_USAGE
        assert f"jobs must be an integer >= 1, got {jobs}" in capsys.readouterr().err
        assert len(runs) == 0
        assert not out.exists()

    def test_rows_over_budget_fail_before_any_graph(self, tmp_path, monkeypatch, capsys):
        # the check runs before the task list is built, so no trial is reached
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "run_trial", no_trial)
        resolved = count_calls(monkeypatch, cli, "parse_graph")
        trials = cli._ROW_BUDGET + 1
        with pytest.raises(TooLarge, match=f"batch of {trials} rows, over the budget"):
            run_experiment(ExperimentSpec("sweep", "path", (4,), trials, 0))
        out = tmp_path / "x.csv"
        assert main(["experiment", "--graph", "path", "--policy", "sweep", "--n", "4",
                     "--trials", str(trials), "--output", str(out)]) == EXIT_USAGE
        assert "over the budget" in capsys.readouterr().err
        assert len(resolved) == 0
        assert not out.exists()

    def test_row_budget_counts_every_row(self, monkeypatch):
        # policies x graphs x sizes x trials: 2 x 1 x 2 x 3 = 12 rows
        monkeypatch.setattr(cli, "_ROW_BUDGET", 12)
        spec = ExperimentSpec(("feedback", "sweep"), "path", (3, 4), 3, 0)
        assert len(run_experiment(spec)) == 12
        with pytest.raises(TooLarge, match="batch of 16 rows"):
            run_experiment(ExperimentSpec(("feedback", "sweep"), "path", (3, 4), 4, 0))

    def test_trial_seeds_follow_stable_mix(self, tmp_path, capsys):
        out = tmp_path / "exp.csv"
        main(["experiment", "--graph", "path", "--policy", "sweep",
              "--n", "5", "--trials", "2", "--seed", "77", "--output", str(out)])
        records = read_records(str(out))
        assert [r.seed for r in records] == [stable_mix(77, 5, 0), stable_mix(77, 5, 1)]

    def test_invalid_spec(self, tmp_path, capsys):
        code = main(["experiment", "--graph", "er:0.5", "--policy", "feedback",
                     "--n", "16", "--trials", "0", "--output", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE

    def test_pool_starts_one_worker_per_task_at_most(self, tmp_path, monkeypatch, capsys):
        # the executor forks max_workers processes at once, so two trials get two
        started = counting_pool(monkeypatch)
        patch_cpus(monkeypatch, 16)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["experiment", "--graph", "er:0.5", "--policy", "feedback",
                "--n", "8", "--trials", "2", "--seed", "3"]
        assert main(argv + ["--output", str(a), "--jobs", "16"]) == EXIT_OK
        assert started == [2]
        assert main(argv + ["--output", str(b), "--jobs", "1"]) == EXIT_OK
        assert started == [2]
        assert a.read_bytes() == b.read_bytes()

    def test_pool_starts_one_worker_per_cpu_at_most(self, tmp_path, monkeypatch, capsys):
        # --jobs 5000 would otherwise fork one worker per task at once; no process is started here
        started = counting_pool(monkeypatch)
        blocks = count_calls(monkeypatch, cli, "run_trial")
        patch_cpus(monkeypatch, 2)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["experiment", "--graph", "er:0.5", "--policy", "feedback",
                "--n", "8", "16", "--trials", "5", "--seed", "3"]
        assert main(argv + ["--output", str(a), "--jobs", "5000"]) == EXIT_OK
        assert started == [2]
        assert [args[1:] for args in blocks] == [(n, t) for n in (16, 8) for t in (range(2), range(2, 5))]
        assert main(argv + ["--output", str(b), "--jobs", "1"]) == EXIT_OK
        assert started == [2]
        assert a.read_bytes() == b.read_bytes()

    def test_cpu_count_bounds_the_pool_without_affinity(self, monkeypatch):
        # where the platform has no affinity call, the machine's CPU count bounds the pool,
        # and a count the platform cannot tell (None) runs the batch serially
        started = counting_pool(monkeypatch)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        spec = ExperimentSpec("feedback", "path", (4,), 5, 0)
        serial = run_experiment(spec)
        for cpus in (3, None):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert run_experiment(spec, jobs=5000) == serial
        assert started == [3]

    def test_unwritable_output(self, monkeypatch, capsys):
        # refused before the first trial, not after the last
        runs = count_calls(monkeypatch, engine, "run")
        code = main(["experiment", "--graph", "path", "--policy", "sweep",
                     "--n", "4", "--trials", "1", "--output", "/no/such/dir/out.csv"])
        assert code == EXIT_USAGE
        assert len(runs) == 0

    def test_empty_output_fails(self, tmp_path, monkeypatch, capsys):
        # an empty --output is a path that cannot be written, not a request for the default
        monkeypatch.chdir(tmp_path)
        runs = count_calls(monkeypatch, engine, "run")
        code = main(["experiment", "--graph", "path", "--policy", "sweep",
                     "--n", "4", "--trials", "1", "--output", ""])
        assert code == EXIT_USAGE
        assert os.listdir(tmp_path) == []
        assert len(runs) == 0

    def test_directory_output_fails(self, tmp_path, monkeypatch, capsys):
        runs = count_calls(monkeypatch, engine, "run")
        code = main(["reproduce-fig3", "--n", "8", "--output", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "is not a file" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []
        assert len(runs) == 0


def patch_cpus(monkeypatch, count):
    """Make this process see count usable CPUs, so a pool's size does not depend on the runner."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def counting_pool(monkeypatch):
    """Replace the executor with a SerialPool that records each pool's max_workers, and return that list."""
    started = []

    class CountingPool(SerialPool):
        def __init__(self, max_workers):
            started.append(max_workers)

    # run_experiment imports the executor only when it starts a pool
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", CountingPool)
    return started


class SerialPool:
    """Stand-in for ProcessPoolExecutor that maps in this process, so patched hooks see the tasks."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def count_calls(monkeypatch, owner, name):
    """Replace owner.name with a wrapper that counts its calls."""
    original = getattr(owner, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestEntryPoints:
    def test_experiment_reaches_module_globals(self, tmp_path, monkeypatch, capsys):
        # tools that time a layer replace these module attributes
        builds = count_calls(monkeypatch, cli, "erdos_renyi")
        runs = count_calls(monkeypatch, engine, "run")
        code = main(["experiment", "--graph", "er:0.5", "--policy", "feedback", "--n", "8",
                     "--trials", "2", "--seed", "1", "--output", str(tmp_path / "x.csv")])
        assert code == EXIT_OK
        assert len(builds) == 2 and len(runs) == 2

    def test_graph_built_once_per_trial(self, monkeypatch):
        builds = count_calls(monkeypatch, cli, "erdos_renyi")
        runs = count_calls(monkeypatch, engine, "run")
        spec = ExperimentSpec(("feedback", "sweep", "const:0.5"), "er:0.5", (8, 12), 3, 1)
        records = run_experiment(spec)
        assert len(builds) == 6 and len(runs) == 18
        assert [r.policy for r in records] == ["feedback"] * 6 + ["sweep"] * 6 + ["const:0.5"] * 6
        assert [(r.n, r.trial) for r in records[:6]] == [(n, t) for n in (8, 12) for t in range(3)]

    def test_seed_free_graph_built_once_per_batch(self, tmp_path, monkeypatch, capsys):
        # a clique family or a file ignores the seed: one build per cell for the
        # whole serial batch; G(n, p) is built for every trial.  A block holds
        # one graph at a time, and no graph outlives the batch or block that built it.
        families = count_calls(monkeypatch, cli, "clique_family")
        files = count_calls(monkeypatch, cli, "_load_graph_file")
        randoms = count_calls(monkeypatch, cli, "erdos_renyi")
        graphs, live_at_build = [], []
        for builder in ("clique_family", "_load_graph_file", "erdos_renyi", "path_graph"):
            def keep_weakly(*args, build=getattr(cli, builder)):
                live_at_build.append(sum(ref() is not None for ref in graphs))
                g = build(*args)
                graphs.append(weakref.ref(g.indptr))  # a Graph has no weakref slot; its arrays do
                return g
            monkeypatch.setattr(cli, builder, keep_weakly)
        (tmp_path / "g.el").write_text(PATH3)
        outputs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        argv = ["lowerbound", "--m", "3", "5", "4", "--trials", "4", "--seed", "9"]
        assert main([*argv, "--output", str(outputs[0])]) == EXIT_OK
        assert sorted(families) == [(3,), (4,), (5,)]
        assert len(graphs) == 3 and all(ref() is None for ref in graphs)
        spec = ExperimentSpec("sweep", ("er:0.5", f"file:{tmp_path / 'g.el'}", "path"), (4,), 3, 1)
        records = run_experiment(spec)
        assert len(randoms) == 3 and len(files) == 1
        assert len(graphs) == 3 + 5 and all(ref() is None for ref in graphs)
        block = cli.run_trial(spec, 4, range(3))
        assert block and len(randoms) == 6 and len(files) == 2
        assert len(graphs) == 8 + 5 and all(ref() is None for ref in graphs)
        assert live_at_build == [0] * 13
        # the same bytes and rows as a fresh build for every trial
        fresh = {name: replace(head, seeded=True) for name, head in cli._GRAPH_HEADS.items()}
        monkeypatch.setattr(cli, "_GRAPH_HEADS", fresh)
        assert main([*argv, "--output", str(outputs[1])]) == EXIT_OK
        assert len(families) == 3 + 12
        assert outputs[0].read_bytes() == outputs[1].read_bytes()
        assert run_experiment(spec) == records
        assert len(files) == 2 + 3

    @pytest.mark.parametrize("argv, code", [
        (["run", "--graph", "path:3", "--policy", "feedback", "--seed", "1"], EXIT_OK),
        (["run", "--graph", "wat:1", "--policy", "feedback"], EXIT_USAGE),
        (["run", "--graph", "path:50", "--policy", "feedback", "--seed", "1", "--max-rounds", "1"],
         EXIT_NOT_TERMINATED),
        (["verify", "triangle.el", "set.txt"], EXIT_VERIFY_FAILED),
    ], ids=["ok", "usage", "not-terminated", "verify-failed"])
    def test_process_exit_status(self, argv, code, tmp_path):
        # the module run as a program exits with main's return value
        (tmp_path / "triangle.el").write_text(TRIANGLE)
        (tmp_path / "set.txt").write_text("0\n1\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run([sys.executable, "-m", "beepmis.cli", *argv], cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True)
        assert done.returncode == code

    def test_spawned_workers_do_not_change_bytes(self, tmp_path):
        # a spawned worker imports beepmis.cli afresh and builds its own seed-free graphs
        src = os.path.dirname(os.path.dirname(cli.__file__))
        script = (
            "import multiprocessing\n"
            "from beepmis.cli import main\n"
            "if __name__ == '__main__':\n"
            "    multiprocessing.set_start_method('spawn')\n"
            "    for jobs in ('1', '2'):\n"
            "        assert main(['experiment', '--graph', 'cliquefam', '--policy', 'feedback',\n"
            "                     '--n', '5', '3', '4', '--trials', '4', '--seed', '2',\n"
            "                     '--jobs', jobs, '--output', f'jobs{jobs}.csv']) == 0\n"
        )
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "jobs1.csv").read_bytes() == (tmp_path / "jobs2.csv").read_bytes()

    def test_serial_commands_never_load_the_pool(self, tmp_path):
        # only --jobs > 1 imports the process pool and its modules
        src = os.path.dirname(os.path.dirname(cli.__file__))
        script = (
            "import sys\n"
            "from beepmis.cli import main\n"
            "assert main(['run', '--graph', 'path:3', '--policy', 'feedback']) == 0\n"
            "assert main(['experiment', '--graph', 'er:0.5', '--policy', 'sweep', '--n', '8',\n"
            "             '--trials', '2', '--jobs', '1', '--output', 'x.csv']) == 0\n"
            "print('concurrent.futures.process' in sys.modules)\n"
        )
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"

    def test_run_verify_and_graph_never_load_numpy_ma(self, tmp_path):
        # np.unique's first call imports numpy.ma, about 10 ms in a fresh
        # process: more than a whole grid:128,128 run, so no dedup may use it
        # (Graph(n, edges) is built too: it is the one build that dedups an array)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        script = (
            "import sys\n"
            "import numpy\n"
            "print('numpy.ma' in sys.modules)\n"
            "from beepmis import Graph, grid_graph, write_edge_list\n"
            "from beepmis.cli import main\n"
            "open('g.el', 'w').write(write_edge_list(grid_graph(4, 4)))\n"
            "open('s.txt', 'w').write('0\\n2\\n5\\n7\\n8\\n10\\n13\\n15\\n')\n"
            "for spec in ['path:3', 'grid:8,8', 'er:32,0.5', 'clique:4', 'cliquefam:3', 'file:g.el']:\n"
            "    for policy in ['feedback', 'sweep']:\n"
            "        assert main(['run', '--graph', spec, '--policy', policy, '--seed', '1']) == 0\n"
            "assert main(['verify', 'g.el', 's.txt']) == 0\n"
            "assert Graph(3, [(0, 1), (1, 0), (1, 2)]).edge_count == 2\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        if done.stdout.splitlines()[0] == "True":
            pytest.skip("numpy < 2 imports numpy.ma together with numpy")
        assert done.stdout.splitlines()[-1] == "False"


class TestLowerbound:
    def test_bad_policy_fails_before_any_trial(self, tmp_path, monkeypatch, capsys):
        runs = count_calls(monkeypatch, engine, "run")
        out = tmp_path / "lb.csv"
        code = main(["lowerbound", "--policies", "feedback", "bogus", "--m", "2",
                     "--trials", "2", "--output", str(out)])
        assert code == EXIT_USAGE
        assert len(runs) == 0
        assert not out.exists()

    def test_smoke(self, tmp_path, capsys):
        out = tmp_path / "lb.csv"
        code = main(["lowerbound", "--m", "2", "3", "--trials", "3", "--seed", "4",
                     "--output", str(out)])
        assert code == EXIT_OK
        records = read_records(str(out))
        assert len(records) == 12  # 2 policies x 2 m values x 3 trials
        assert {r.policy for r in records} == {"feedback", "sweep"}
        printed = capsys.readouterr().out
        assert "ratio=" in printed

    def test_paired_seeds_across_policies(self, tmp_path, capsys):
        out = tmp_path / "lb.csv"
        main(["lowerbound", "--m", "2", "--trials", "2", "--seed", "4",
              "--output", str(out)])
        records = read_records(str(out))
        fb = [r.seed for r in records if r.policy == "feedback"]
        sw = [r.seed for r in records if r.policy == "sweep"]
        assert fb == sw

    def test_policy_spelling_keeps_ratio_line(self, tmp_path, capsys):
        # records carry the canonical name "const:0.5" for either spelling
        outputs = []
        for spelling in ("const:0.5", "const:0.50"):
            out = tmp_path / f"{spelling}.csv"
            code = main(["lowerbound", "--m", "2", "--policies", "feedback", spelling,
                         "--trials", "2", "--seed", "4", "--output", str(out)])
            assert code == EXIT_OK
            stdout = capsys.readouterr().out.replace(str(out), "OUT")
            outputs.append((stdout, out.read_bytes()))
        assert "m=2 const:0.5/feedback mean-rounds ratio=" in outputs[0][0]
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize("args", [
        ["--m", "2", "--policies", "const:0.5", "const:0.50"],  # one name, const:0.5
        ["--m", "2", "--policies", "feedback", "feedback:f=2"],
        ["--m", "2", "2"],
    ])
    def test_repeated_policy_or_size_fails_before_any_trial(self, args, tmp_path, monkeypatch, capsys):
        # equal names or sizes would merge two groups into one, or write every row twice
        runs = count_calls(monkeypatch, engine, "run")
        out = tmp_path / "lb.csv"
        code = main(["lowerbound", *args, "--trials", "2", "--output", str(out)])
        assert code == EXIT_USAGE
        assert "given twice" in capsys.readouterr().err
        assert len(runs) == 0
        assert not out.exists()

    def test_close_constants_keep_apart(self, tmp_path, capsys):
        out = tmp_path / "lb.csv"
        code = main(["lowerbound", "--m", "2", "--policies", "const:0.1234567", "const:0.1234568",
                     "--trials", "2", "--output", str(out)])
        assert code == EXIT_OK
        records = read_records(str(out))
        assert [r.policy for r in records] == ["const:0.1234567"] * 2 + ["const:0.1234568"] * 2
        printed = capsys.readouterr().out
        assert printed.count(" trials=2 ") == 2 and " trials=4 " not in printed
        assert "m=2 const:0.1234568/const:0.1234567 mean-rounds ratio=" in printed

    def test_trivial_single_node_family(self, tmp_path, capsys):
        out = tmp_path / "lb.csv"
        main(["lowerbound", "--m", "1", "--policies", "sweep", "--trials", "2",
              "--seed", "0", "--output", str(out)])
        records = read_records(str(out))
        assert all(r.rounds == 1 and r.terminated for r in records)


class TestPresets:
    def test_fig3_small(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        code = main(["reproduce-fig3", "--n", "16", "--seed", "3", "--output", str(out)])
        assert code == EXIT_OK
        records = read_records(str(out))
        assert len(records) == 200  # 100 trials x 2 policies
        assert {r.policy for r in records} == {"feedback", "sweep"}
        assert "2.5*log2 n" in capsys.readouterr().out

    def test_fig5_small(self, tmp_path, capsys):
        out = tmp_path / "fig5.csv"
        code = main(["reproduce-fig5", "--n", "9", "--seed", "3", "--output", str(out)])
        assert code == EXIT_OK
        records = read_records(str(out))
        assert len(records) == 800  # 200 trials x 2 policies x 2 families
        assert {r.graph for r in records} == {"er", "grid"}


FIG_N = (16, 32, 64, 128, 256, 512, 1024)


class TestBatchSurface:
    """Flags, defaults and default files of the batch commands: no new knob, no lost flag."""

    OPTIONS = {
        "experiment": {"--graph", "--policy", "--n", "--trials", "--seed", "--max-rounds",
                       "--output", "--jobs"},
        "lowerbound": {"--m", "--policies", "--trials", "--seed", "--max-rounds", "--output",
                       "--jobs"},
        "reproduce-fig3": {"--n", "--seed", "--output", "--jobs"},
        "reproduce-fig5": {"--n", "--seed", "--output", "--jobs"},
    }

    def test_option_strings(self):
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        for name, options in self.OPTIONS.items():
            found = {s for action in commands[name]._actions for s in action.option_strings}
            assert found == options | {"-h", "--help"}, name

    @pytest.mark.parametrize("argv, spec", [
        (["experiment", "--graph", "path", "--policy", "sweep", "--n", "3"],
         ExperimentSpec(("sweep",), ("path",), (3,), 100, 0)),
        (["lowerbound"], ExperimentSpec(("feedback", "sweep"), ("cliquefam",), (4, 6, 8, 10), 100, 0)),
        (["reproduce-fig3"], ExperimentSpec(("feedback", "sweep"), ("er:0.5",), FIG_N, 100, 0)),
        (["reproduce-fig5"], ExperimentSpec(("feedback", "sweep"), ("er:0.5", "grid"), FIG_N, 200, 0)),
    ])
    def test_default_spec(self, argv, spec, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("BEEPMIS_SEED", raising=False)
        calls = []
        monkeypatch.setattr(cli, "run_experiment", lambda given, jobs=1: calls.append((given, jobs)) or [])
        assert main(argv) == EXIT_OK
        assert calls == [(spec, 1)]

    @pytest.mark.parametrize("argv, output", [
        (["experiment", "--graph", "path", "--policy", "sweep", "--n", "3", "--trials", "1"],
         "experiment.csv"),
        (["lowerbound", "--m", "1", "--trials", "1"], "lowerbound.csv"),
        (["reproduce-fig3", "--n", "1"], "fig3.csv"),
        (["reproduce-fig5", "--n", "1"], "fig5.csv"),
    ])
    def test_default_output_file(self, argv, output, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_OK
        assert os.listdir(tmp_path) == [output]
        assert capsys.readouterr().out.endswith(f"rows to {output}\n")
