"""Command-line entry point: single runs, batch experiments, presets, verification.

Exit codes: 0 success, 1 usage or parse error, 2 run hit the round cap,
3 verification failure.  All experiment output is reproducible from the
master seed; the environment variable BEEPMIS_SEED is used when --seed is
not given.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace
from math import isqrt
from numbers import Integral
from typing import Callable

from . import engine
from .errors import (TEXT_READERS, BeepMISError, InvalidParameter, ParseError, TooLarge, as_int, parse_decimal,
                     read_text, text_fields, text_lines)
from .graph import (
    Graph,
    clique_family,
    complete_graph,
    erdos_renyi,
    grid_graph,
    parse_edge_list,
    path_graph,
)
from .metrics import (
    CSV_HEADER,
    TrialRecord,
    filter_terminated,
    format_float,
    record_from_run,
    record_to_row,
    reference_curves,
    summarize,
    write_records,
)
from .policy import parse_policy
from .seeding import graph_seed, run_seed, stable_mix
from .verify import check_mis

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_TERMINATED = 2
EXIT_VERIFY_FAILED = 3

SEED_ENV_VAR = "BEEPMIS_SEED"

# Reproduction presets: feedback vs sweep over powers of two, fixed trial counts.
FIG_POLICIES = ("feedback", "sweep")
FIG_N_VALUES = (16, 32, 64, 128, 256, 512, 1024)

# Most rows a batch may hold.  A batch keeps every task and every record until
# its last trial, and a serial batch of 8,000 to 32,000 one-row trials peaked
# at about 560 B per row under tracemalloc, so 2^20 rows stay near 0.5 GiB.
# That is 187 times the largest preset (reproduce-fig5, 5,600 rows), so a
# mistyped --trials fails with TooLarge before it exhausts memory.
_ROW_BUDGET = 1 << 20


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want exit 1
        raise InvalidParameter(message)


def _integer(minimum: int | None = None) -> Callable[[str], int]:
    """argparse type of an integer flag: ASCII decimal of at least minimum, so the error names the flag."""
    def read(text: str) -> int:
        try:
            return as_int(parse_decimal(text), "value", minimum)
        except ValueError as exc:  # ParseError and InvalidParameter are ones
            raise argparse.ArgumentTypeError(str(exc)) from None
    return read


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative batch experiment: policies x graph families x sizes x trials.

    ``policies`` and ``graphs`` hold grammar strings; a bare string, like a
    bare integer in ``n_values``, stands for a tuple of one.  The per-trial
    seed is stable_mix(master_seed, n, trial_index) with n the requested size
    value, so trials are independent of execution order and every policy and
    family of a trial shares it.
    """

    policies: tuple[str, ...]
    graphs: tuple[str, ...]
    n_values: tuple[int, ...]
    trials: int
    master_seed: int
    max_rounds: int | None = None

    def __post_init__(self):
        for name, bare in (("policies", str), ("graphs", str), ("n_values", Integral)):
            if isinstance(getattr(self, name), bare):
                object.__setattr__(self, name, (getattr(self, name),))


@dataclass(frozen=True)
class GraphHead:
    """One head of the graph grammar, e.g. ``er`` or ``grid``; see parse_graph."""

    fields: tuple[tuple[str, str], ...]   # (label, type name) per field, in single-run order
    size: Callable[[int], tuple]          # n -> values of the leading size fields
    build: Callable[..., Graph]           # (*values, seed) -> Graph
    param: Callable[..., str]             # (*values) -> CSV param column
    seeded: bool = False                  # whether build reads the seed


# The builders are looked up by name when called, not stored, so a caller that
# replaces a module attribute (e.g. to time it) reaches every graph build.
_GRAPH_HEADS = {
    "er": GraphHead((("er node count", "int"), ("er edge probability", "float")), lambda n: (n,),
                    lambda n, p, seed: erdos_renyi(n, p, seed), lambda n, p: format_float(p), seeded=True),
    "grid": GraphHead((("rows", "int"), ("cols", "int")), lambda n: (isqrt(n - 1) + 1,) * 2,
                      lambda r, c, seed: grid_graph(r, c), lambda r, c: f"{r}x{c}"),
    "clique": GraphHead((("clique size", "int"),), lambda n: (n,),
                        lambda d, seed: complete_graph(d), str),
    "cliquefam": GraphHead((("family parameter", "int"),), lambda n: (n,),
                           lambda m, seed: clique_family(m), str),
    "path": GraphHead((("path length", "int"),), lambda n: (n,),
                      lambda n, seed: path_graph(n), lambda n: ""),
    "file": GraphHead((("path", "str"),), lambda n: (),
                      lambda path, seed: _load_graph_file(path), os.path.basename),
}


def parse_graph(spec: str, n: int | None = None) -> tuple[str, GraphHead, tuple]:
    """Resolve a graph spec to its head's name, the head and the typed values.

    Without n, spec is in the single-run grammar, which gives every field of
    the head: ``er:<n>,<p>`` | ``grid:<r>,<c>`` | ``clique:<d>`` |
    ``cliquefam:<m>`` | ``path:<n>`` | ``file:<path>``.  With n, spec is in
    the experiment grammar: an experiment spec at n is the single-run spec
    with its size fields written out, so ``head.size(n)`` gives the leading
    fields and spec the rest: ``er:<p>`` | ``grid`` | ``clique`` |
    ``cliquefam`` | ``path`` | ``file:<path>``.  n is the node
    count for er and path, the clique size, the family parameter m, or the
    side of the smallest square grid with at least n nodes; a file ignores
    it, but n must still be an integer >= 1.  Either way the graph is
    ``head.build(*values, seed)``, its CSV param column ``head.param(*values)``.
    """
    name, sep, rest = spec.partition(":")
    head = _GRAPH_HEADS.get(name)
    if head is None:
        raise InvalidParameter(f"unknown graph {spec!r}")
    sized = () if n is None else head.size(as_int(n, "n", 1))
    fields = head.fields[len(sized):]
    texts = (rest.split(",") if len(fields) > 1 else [rest]) if sep else []
    if len(texts) != len(fields):
        labels = ",".join(label for label, _ in fields) or "no fields"
        raise InvalidParameter(f"{name} takes {labels} here, got {spec!r}")
    values = []
    for text, (label, kind) in zip(texts, fields):
        try:
            values.append(TEXT_READERS[kind](text))
        except ValueError:
            raise InvalidParameter(f"{label} must be {kind}, got {text!r}") from None
    return name, head, sized + tuple(values)


def _load_graph_file(path: str) -> Graph:
    return parse_edge_list(read_text(path))


def build_run_graph(spec: str, master_seed: int) -> Graph:
    """Build a single-run graph spec (see parse_graph); random families draw
    from a sub-seed of the master seed."""
    _, head, values = parse_graph(spec)
    return head.build(*values, graph_seed(master_seed))


def run_trial(spec: ExperimentSpec, n: int, trials: range) -> list[TrialRecord]:
    """Execute a block of trials at one n; pure function of the arguments.

    A block holds one graph at a time: a seed-free graph is built once per
    block, a seeded one per trial and dropped before the next is built, and
    every policy runs on it.  Records come back graph-major, then by trial,
    then in policy order.  It keeps the name run_trial and its three
    parameters because tools that time each layer wrap it by name.
    """
    policies = [parse_policy(p) for p in spec.policies]
    records = []
    for graph in spec.graphs:
        name, head, values = parse_graph(graph, n)
        param = head.param(*values)
        g = None  # a block holds one graph at a time: each goes before the next is built
        for trial in trials:
            trial_seed = stable_mix(spec.master_seed, n, trial)
            if head.seeded or g is None:
                g = None
                g = head.build(*values, graph_seed(trial_seed))
            for policy in policies:
                result = engine.run(g, policy, run_seed(trial_seed), spec.max_rounds)
                records.append(record_from_run(policy.name, name, param, trial, trial_seed, result))
    return records


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> list[TrialRecord]:
    """Run trials x |n_values| trials of every (graph family, policy) pair.

    Each n's trials are cut into at most one contiguous block per worker, so
    a seed-free graph is built once per n serially and at most once per
    worker and n under --jobs.  Rows come back graph-major, then
    policy-major, then sorted by (n, trial), whatever the schedule.
    """
    # Every count is checked before any graph is built: these here, each n by parse_graph.
    for label in ("policies", "graphs", "n_values"):
        if not getattr(spec, label):
            raise InvalidParameter(f"{label} must not be empty")
    spec = replace(spec, trials=as_int(spec.trials, "trials", 1),
                   max_rounds=None if spec.max_rounds is None else as_int(spec.max_rounds, "max_rounds", 1))
    jobs = as_int(jobs, "jobs", 1)
    rows = len(spec.policies) * len(spec.graphs) * len(spec.n_values) * spec.trials
    if rows > _ROW_BUDGET:
        raise TooLarge(f"batch of {rows} rows, over the budget of {_ROW_BUDGET}")
    # (policy, graph, n, trial) names one row, so every policy name, graph
    # head and (graph, n) cell, written in the single-run grammar, is given once.
    resolved = [[parse_graph(graph, n) for n in spec.n_values] for graph in spec.graphs]
    cells = [f"{name}:{','.join(map(str, values))}" for row in resolved for name, _, values in row]
    heads = [row[0][0] for row in resolved]
    names = [parse_policy(policy).name for policy in spec.policies]
    for label, values in (("policy", names), ("graph", heads), ("graph", cells)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise InvalidParameter(f"{label} {repeated[0]} is given twice")
    # Largest n first, so a pool ends on its cheapest blocks and no worker
    # idles long while another finishes; a pool forks all its workers at the
    # first task, so it starts no more of them than there are tasks or CPUs
    # this process may run on.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(jobs, len(spec.n_values) * spec.trials, cpus)
    cuts = min(workers, spec.trials)
    tasks = [(spec, n, range(spec.trials * i // cuts, spec.trials * (i + 1) // cuts))
             for n in sorted(spec.n_values, reverse=True) for i in range(cuts)]
    if workers <= 1:
        blocks = list(map(run_trial, *zip(*tasks)))
    else:
        # Imported here: the pool's modules (multiprocessing, socket,
        # subprocess) cost a serial command tens of milliseconds of start-up.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(run_trial, *zip(*tasks)))
    # Each head's node count is one-to-one in its cell, so (n, trial) is unique per pair.
    rank = {pair: i for i, pair in enumerate((head, name) for head in heads for name in names)}
    return sorted((r for block in blocks for r in block), key=lambda r: (rank[r.graph, r.policy], r.n, r.trial))


def _groups(records: list[TrialRecord]) -> dict[tuple[str, str, int], list[TrialRecord]]:
    """Records by (policy, graph, n), keys in order of first appearance."""
    groups: dict[tuple[str, str, int], list[TrialRecord]] = {}
    for r in records:
        groups.setdefault((r.policy, r.graph, r.n), []).append(r)
    return groups


def print_summaries(records: list[TrialRecord]) -> None:
    """One line of summary statistics per (policy, graph, n) group."""
    for (policy, graph_name, n), batch in _groups(records).items():
        done = filter_terminated(batch)
        prefix = f"policy={policy} graph={graph_name} n={n} trials={len(batch)} terminated={len(done)}"
        if not done:
            print(f"{prefix} (no terminated trials)")
            continue
        rounds = summarize(done, "rounds")
        beeps = summarize(done, "beeps_per_node")
        mis = summarize(done, "mis_size")
        print(
            f"{prefix} rounds mean={rounds.mean:.2f} sd={rounds.stddev:.2f}"
            f" beeps/node mean={beeps.mean:.3f} mis mean={mis.mean:.1f}"
        )


def _resolve_seed(arg_seed: int | None) -> int:
    if arg_seed is not None:
        return arg_seed
    env = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return parse_decimal(env)
    except ParseError:
        raise InvalidParameter(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None


# The TrialRecord fields of run's result line, in its order; each is written as in the CSV.
_RUN_LINE = ("policy", "graph", "n", "seed", "terminated", "rounds", "total_beeps", "beeps_per_node",
             "mis_size")


def cmd_run(args) -> int:
    master = _resolve_seed(args.seed)
    policy = parse_policy(args.policy)  # a bad policy or round cap is refused before the build
    if args.max_rounds is not None:
        as_int(args.max_rounds, "max_rounds", 1)
    g = build_run_graph(args.graph, master)
    result = engine.run(g, policy, run_seed(master), args.max_rounds, keep_trace=args.trace)
    record = record_from_run(policy.name, args.graph, "", 0, master, result)
    row = dict(zip(CSV_HEADER, record_to_row(record)))
    print(" ".join(f"{name}={row[name]}" for name in _RUN_LINE))
    if args.show_mis:
        print("mis=" + " ".join(str(v) for v in sorted(result.mis)))
    if args.trace and result.trace:
        for i, outcome in enumerate(result.trace, start=1):
            print(
                f"round {i}: beeped={sorted(outcome.beeped)}"
                f" joined={sorted(outcome.joined_mis)}"
                f" deactivated={sorted(outcome.newly_inactive)}"
            )
    return _report_mis(g, result.mis) if result.terminated else EXIT_NOT_TERMINATED


def _report_mis(g: Graph, candidate) -> int:
    """Check candidate as an MIS of g, print the witnesses of a failure and return the exit code."""
    report = check_mis(g, candidate)
    if report.witness_edge:
        u, v = report.witness_edge
        print(f"witness: edge ({u},{v})")
    if report.witness_vertex is not None:
        print(f"witness: vertex {report.witness_vertex} addable")
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def cmd_batch(args) -> int:
    """Run the command's experiment, write its CSV to --output and report on it."""
    spec = ExperimentSpec(tuple(args.policies), tuple(args.graphs), tuple(args.n), args.trials,
                          _resolve_seed(args.seed), args.max_rounds)
    output = args.command.removeprefix("reproduce-") + ".csv" if args.output is None else args.output
    # A path that cannot be a file is refused before the first trial, not after the last.
    if not output or os.path.isdir(output) or not os.path.isdir(os.path.dirname(output) or "."):
        raise InvalidParameter(f"--output {output!r} is not a file in an existing directory")
    records = run_experiment(spec, jobs=args.jobs)
    write_records(output, records)
    args.report(records, args)
    print(f"wrote {len(records)} rows to {output}")
    return EXIT_OK


def _report_summaries(records: list[TrialRecord], args) -> None:
    print_summaries(records)


def _report_lowerbound(records: list[TrialRecord], args) -> None:
    print_summaries(records)
    # Paired comparison: same trial seeds for every policy at a given m.  Records
    # carry the canonical policy names, in --policies order and each once.
    names = list(dict.fromkeys(r.policy for r in records))
    if len(names) == 2:
        first, second = names
        done = {(policy, batch[0].param): filter_terminated(batch)
                for (policy, _, _), batch in _groups(records).items()}
        for m in args.n:
            a, b = done.get((first, str(m))), done.get((second, str(m)))
            if a and b:
                ratio = summarize(b, "rounds").mean / summarize(a, "rounds").mean
                print(f"m={m} {second}/{first} mean-rounds ratio={ratio:.3f}")


def _report_fig3(records: list[TrialRecord], args) -> None:
    """Per n, each policy's mean rounds next to its reference curve."""
    groups = _groups(records)
    for n in args.n:
        fb, sw = (filter_terminated(groups.get((policy, "er", n), [])) for policy in FIG_POLICIES)
        if n >= 2 and fb and sw:
            log2n, log2n_sq, scaled = reference_curves(n)
            print(
                f"n={n} feedback mean={summarize(fb, 'rounds').mean:.2f} (2.5*log2 n={scaled:.2f})"
                f" sweep mean={summarize(sw, 'rounds').mean:.2f} (log2^2 n={log2n_sq:.2f})"
            )


# The reproduction presets: (command, help, graph families, trials, report).
PRESETS = (
    ("reproduce-fig3", "round-count scaling preset (100 trials)", ("er:0.5",), 100, _report_fig3),
    ("reproduce-fig5", "beeps-per-node scaling preset (200 trials)", ("er:0.5", "grid"), 200,
     _report_summaries),
)


def cmd_verify(args) -> int:
    g = _load_graph_file(args.graph_file)
    candidate = set()
    for i, raw in enumerate(text_lines(read_text(args.set_file)), start=1):
        fields = text_fields(raw)
        if not fields:
            continue
        if len(fields) != 1:
            raise ParseError(f"expected one node index, got {raw!r}", i)
        try:
            node = parse_decimal(fields[0])
        except ValueError:
            raise ParseError(f"set entries must be integers, got {raw!r}", i) from None
        if not 0 <= node < g.node_count:
            raise ParseError(f"set entry {node} out of range for {g.node_count} nodes", i)
        candidate.add(node)
    code = _report_mis(g, candidate)
    if code == EXIT_OK:
        print(f"ok: independent maximal set of size {len(candidate)}")
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="beepmis", description=__doc__)
    seed_help = f"master seed (default: ${SEED_ENV_VAR} or 0)"
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a single run")
    p_run.add_argument("--graph", required=True,
                       help="er:<n>,<p> | grid:<r>,<c> | clique:<d> | cliquefam:<m> | path:<n> | file:<path>")
    p_run.add_argument("--policy", required=True,
                       help="feedback | feedback:f=<f>,init=<p>,cap=<c> | sweep | const:<p>")
    p_run.add_argument("--seed", type=_integer(), default=None, help=seed_help)
    p_run.add_argument("--max-rounds", type=_integer(), default=None, dest="max_rounds")
    p_run.add_argument("--show-mis", action="store_true", dest="show_mis")
    p_run.add_argument("--trace", action="store_true", help="print per-round beeped/joined/deactivated sets")
    p_run.set_defaults(func=cmd_run)

    # The options every batch command shares; each sets what else it runs.
    batch = argparse.ArgumentParser(add_help=False)
    batch.add_argument("--seed", type=_integer(), default=None, help=seed_help)
    batch.add_argument("--jobs", type=_integer(), default=1)
    batch.add_argument("--output", help='CSV path (default: <command without "reproduce-">.csv)')
    batch.set_defaults(func=cmd_batch, max_rounds=None)

    p_exp = sub.add_parser("experiment", parents=[batch], help="run a trial batch and write CSV")
    p_exp.add_argument("--graph", nargs=1, required=True, dest="graphs", metavar="GRAPH",
                       help="er:<p> | grid | clique | cliquefam | path | file:<path>")
    p_exp.add_argument("--policy", nargs=1, required=True, dest="policies", metavar="POLICY")
    p_exp.add_argument("--n", type=_integer(1), nargs="+", required=True, help="size values")
    p_exp.add_argument("--trials", type=_integer(), default=100)
    p_exp.add_argument("--max-rounds", type=_integer(), default=None, dest="max_rounds")
    p_exp.set_defaults(report=_report_summaries)

    p_low = sub.add_parser("lowerbound", parents=[batch], help="sweep vs feedback on clique families")
    p_low.add_argument("--m", type=_integer(1), nargs="+", default=[4, 6, 8, 10], dest="n", metavar="M")
    p_low.add_argument("--policies", nargs="+", default=["feedback", "sweep"])
    p_low.add_argument("--trials", type=_integer(), default=100)
    p_low.add_argument("--max-rounds", type=_integer(), default=None, dest="max_rounds")
    p_low.set_defaults(graphs=("cliquefam",), report=_report_lowerbound)

    p_ver = sub.add_parser("verify", help="check a node set against a graph file")
    p_ver.add_argument("graph_file")
    p_ver.add_argument("set_file", help="one node index per line")
    p_ver.set_defaults(func=cmd_verify)

    for name, help_text, graphs, trials, report in PRESETS:
        p_fig = sub.add_parser(name, parents=[batch], help=help_text)
        p_fig.add_argument("--n", type=_integer(1), nargs="+", default=FIG_N_VALUES)
        p_fig.set_defaults(graphs=graphs, policies=FIG_POLICIES, trials=trials, report=report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (BeepMISError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
