"""One CLI pass, optionally traced layer by layer.

The package carries no tracing code, so the traced pass records its spans
from out here: it swaps each layer's entry point for a wrapper while the
pass runs and restores it afterwards.  A span holds its name, start, end,
parent span and trial id; the spans of one pass stay in memory until the
caller writes them out.

Work the traced pass adds on top of the command (replaying a run with
``keep_trace`` to count node-rounds, checking the MIS, measuring the
neighbour-index memory with tracemalloc) runs in off-clock spans.  Their
time is taken out of the pass wall time and of every enclosing span, and
layer calls made inside them record no spans of their own.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import hashlib
import io
import os
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter

import beepmis.cli as cli
import beepmis.engine as engine
from beepmis.graph import Graph
from beepmis.policy import parse_policy
from beepmis.verify import check_mis

GRAPH_BUILDERS = ("erdos_renyi", "grid_graph", "clique_family", "complete_graph", "path_graph")
POLICIES = ("feedback", "sweep")


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 for a root
    trial: int   # 0 outside a batch trial, else the trial's running number in the pass
    clock: bool = True
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.trial = 0
        self._stack: list[int] = []
        self._off_clock = False

    @contextlib.contextmanager
    def span(self, name: str, clock: bool = True, **attrs):
        if self._off_clock:  # already timed as part of the enclosing off-clock span
            yield None
            return
        s = Span(name, perf_counter(), self._stack[-1] if self._stack else -1, self.trial, clock, attrs=attrs)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        self._off_clock = not clock
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._stack.pop()
            self._off_clock = False

    def off_clock_s(self) -> float:
        return sum(s.duration for s in self.spans if not s.clock)


@contextlib.contextmanager
def traced(tracer: Tracer, verify_off_clock: bool):
    """Wrap every layer entry point the CLI reaches so it records into tracer.

    ``verify_off_clock`` checks each run's MIS after the fact; commands
    that already call ``check_mis`` themselves (``run``) pass False and get
    their own on-clock verify span instead.
    """
    patches = []

    def patch(owner, name, make_wrapper):
        original = getattr(owner, name)
        patches.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))

    def spanned(name, after=None):
        def make_wrapper(original):
            def wrapper(*args, **kwargs):
                with tracer.span(name) as s:
                    result = original(*args, **kwargs)
                if s is not None and after is not None:
                    after(s, args, result)
                return result
            return wrapper
        return make_wrapper

    def count_edges(s, args, g):
        s.attrs["edges"] = g.edge_count

    def count_bytes(s, args, result):
        s.attrs["bytes"] = os.path.getsize(args[0])

    def record_ok(s, args, report):
        s.attrs["ok"] = report.ok

    def wrap_trial(original):
        def run_trial(spec, n, trial):
            tracer.trial += 1
            with tracer.span("cli.run_trial"):
                return original(spec, n, trial)
        return run_trial

    masks_measured: set[int] = set()

    def wrap_run(original):
        def run(graph, policy, seed, max_rounds=None, keep_trace=False):
            with tracer.span("engine.run", policy=policy.name) as s:
                result = original(graph, policy, seed, max_rounds, keep_trace)
            if s is not None:
                _audit_run(tracer, original, s, graph, policy, seed, max_rounds, result,
                           verify_off_clock, masks_measured)
            return result
        return run

    try:
        for name in GRAPH_BUILDERS:
            patch(cli, name, spanned("graph.build", count_edges))
        patch(Graph, "adjacency_masks", spanned("graph.masks"))
        patch(engine, "run", wrap_run)
        patch(cli, "check_mis", spanned("verify.check_mis", record_ok))
        patch(cli, "write_records", spanned("metrics.write_records", count_bytes))
        patch(cli, "format_float", spanned("metrics.format_float"))
        patch(cli, "run_experiment", spanned("cli.run_experiment"))
        patch(cli, "run_trial", wrap_trial)
        yield tracer
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)


def _audit_run(tracer, run, s, graph, policy, seed, max_rounds, result, verify_off_clock, masks_measured):
    """Off-clock counts and checks for one engine run, stored on its span.

    The run is replayed with ``keep_trace`` under its own policy, for the
    exact node-round count and a determinism check, and under every other
    policy in POLICIES, so each policy's cost per node-round is measured on
    the graphs of every workload, including those whose command runs only
    one policy.
    """
    policies = {name: parse_policy(name) for name in POLICIES}
    policies[policy.name] = policy
    for name, p in policies.items():
        with tracer.span("engine.replay", clock=False, policy=name) as r:
            replay = run(graph, p, seed, max_rounds, keep_trace=True)
        active = graph.node_count
        node_rounds = 0
        for outcome in replay.trace:
            node_rounds += active
            active -= len(outcome.newly_inactive)
        r.attrs["node_rounds"] = node_rounds
        if p is policy:
            s.attrs.update(
                node_rounds=node_rounds,
                beeps=result.total_beeps,
                joins=len(result.mis),
                replay_ok=(replay.mis, replay.rounds, replay.beep_counts)
                == (result.mis, result.rounds, result.beep_counts),
            )
    if verify_off_clock:
        with tracer.span("verify.check_mis", clock=False) as c:
            c.attrs["ok"] = result.terminated and check_mis(graph, result.mis).ok
    if graph.node_count not in masks_measured:
        masks_measured.add(graph.node_count)
        with tracer.span("graph.masks_memory", clock=False) as m:
            fresh = copy.copy(graph)  # the copy starts without the cached masks
            tracemalloc.start()
            try:
                fresh.adjacency_masks()
                m.attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()


@dataclass
class PassResult:
    rc: int
    wall_s: float       # on-clock wall time of cli.main
    digest: str         # sha256 of the CSV, or of stdout for commands without one
    trials: int
    unterminated: int
    spans: list | None = None
    maxrss_mib: float | None = None  # set by the fresh process that ran the pass


def run_pass(argv: list[str], csv_path: str | None, tracer: Tracer | None = None,
             verify_off_clock: bool = True) -> PassResult:
    """Run one CLI command in this process through ``beepmis.cli.main``."""
    out = io.StringIO()
    hooks = traced(tracer, verify_off_clock) if tracer else contextlib.nullcontext()
    root = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), hooks:
        start = perf_counter()
        with root as main_span:
            rc = cli.main(argv)
        wall = perf_counter() - start
    stdout = out.getvalue().encode()
    if tracer:
        wall -= tracer.off_clock_s()
        main_span.attrs["stdout_bytes"] = len(stdout)
    if csv_path is None:
        return PassResult(rc, wall, _sha256(stdout), 1, int(rc == cli.EXIT_NOT_TERMINATED),
                          tracer.spans if tracer else None)
    with open(csv_path, "rb") as f:
        data = f.read()
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    unterminated = sum(r["terminated"] != "true" for r in rows)
    return PassResult(rc, wall, _sha256(data), len(rows), unterminated, tracer.spans if tracer else None)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def nesting_errors(spans: list[Span]) -> list[str]:
    """Spans that do not lie inside their parent's interval."""
    errors = []
    for i, s in enumerate(spans):
        if s.end < s.start:
            errors.append(f"span {i} {s.name} ends before it starts")
        if s.parent >= 0:
            p = spans[s.parent]
            if not (p.start <= s.start and s.end <= p.end):
                errors.append(f"span {i} {s.name} lies outside parent {s.parent} {p.name}")
    return errors


def audit_failures(spans: list[Span]) -> int:
    """Runs whose MIS check or replay disagreed, as recorded by the traced pass."""
    bad = sum(1 for s in spans if s.name == "verify.check_mis" and not s.attrs["ok"])
    return bad + sum(1 for s in spans if s.name == "engine.run" and not s.attrs["replay_ok"])


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one traced pass, named as in BENCHMARK.json."""
    own = self_times(spans)

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in spans if s.name == name)

    engine_s = sum(t for s, t in zip(spans, own) if s.name == "engine.run")
    node_rounds = attr_sum("engine.run", "node_rounds")
    beeps = attr_sum("engine.run", "beeps")
    checks = [s.attrs["ok"] for s in spans if s.name == "verify.check_mis"]
    root = next(s for s in spans if s.name == "cli.main")
    metrics = {
        "graph.build_s": total("graph.build"),
        "graph.masks_s": total("graph.masks"),
        "graph.masks_peak_mib": max((s.attrs["peak_bytes"] for s in spans if s.name == "graph.masks_memory"),
                                    default=0) / 2**20,
        "graph.edges": attr_sum("graph.build", "edges"),
        "engine.run_s": engine_s,
        "engine.node_rounds": node_rounds,
        "engine.node_rounds_per_s": node_rounds / engine_s if engine_s else 0.0,
    }
    for policy in POLICIES:
        replays = [r for r in spans if r.name == "engine.replay" and r.attrs["policy"] == policy]
        rounds = sum(r.attrs["node_rounds"] for r in replays)
        metrics[f"engine.{policy}.ns_per_node_round"] = sum(r.duration for r in replays) / rounds * 1e9 if rounds else 0.0
    metrics.update({
        "engine.join_ratio": attr_sum("engine.run", "joins") / beeps if beeps else 0.0,
        "verify.check_s": total("verify.check_mis"),
        "verify.ok_ratio": sum(checks) / len(checks) if checks else 0.0,
        "metrics.write_s": total("metrics.write_records") + total("metrics.format_float"),
        "metrics.output_bytes": attr_sum("metrics.write_records", "bytes") + root.attrs["stdout_bytes"],
        "cli.serial_s": root.duration - sum(s.duration for s in spans if not s.clock),
        "cli.overhead_s": sum(t for s, t in zip(spans, own) if s.name.startswith("cli.")),
    })
    return metrics
