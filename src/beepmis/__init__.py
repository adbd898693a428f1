"""beepmis: deterministic simulator for beeping-network MIS protocols.

Anonymous nodes on an undirected graph run synchronous rounds of one-bit
beeps; a node that beeps while its neighbourhood stays silent joins the
independent set.  The package provides the round engine, the probability
policies (per-node local feedback, global sweeping schedule, constant), graph
generators, an exhaustive verifier, and a reproducible Monte-Carlo
experiment harness with CSV output.
"""

from .engine import RoundOutcome, RunResult, default_max_rounds, run
from .errors import BeepMISError, EmptySample, InvalidParameter, ParseError, TooLarge
from .graph import (
    Graph,
    clique_family,
    complete_graph,
    erdos_renyi,
    grid_graph,
    parse_edge_list,
    path_graph,
    validate_graph,
    write_edge_list,
)
from .metrics import (
    CSV_HEADER,
    SummaryStats,
    TrialRecord,
    filter_terminated,
    read_records,
    record_from_run,
    reference_curves,
    summarize,
    write_records,
)
from .policy import Constant, GlobalSweep, LocalFeedback, parse_policy
from .seeding import splitmix64, stable_mix
from .verify import VerifyReport, check_mis, enumerate_mis

__version__ = "0.1.0"

__all__ = [
    "BeepMISError",
    "CSV_HEADER",
    "Constant",
    "EmptySample",
    "GlobalSweep",
    "Graph",
    "InvalidParameter",
    "LocalFeedback",
    "ParseError",
    "RoundOutcome",
    "RunResult",
    "SummaryStats",
    "TooLarge",
    "TrialRecord",
    "VerifyReport",
    "check_mis",
    "clique_family",
    "complete_graph",
    "default_max_rounds",
    "enumerate_mis",
    "erdos_renyi",
    "filter_terminated",
    "grid_graph",
    "parse_edge_list",
    "parse_policy",
    "path_graph",
    "read_records",
    "record_from_run",
    "reference_curves",
    "run",
    "splitmix64",
    "stable_mix",
    "summarize",
    "validate_graph",
    "write_edge_list",
    "write_records",
]
