import beepmis

# The public surface; a name leaves it only on purpose, noted in CHANGES.md.
PUBLIC_NAMES = [
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


def test_all_is_the_pinned_surface():
    assert sorted(beepmis.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(beepmis, name) is not None
