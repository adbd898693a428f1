"""The integer rule at every public entry point that takes a count, size, seed
or node id, and the real-number rule at every one that takes a probability or
factor.

A bool, a float (3.0 too) or a string is refused as an integer with
InvalidParameter, never truncated or read as 0 or 1; a numpy integer gives
exactly what the equal Python int gives.  A bool, a string, None, a complex
number, an array or an int past the double range is refused as a real number; a numpy float, or a Python
int, gives exactly what the equal Python float gives.
"""

import numpy as np
import pytest

from beepmis import (
    Constant,
    GlobalSweep,
    Graph,
    InvalidParameter,
    LocalFeedback,
    clique_family,
    complete_graph,
    default_max_rounds,
    erdos_renyi,
    grid_graph,
    path_graph,
    reference_curves,
    run,
    splitmix64,
    stable_mix,
)
from beepmis.cli import ExperimentSpec, build_run_graph, parse_graph, run_experiment
from beepmis.metrics import record_to_row
from beepmis.seeding import graph_seed, run_seed

G = grid_graph(3, 4)


def experiment_rows(n=8, trials=2, master_seed=1, max_rounds=None, jobs=1):
    """The CSV rows of a small batch; every argument is one count or seed of the spec."""
    spec = ExperimentSpec(("feedback", "sweep"), "er:0.5", (n,), trials, master_seed, max_rounds)
    return [record_to_row(r) for r in run_experiment(spec, jobs=jobs)]


# Each entry point with the tested argument as its only free one; the equal
# Python int, 3, is valid at all of them.
ENTRY_POINTS = {
    "Graph": lambda v: Graph(v, [(0, 2)]),
    "complete_graph": complete_graph,
    "clique_family": clique_family,
    "grid_graph-rows": lambda v: grid_graph(v, 2),
    "grid_graph-cols": lambda v: grid_graph(2, v),
    "path_graph": path_graph,
    "neighbours": G.neighbours,
    "erdos_renyi-n": lambda v: erdos_renyi(v, 0.5, 7),
    "erdos_renyi-seed": lambda v: erdos_renyi(16, 0.5, v),
    "run-seed": lambda v: run(G, LocalFeedback(), v),
    "run-max_rounds": lambda v: run(G, GlobalSweep(), 1, v),
    "default_max_rounds": default_max_rounds,
    "sweep_phase_position": GlobalSweep().at,  # the step whose phase position it reads
    "Constant.at": Constant(0.5).at,
    "reference_curves": reference_curves,
    "splitmix64": splitmix64,
    "stable_mix-master_seed": lambda v: stable_mix(v, 8, 0),
    "stable_mix-n": lambda v: stable_mix(1, v, 0),
    "stable_mix-trial_index": lambda v: stable_mix(1, 8, v),
    "graph_seed": graph_seed,
    "run_seed": run_seed,
    "build_run_graph-seed": lambda v: build_run_graph("er:6,0.5", v),
    "parse_graph-n": lambda v: parse_graph("grid", v),
    "experiment-n": lambda v: experiment_rows(n=v),
    "experiment-trials": lambda v: experiment_rows(trials=v),
    "experiment-master_seed": lambda v: experiment_rows(master_seed=v),
    "experiment-max_rounds": lambda v: experiment_rows(max_rounds=v),
    "experiment-jobs": lambda v: experiment_rows(trials=1, jobs=v),  # one task, so no pool
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
@pytest.mark.parametrize("value", [2.5, 3.0, True, np.True_, "3"],
                         ids=["float", "integral-float", "bool", "numpy-bool", "str"])
def test_refuses_non_integers(entry, value):
    with pytest.raises(InvalidParameter, match="must be an integer"):
        entry(value)


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
@pytest.mark.parametrize("kind", [np.int64, np.uint32])
def test_numpy_integers_equal_python_ints(entry, kind):
    assert entry(kind(3)) == entry(3)


# Each entry point with the tested argument as its only free one, and a dyadic
# value valid there, which np.float32 holds exactly.
REAL_ENTRY_POINTS = {
    "Constant": (lambda v: Constant(v).name, 0.25),
    "LocalFeedback-factor": (lambda v: LocalFeedback(factor=v).name, 3.0),
    "LocalFeedback-initial": (lambda v: LocalFeedback(initial=v).name, 0.25),
    "LocalFeedback-cap": (lambda v: LocalFeedback(initial=0.125, cap=v).name, 0.25),
    "erdos_renyi-p_edge": (lambda v: erdos_renyi(16, v, 7), 0.25),
}
REAL_ENTRIES = [entry for entry, _ in REAL_ENTRY_POINTS.values()]


@pytest.mark.parametrize("entry", REAL_ENTRIES, ids=REAL_ENTRY_POINTS)
@pytest.mark.parametrize("value", [True, np.True_, "0.5", None, 0.5j, np.array(0.25), 10**400],
                         ids=["bool", "numpy-bool", "str", "none", "complex", "0-d-array",
                              "int-past-double"])
def test_refuses_non_reals(entry, value):
    with pytest.raises(InvalidParameter, match="must be a real number"):
        entry(value)


@pytest.mark.parametrize(("entry", "value"), REAL_ENTRY_POINTS.values(), ids=REAL_ENTRY_POINTS)
@pytest.mark.parametrize("kind", [np.float64, np.float32])
def test_numpy_floats_equal_python_floats(entry, value, kind):
    assert entry(kind(value)) == entry(value)


@pytest.mark.parametrize(("entry", "value"), [
    (REAL_ENTRY_POINTS["Constant"][0], 1),
    (REAL_ENTRY_POINTS["LocalFeedback-factor"][0], 3),
    (REAL_ENTRY_POINTS["erdos_renyi-p_edge"][0], 0),
    (REAL_ENTRY_POINTS["erdos_renyi-p_edge"][0], 1),
], ids=["Constant", "LocalFeedback-factor", "erdos_renyi-p_edge-0", "erdos_renyi-p_edge-1"])
def test_python_ints_equal_python_floats(entry, value):
    assert entry(value) == entry(float(value))
