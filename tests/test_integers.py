"""The integer rule at every public entry point that takes a count, size or seed.

A bool, a float (3.0 too) or a string is refused with InvalidParameter, never
truncated or read as 0 or 1; a numpy integer gives exactly what the equal
Python int gives.
"""

import numpy as np
import pytest

from beepmis import (
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
    sweep_phase_position,
)
from beepmis.cli import ExperimentSpec, run_experiment
from beepmis.metrics import record_to_row

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
    "erdos_renyi-n": lambda v: erdos_renyi(v, 0.5, 7),
    "erdos_renyi-seed": lambda v: erdos_renyi(16, 0.5, v),
    "run-seed": lambda v: run(G, LocalFeedback(), v),
    "run-max_rounds": lambda v: run(G, GlobalSweep(), 1, v),
    "default_max_rounds": default_max_rounds,
    "sweep_phase_position": sweep_phase_position,
    "reference_curves": reference_curves,
    "splitmix64": splitmix64,
    "stable_mix-master_seed": lambda v: stable_mix(v, 8, 0),
    "stable_mix-n": lambda v: stable_mix(1, v, 0),
    "stable_mix-trial_index": lambda v: stable_mix(1, 8, v),
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
