"""The benchmark's hold on the package: a traced pass still reaches every layer.

benchmarks/layers.py times each layer by swapping entry points such as
``cli.run_trial`` and ``engine.run`` from outside the package, so renaming
one of them would break the benchmark without failing any other test.  One
traced pass per workload, on the tiny commands of benchmarks/selftest.py,
must exit 0, pass its own MIS and replay audits, nest its spans and report
every per-layer metric that BENCHMARK.json declares.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import layers  # noqa: E402
from run import WORKLOADS  # noqa: E402
from selftest import TINY  # noqa: E402

# run.py derives these from several passes, not from one pass's spans.
COMPUTED_BY_RUN = {"cli.pool_efficiency", "trace_overhead_ratio"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_pass_reaches_every_layer(name, tmp_path):
    workload = dataclasses.replace(WORKLOADS[name], command=TINY[name])
    csv_path = str(tmp_path / "out.csv")
    verify_off_clock = workload.command[0] != "run"  # `run` checks its MIS itself
    result = layers.run_pass(workload.argv(3, 1, csv_path), csv_path if workload.csv else None,
                             layers.Tracer(), verify_off_clock)
    assert result.rc == 0
    assert layers.audit_failures(result.spans) == 0
    assert layers.nesting_errors(result.spans) == []
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert declared - COMPUTED_BY_RUN <= set(layers.layer_metrics(result.spans))
