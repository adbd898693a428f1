"""Trial records, summary statistics, reference curves, and the CSV schema."""

from __future__ import annotations

import csv
import io
import math
import statistics
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from .errors import TEXT_READERS, EmptySample, ParseError, as_int, read_text


@dataclass(frozen=True)
class TrialRecord:
    """One simulation run, one CSV row; the fields are the CSV columns, in order."""

    policy: str
    graph: str
    n: int
    param: str
    trial: int
    seed: int
    rounds: int
    terminated: bool
    total_beeps: int
    beeps_per_node: float
    mis_size: int


def record_from_run(policy_name: str, graph_name: str, param: str, trial: int,
                    seed: int, result) -> TrialRecord:
    """Build a TrialRecord from a RunResult; n is the actual node count."""
    n = len(result.beep_counts)
    return TrialRecord(
        policy=policy_name,
        graph=graph_name,
        n=n,
        param=param,
        trial=trial,
        seed=seed,
        rounds=result.rounds,
        terminated=result.terminated,
        total_beeps=result.total_beeps,
        beeps_per_node=result.total_beeps / n if n else 0.0,
        mis_size=len(result.mis),
    )


@dataclass(frozen=True)
class SummaryStats:
    """Mean and spread of one numeric field over a batch of trials."""

    count: int
    mean: float
    stddev: float
    minimum: float
    maximum: float


def summarize(records: Sequence, field: str) -> SummaryStats:
    """Arithmetic mean and sample standard deviation of a numeric field.

    A single record gives stddev 0; an empty batch raises EmptySample.
    Permutation invariant.
    """
    values = [float(getattr(r, field)) for r in records]
    if not values:
        raise EmptySample(f"no records to summarize for field {field!r}")
    return SummaryStats(
        count=len(values),
        mean=statistics.fmean(values),
        stddev=statistics.stdev(values) if len(values) > 1 else 0.0,
        minimum=min(values),
        maximum=max(values),
    )


def filter_terminated(records: Iterable[TrialRecord]) -> list[TrialRecord]:
    """Trials that finished within the round cap.

    Round-count statistics are taken over these only; callers report the
    non-terminated count separately, since a round-cap blowup is itself the
    signal in the lower-bound experiments.
    """
    return [r for r in records if r.terminated]


def reference_curves(n: int) -> tuple[float, float, float]:
    """Reference values (log2 n, (log2 n)^2, 2.5 * log2 n) for scaling plots."""
    log2n = math.log2(as_int(n, "reference_curves n", 2))
    return log2n, log2n * log2n, 2.5 * log2n


def format_float(x: float) -> str:
    """Floats in CSV carry up to 6 significant digits."""
    return f"{x:.6g}"


CSV_HEADER = tuple(f.name for f in fields(TrialRecord))

# How a column of each field type is written and read back.  The annotations
# are strings here (postponed evaluation), so the tables are keyed by name.
_WRITE = {"str": str, "int": str, "float": format_float, "bool": lambda b: "true" if b else "false"}
_READ = {**TEXT_READERS, "bool": {"true": True, "false": False}.__getitem__}
_COLUMN_TYPES = tuple(f.type for f in fields(TrialRecord))


def record_to_row(r: TrialRecord) -> list[str]:
    return [_WRITE[kind](getattr(r, name)) for name, kind in zip(CSV_HEADER, _COLUMN_TYPES)]


def write_records(path: str, records: Iterable[TrialRecord]) -> None:
    """Write records as CSV (header, LF line endings, byte-deterministic)."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow(record_to_row(r))


def read_records(path: str) -> list[TrialRecord]:
    """Read back a CSV written by write_records; any other row raises ParseError with its line."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    if (header := next(reader, None)) != list(CSV_HEADER):
        raise ParseError(f"unexpected CSV header {header!r}", 1)
    records = []
    for row in reader:
        try:  # a wrong field count, boolean or number
            records.append(TrialRecord(*(_READ[k](t) for k, t in zip(_COLUMN_TYPES, row, strict=True))))
        except (KeyError, ValueError):
            raise ParseError(f"malformed row {row!r}", reader.line_num) from None
    return records
