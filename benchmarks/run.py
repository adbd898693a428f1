"""Benchmark for beepmis: three CLI workloads, end to end and layer by layer.

    python3 benchmarks/run.py --workload fig3-er --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all          # every workload, one table

With ``--trace 0`` a run reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` a separate traced pass reports the per-layer metrics.
Human-readable lines go first; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details of the run
(environment stamp, every pass, spans) are written under ``.bench_out/``.
See benchmarks/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

import child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 60

child.import_package()  # exits non-zero when the checkout holds no package source

import numpy  # noqa: E402

import layers  # noqa: E402


@dataclass(frozen=True)
class Workload:
    command: tuple[str, ...]
    trials: int          # trials per pass
    jobs: int            # --jobs of the timed passes
    csv: bool            # the command writes a CSV (else its stdout line is the output)
    fresh_process: bool  # every pass runs in a fresh interpreter

    def argv(self, seed: int, jobs: int, csv_path: str) -> list[str]:
        args = [*self.command, "--seed", str(seed)]
        if self.csv:
            args += ["--output", csv_path, "--jobs", str(jobs)]
        return args


WORKLOADS = {
    # The paper's headline experiment.  Generator-bound (G(n, 1/2) build is
    # most of the serial work) and the only workload that uses the pool.
    "fig3-er": Workload(("reproduce-fig3", "--n", "256", "512"), 400, 2, True, False),
    # Feedback and sweep paired on clique families: engine- and policy-bound,
    # no random graph generation, no pool.  Sweep needs about 2x the rounds.
    "lowerbound-cliquefam": Workload(
        ("lowerbound", "--m", "8", "12", "16", "20", "--trials", "10", "--policies", "feedback", "sweep"),
        80, 1, True, False),
    # One sparse 16,384-node run, as a user starts it: bound by the quadratic
    # neighbour index, verifies on the clock, peak RSS in the hundreds of MiB.
    "grid-single": Workload(("run", "--graph", "grid:128,128", "--policy", "feedback"), 1, 1, False, True),
}


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


class Run:
    """Passes of one workload at one seed, with their correctness verdicts.

    Every pass's output digest must equal the reference: the pinned digest
    when ``pins.json`` has this seed, else the digest of the first pass
    (the warm-up, at --jobs 1), so later passes at the workload's --jobs
    also prove the jobs-1/jobs-N identity.
    """

    def __init__(self, name: str, seed: int):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.reference = load_json(HERE / "pins.json").get(name, {}).get(str(seed))
        self.csv_path = str(OUT / f"{name}-{os.getpid()}.csv")
        self.attempted = 0
        self.failed = 0
        self.log: list[dict] = []

    def execute(self, jobs: int, traced: bool, fresh: bool | None = None) -> layers.PassResult | None:
        """One pass, in a fresh process if ``fresh`` (default: as the workload
        says); None when it crashed or its output is wrong."""
        w = self.workload
        argv = w.argv(self.seed, jobs, self.csv_path)
        csv_path = self.csv_path if w.csv else None
        verify_off_clock = w.command[0] != "run"  # `run` calls check_mis itself, on the clock
        self.remove_csv()  # a pass that writes no CSV must not be judged on the last one
        self.attempted += w.trials
        entry = {"jobs": jobs, "traced": traced}
        self.log.append(entry)
        try:
            if w.fresh_process if fresh is None else fresh:
                result = self._in_child(argv, csv_path, traced, verify_off_clock)
            else:
                result = layers.run_pass(argv, csv_path, layers.Tracer() if traced else None, verify_off_clock)
        except Exception:  # a crash of the program under test fails the pass, not the benchmark
            entry["error"] = traceback.format_exc()
            self.failed += w.trials
            return None
        if self.reference is None:
            self.reference = result.digest
        failed = result.unterminated + (layers.audit_failures(result.spans) if traced else 0)
        if result.rc != 0 or result.digest != self.reference or result.trials != w.trials:
            failed = w.trials
        entry.update(rc=result.rc, wall_s=result.wall_s, digest=result.digest, failed=failed,
                     maxrss_mib=result.maxrss_mib)
        self.failed += failed
        return None if failed else result

    def _in_child(self, argv, csv_path, traced, verify_off_clock) -> layers.PassResult:
        request = {"argv": argv, "csv": csv_path, "traced": traced, "verify_off_clock": verify_off_clock}
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), "pass", json.dumps(request)],
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"pass process exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        data = json.loads(proc.stdout.splitlines()[-1])
        if data["spans"] is not None:
            data["spans"] = [layers.Span(**s) for s in data["spans"]]
        return layers.PassResult(**data)

    def remove_csv(self) -> None:
        if os.path.exists(self.csv_path):
            os.remove(self.csv_path)

    def warm_up(self) -> None:
        """Discarded pass at --jobs 1, traced so every trial's MIS is checked."""
        self.execute(1, traced=True)


def repeat(seconds: float, min_count: int, body) -> None:
    """Call body until the next call would overrun ``seconds``, at least min_count times."""
    start = perf_counter()
    count = 0
    last = 0.0
    while count < min_count or perf_counter() - start + last <= seconds:
        t = perf_counter()
        body()
        last = perf_counter() - t
        count += 1


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> str:
    """Median of time samples and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"median={median(values):.6g} n={n}"
    if n < 11:
        return text + " (a tail percentile needs >= 11 samples)"
    q = int(100 * (1 - 10 / n))
    return text + f" p{q}={statistics.quantiles(values, n=100)[q - 1]:.6g}"


def measure_setup() -> float:
    """Import plus first-call time of a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), "setup"], capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    w = run.workload
    run.warm_up()
    passes, setup = [], []

    def timed():
        result = run.execute(w.jobs, traced=False)
        if result is not None:
            passes.append(result)
        # Set-up samples are spread over the run like the passes, so both
        # see the same machine conditions.
        setup.append(measure_setup())

    repeat(seconds, 3, timed)
    rss = [p.maxrss_mib for p in passes if p.maxrss_mib is not None]
    if not rss:
        # This process also ran the traced warm-up, so memory is taken from
        # one more untraced pass in a fresh process.
        result = run.execute(w.jobs, traced=False, fresh=True)
        rss = [result.maxrss_mib] if result else []
    # A throughput over the whole run: pass times switch between machine
    # speed levels, and a total moves with the share of time at each level
    # where a median of pass rates jumps between them.
    total_s = sum(p.wall_s for p in passes)
    metrics = {"trials_per_s": w.trials * len(passes) / total_s if total_s else 0.0,
               "peak_rss_mib": median(rss), "setup_s": median(setup)}
    samples = {"pass_s": [p.wall_s for p in passes], "setup_s": setup}
    return metrics, samples


def per_layer(run: Run, seconds: float) -> tuple[dict, dict, list]:
    w = run.workload
    run.warm_up()
    traced, serial, parallel = [], [], []

    def cycle():
        for jobs, is_traced, into in ((1, True, traced), (1, False, serial), (w.jobs, False, parallel)):
            if into is parallel and w.jobs == 1:
                continue
            result = run.execute(jobs, is_traced)
            if result is not None:
                into.append(result)

    repeat(seconds, 1, cycle)
    parallel = parallel or serial
    by_pass = [layers.layer_metrics(p.spans) for p in traced]
    metrics = {key: median([m[key] for m in by_pass]) for key in (by_pass[0] if by_pass else {})}
    serial_wall = median([p.wall_s for p in serial])
    parallel_wall = median([p.wall_s for p in parallel])
    metrics["cli.pool_efficiency"] = serial_wall / (w.jobs * parallel_wall) if parallel_wall else 0.0
    metrics["trace_overhead_ratio"] = median([p.wall_s for p in traced]) / serial_wall if serial_wall else 0.0
    samples = {"traced_pass_s": [p.wall_s for p in traced], "serial_pass_s": [p.wall_s for p in serial],
               "parallel_pass_s": [p.wall_s for p in parallel]}
    spans = [[asdict(s) for s in p.spans] for p in traced]
    return metrics, samples, spans


def env_stamp() -> dict:
    """Commit, source digest, cores and versions the figures were measured with."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"
    except OSError:
        commit = "unknown (no git)"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "beepmis").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def bench_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = load_json(ROOT / "BENCHMARK.json")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)
    run = Run(name, seed)
    stamp = env_stamp()
    spans = None
    try:
        if trace:
            metrics, samples, spans = per_layer(run, seconds)
        else:
            metrics, samples = end_to_end(run, seconds)
    finally:
        run.remove_csv()
    missing = {m["name"] for m in declared} - set(metrics)
    correct = run.failed == 0 and not missing
    better = {m["name"]: m["better"] for m in declared}
    print(f"workload={name} seed={seed} trace={int(trace)} env={json.dumps(stamp)}")
    for key, values in samples.items():
        print(f"  {key}: {tail(values)}")
    for m in declared:
        value = metrics.get(m["name"], 0.0)
        print(f"  {m['name']} = {value:.6g} {m['unit']} ({better[m['name']]} is better)")
    if missing:
        print(f"  missing metrics: {sorted(missing)}")
    print(f"  attempted={run.attempted} failed={run.failed} reference={run.reference}")
    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    with open(f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump({"env": stamp, "metrics": metrics, "samples": samples, "passes": run.log}, f, indent=1)
    if spans is not None:
        with open(f"{stem}-spans.json", "w", encoding="utf-8") as f:
            json.dump(spans, f)
    return {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in declared},
    }


def bench_all(seed: int, seconds: float, trace: bool) -> bool:
    """Each workload in its own fresh process, so peak RSS is per workload."""
    ok = True
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              capture_output=True, text=True, cwd=ROOT, timeout=600)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return False
        result = json.loads(proc.stdout.splitlines()[-1])
        ok = ok and result["correct"]
        for metric, entry in result["metrics"].items():
            rows.append(f"{name:22} {metric:36} {entry['value']:12.6g} {entry['unit']}")
        rows.append(f"{name:22} {'failed / attempted':36} {result['failed']:>6} / {result['attempted']}")
    print("\n".join(rows))
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="master seed of the workload's CLI command")
    parser.add_argument("--seconds", type=float, default=30, help="length of the measured part of a run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return 0 if bench_all(args.seed, args.seconds, bool(args.trace)) else 1
    print(json.dumps(bench_one(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
