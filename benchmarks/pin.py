"""Write the pinned output digests that every benchmark pass is checked against.

    python3 benchmarks/pin.py 0 1 2 3 4 5 6 7 8 9

For each workload and seed this runs the warm-up pass (--jobs 1, every MIS
checked) and one pass at the workload's --jobs, requires both to succeed
with the same output, and stores the digest in benchmarks/pins.json.  The
digests pin the random stream: re-pin only with a change that declares it
alters the stream.
"""

from __future__ import annotations

import json
import sys

from run import HERE, OUT, WORKLOADS, Run


def main(seeds: list[int]) -> int:
    OUT.mkdir(exist_ok=True)
    pins = {}
    for name, workload in WORKLOADS.items():
        pins[name] = {}
        for seed in seeds:
            run = Run(name, seed)
            run.reference = None
            try:
                run.warm_up()
                run.execute(workload.jobs, traced=False)
            finally:
                run.remove_csv()
            if run.failed:
                print(f"{name} seed {seed}: {run.failed} of {run.attempted} trials failed: {run.log}")
                return 1
            pins[name][str(seed)] = run.reference
            print(f"{name} seed {seed}: {run.reference}")
    with open(HERE / "pins.json", "w", encoding="utf-8") as f:
        json.dump(pins, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]] or [0]))
