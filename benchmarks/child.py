"""Fresh-interpreter helper for the benchmark; run by run.py, not by hand.

    python3 child.py setup
        Time ``import beepmis`` plus a first tiny run (lazy set-up) and print
        the seconds taken.
    python3 child.py pass <json: {"argv", "csv", "traced", "verify_off_clock"}>
        Run one CLI pass and print its PassResult, with the peak RSS of this
        process and its pool workers, as one JSON line.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


def import_package():
    if not (SRC / "beepmis" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import beepmis
    if not Path(beepmis.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"benchmark: imported beepmis from {beepmis.__file__}, not {SRC}")
    return beepmis


def setup() -> None:
    start = perf_counter()
    bm = import_package()
    import beepmis.cli  # noqa: F401  (the entry point users reach first)
    g = bm.erdos_renyi(8, 0.5, seed=1)
    bm.run(g, bm.LocalFeedback(), seed=1)
    print(json.dumps({"setup_s": perf_counter() - start}))


def one_pass(request: dict) -> None:
    import_package()
    import layers

    tracer = layers.Tracer() if request["traced"] else None
    result = layers.run_pass(request["argv"], request["csv"], tracer, request["verify_off_clock"])
    # RUSAGE_CHILDREN covers the process pool's workers.
    result.maxrss_mib = max(resource.getrusage(who).ru_maxrss
                            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024
    print(json.dumps(dataclasses.asdict(result)))


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"]:
        setup()
    elif sys.argv[1:2] == ["pass"] and len(sys.argv) == 3:
        one_pass(json.loads(sys.argv[2]))
    else:
        raise SystemExit(__doc__)
