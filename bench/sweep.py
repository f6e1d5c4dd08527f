"""Run one workload's sweep in this (fresh) interpreter, the way the CLI does.

Each round resolves the config file through ``load_config`` with its own
output directory, then calls ``run_stm`` / ``run_esp`` / ``run_narma``. Whole
rounds repeat for about ``--seconds`` (one round at least); only the sweep
call is timed. The result file lists every round's sweep time and whether it
raised, the peak resident set of this process and of its pool workers, and
the environment: core count, numpy's build configuration and the BLAS and
OpenMP thread variables.

    python3 bench/sweep.py --config FILE --out DIR --seconds S --result FILE
                           [--workers N] [--trace DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def environment(np) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "numpy": np.show_config(mode="dicts"),
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--trace", default=None, metavar="DIR")
    args = parser.parse_args()

    import numpy as np
    from nmqrc import harness

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install(Path(args.trace))

    rounds = []
    start = time.perf_counter()
    while True:
        cfg = harness.load_config(args.config, output_override=str(Path(args.out) / f"round{len(rounds)}"),
                                  workers_override=args.workers)
        run = getattr(harness, f"run_{cfg.task}")
        t0 = time.perf_counter()
        try:
            run(cfg)
            ok = True
        except Exception:  # a failed sweep is counted, and the run goes on
            traceback.print_exc()
            ok = False
        rounds.append({"sweep_s": time.perf_counter() - t0, "ok": ok})
        # Stop unless one more round would end less than half a round past
        # the deadline, so a run measures about --seconds whatever the round.
        if time.perf_counter() - start + rounds[-1]["sweep_s"] / 2 >= args.seconds:
            break

    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if tracer is not None:
        tracer.flush()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump({"rounds": rounds, "peak_rss_mb": kib / 1024, "env": environment(np)}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
