#!/usr/bin/env python3
"""Round time and minor page faults of a benchmark workload, per seed.

    PYTHONPATH=src python3 scripts/round_faults.py --workload all-presets --seeds 1 5 11 --rounds 60

Builds the operations of ``perfbench/workloads.py`` for each seed and runs
them in order, one round after another, in one process per seed, against
the ``hopfield_gaussian`` found on ``PYTHONPATH``.  Round 0 is a warm-up
whose outputs are checked against the benchmark's oracle; each later round
is timed and its minor page faults (``ru_minflt``) counted.  A sweep whose
temporaries glibc has trimmed from the heap faults them back in, and how
often that happens depends on the process as much as on the code, so a
round-time comparison of two trees needs these counts beside it.

Prints one JSON object per seed: the median round time in microseconds
and the median and largest number of minor faults per round.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("all-presets", "general-coupling", "single-points", "relaxation")


def measure(workload: str, seed: int, rounds: int) -> dict:
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    import hopfield_gaussian

    ops = workloads.build(workload, seed)
    stats = workloads.CheckStats()
    problems = [p for op in ops for p in op.check(op.run(), stats)]
    if problems:
        raise SystemExit("\n".join(problems[:5]))
    times, faults = [], []
    for _ in range(rounds):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter_ns()
        for op in ops:
            op.run()
        times.append((time.perf_counter_ns() - start) / 1e3)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return {
        "workload": workload,
        "seed": seed,
        "rounds": rounds,
        "round_us_median": statistics.median(times),
        "faults_per_round_median": statistics.median(faults),
        "faults_per_round_max": max(faults),
        "package": str(Path(hopfield_gaussian.__file__).parent),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--rounds", type=int, default=60)
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if len(args.seeds) == 1:
        print(json.dumps(measure(args.workload, args.seeds[0], args.rounds)), flush=True)
        return
    # a fresh process per seed: the faults depend on the heap a process has
    for seed in args.seeds:
        subprocess.run([sys.executable, __file__, "--workload", args.workload,
                        "--seeds", str(seed), "--rounds", str(args.rounds)], check=True)


if __name__ == "__main__":
    main()
