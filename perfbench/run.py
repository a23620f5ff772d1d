"""Benchmark entry point; run it from the repository root.

    python3 perfbench/run.py --workload hep-sim-fleet --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split of a traced run (see ``perfbench/NOTES.md``).  The last line of
standard output is the result object; the first records the environment the
numbers were measured in.  Exits with 2, printing no result, when the program
under ``src/`` is missing.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Thread-pool variables pinned to 1 before NumPy loads: with OpenBLAS at
#: its default thread count the GP cohort burns about twice its wall time in
#: CPU on two cores, and the oversubscription makes run times erratic.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import run_benchmark
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r} (have {sorted(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    return run_benchmark(args, ROOT, BLAS_THREAD_VARS)


if __name__ == "__main__":
    sys.exit(main())
