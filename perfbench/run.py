"""Benchmark of htcinfomax: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload train-full --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its
`src/`.  The last stdout line is
`{"correct", "attempted", "failed", "metrics"}`: with `--trace 0` the
end-to-end metrics, with `--trace 1` the per-layer metrics of a traced
run.  The line before it records the environment, sample counts, failed
checks and, when traced, the step accounting.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from pathlib import Path

# Pinned before numpy loads OpenBLAS; recorded in every result.
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the generated inputs are removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "htcinfomax" / "__init__.py").is_file():
        return _fail(f"no htcinfomax package under {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    import htcinfomax

    if Path(htcinfomax.__file__).resolve().parent != SRC / "htcinfomax":
        return _fail(f"imported htcinfomax from {htcinfomax.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    details, result = workloads.run(workloads.WORKLOADS[args.workload], args.seed,
                                    args.seconds, bool(args.trace), ROOT)
    workloads.emit(details, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
