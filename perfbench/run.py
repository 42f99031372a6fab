"""The midgb benchmark: one workload, one process, closed loop.

    python3 perfbench/run.py --workload mq-gf2-f4 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the solver is imported from its
``src``, and nothing else is. See ``perfbench/README.md`` for the workloads
and metrics. The last line of output is one JSON object; the exit code is
nonzero when any answer was wrong or any repeat differed, and when the
checkout holds no solver source.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one caller, one thread, before numpy loads

import argparse
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark one midgb workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "midgb" / "__init__.py").is_file():
        print(f"perfbench: no solver source at {SRC / 'midgb'}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # every run imports the same way
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import midgb

    import measure  # imports numpy and the rest of the solver

    import_s = perf_counter() - start
    if Path(midgb.__file__).resolve().parent != (SRC / "midgb").resolve():
        print(f"perfbench: midgb came from {midgb.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return measure.main(args, import_s, ROOT)


if __name__ == "__main__":
    sys.exit(main())
