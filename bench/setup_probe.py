"""Set-up probe: resolve one workload in a fresh interpreter.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``.
Prints the wall-clock time (``time.time()``) at which the workload was
resolved; the parent subtracts its spawn time to get set-up seconds.
"""

import argparse
import sys
import time
from pathlib import Path

import frontlab  # noqa: F401  - importing the program is part of set-up

import workloads


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.work)
    workload.setup()
    resolved = time.time()
    sys.stdout.write(f"{resolved!r}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
