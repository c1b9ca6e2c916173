"""Run every benchmark workload in turn, each in its own process.

From the repository root:

    python3 bench/all.py --seed 1            # end-to-end metrics
    python3 bench/all.py --seed 1 --trace 1  # per-layer metrics

Streams each workload's report (which prints wall_s, wall_s.tail,
setup_s, peak_rss_mb, bundle_mb, fail_frac and front_speed_relerr with
their units) and ends with one summary line per workload.  Exits 1 when a
workload fails to run or any of its output checks fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    summary, ok = [], True
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            summary.append(f"{workload}: exit code {proc.returncode}")
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        shown = ", ".join(f"{name} {m['value']:.4g} {m['unit']}"
                          for name, m in result["metrics"].items())
        summary.append(f"{workload}: failed {result['failed']}/{result['attempted']}; {shown}")
    print("\n".join(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
