"""Quick self-check of the benchmark itself, at reduced size.

From the repository root:

    python3 bench/selfcheck.py

Runs every workload shrunk (band to t_final 30, kpp to t_final 30 on a
short grid, theory with the raised-cosine kernel only), untraced and
traced, and checks that

- each mode emits exactly the metrics BENCHMARK.json names, each with its
  unit and a finite value;
- the self times in a trace sum to no more than the traced wall time;
- while the tracer is installed, no frontlab module still holds an
  original traced function, and uninstalling restores every original.

Output checks of the shrunk workloads (front speed, persistence) are
reported, not required: the reduced sizes are too short for them.
Exits 0 when every check passes, 1 otherwise.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  - sets the single-thread environment first

QUICK = {
    "band": {"t_final": 30.0},
    "kpp": {"t_final": 30.0, "x_max": 120.0},
    "theory": {"families": ("raised_cosine",)},
}


def check_metrics(label: str, metrics: dict, spec_metrics: list, problems: list) -> None:
    try:
        emitted = run.emit(metrics, spec_metrics)
    except RuntimeError as exc:
        problems.append(f"{label}: {exc}")
        return
    for name, item in emitted.items():
        if not item["unit"] or not math.isfinite(item["value"]):
            problems.append(f"{label}: metric {name} has unit {item['unit']!r} "
                            f"and value {item['value']!r}")


def check_patching(problems: list) -> None:
    import frontlab.harness.runner as runner
    import tracing
    original = runner.simulate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        left = tracing.unpatched_bindings()
        if left:
            problems.append("tracer left original bindings: " + ", ".join(left))
    finally:
        tracer.uninstall()
    if runner.simulate is not original:
        problems.append("uninstall did not restore frontlab.harness.runner.simulate")


def main() -> int:
    spec = run.load_spec()
    run.import_program()
    problems: list[str] = []
    check_patching(problems)
    for name, sizes in QUICK.items():
        plain = run.execute(name, seed=1, seconds=0.0, trace=False, **sizes)
        check_metrics(f"{name} untraced", run.end_to_end_metrics(plain),
                      spec["end_to_end"], problems)
        traced = run.execute(name, seed=1, seconds=0.0, trace=True, **sizes)
        layers = run.layer_metrics(traced)
        check_metrics(f"{name} traced", layers, spec["per_layer"], problems)
        self_sum, wall = sum(traced.tracer.self_times()[0].values()), sum(traced.walls)
        if not self_sum <= wall:
            problems.append(f"{name}: self times sum to {self_sum:.6f} s, "
                            f"more than the traced wall {wall:.6f} s")
        failed = plain.failed + traced.failed
        print(f"{name}: {len(traced.tracer.spans)} spans, self sum {self_sum:.4f} s "
              f"<= wall {wall:.4f} s; output checks failed on {failed} of "
              f"{len(plain.ops) + len(traced.ops)} shrunk operations")
    for problem in problems:
        print("SELF-CHECK FAILED: " + problem)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
