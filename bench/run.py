"""frontlab benchmark: run one workload for a fixed time and check its outputs.

From the repository root:

    python3 bench/run.py --workload band --seed 1 --seconds 34 --trace 0

Workloads (see WORKLOADS.md): ``band``, ``kpp``, ``theory``.  The program
is imported from ``src/`` of the same checkout; nothing is installed.

``--trace 0`` reports the end-to-end metrics: the median and tail wall
time of one iteration, the set-up time of a fresh process (median of
three) and the peak resident memory.  ``--trace 1`` reports the per-layer
metrics from an in-memory span trace of the same iterations, and the
tracing overhead.  Earlier stdout lines are a readable report and an
``env`` record; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# Single-threaded math libraries in this process and every child it starts.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

SETUP_REPEATS = 3
MIN_ITERATIONS = 2
TAIL_BEYOND = 10


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def import_program():
    """Import frontlab from this checkout's ``src``; exit 2 when it is absent."""
    if not (SRC / "frontlab" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no frontlab sources under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH))
    import frontlab
    if Path(frontlab.__file__).resolve().parent != (SRC / "frontlab").resolve():
        sys.stderr.write(f"bench: imported frontlab from {frontlab.__file__}, not {SRC}\n")
        raise SystemExit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# -- environment record ----------------------------------------------------

def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def cpu_record() -> dict:
    model = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level:
            caches[f"L{level}{'d' if kind == 'Data' else 'i' if kind == 'Instruction' else ''}"] = \
                _read(index / "size")
    return {"model": model or platform.processor(), "caches": caches}


def source_record() -> dict:
    """The git commit when there is one, and a digest of src/ always."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu_record(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "seed": seed,
        **source_record(),
    }


# -- set-up time -------------------------------------------------------------

def measure_setup(workload: str, seed: int, work: Path) -> list[float]:
    """Seconds from spawning a fresh interpreter to a resolved workload."""
    samples = []
    for i in range(SETUP_REPEATS):
        start = time.time()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), "--workload", workload,
             "--seed", str(seed), "--work", str(work / f"setup-{i}")],
            env=child_env(), capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        resolved = float(proc.stdout.strip().splitlines()[-1])
        samples.append(resolved - start)
    return samples


# -- running operations ----------------------------------------------------

def run_ops(ops, results: list, tracer=None) -> float:
    """Run one iteration's operations; return its wall time (operations only).

    Each ``run()`` is timed alone.  With a tracer, it is installed for the
    ``run()`` call only, under a root span, so checks are never traced.
    """
    from workloads import Op
    total = 0.0
    for name, run, check in ops:
        failure = result = None
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            if tracer is not None:
                with tracer.span("bench.op"):
                    result = run()
            else:
                result = run()
            seconds = time.perf_counter() - start
        except Exception as exc:  # a failed operation is counted, not fatal
            seconds = time.perf_counter() - start
            traceback.print_exc()
            failure = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.uninstall()
        if failure is None:
            try:
                failure = check(result)
            except Exception as exc:  # e.g. a bundle file the program did not write
                traceback.print_exc()
                failure = f"check raised {type(exc).__name__}: {exc}"
        results.append(Op(name, seconds, failure))
        total += seconds
    return total


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, or the max."""
    ordered = sorted(samples)
    n = len(ordered)
    if n > TAIL_BEYOND:
        rank = n - TAIL_BEYOND
        return ordered[rank - 1], f"p{100.0 * rank / n:.1f} of N={n}"
    return ordered[-1], f"max of N={n} (fewer than {TAIL_BEYOND + 1} samples)"


def measure(workload, seconds: float, ops_log: list, tracer=None):
    """Iterate until the next iteration would end past ``seconds``.

    Returns the wall times of the timed iterations and of the untraced
    ones.  Without a tracer every iteration is untraced and timed; with
    one, iterations alternate untraced/traced, starting untraced, and the
    untraced walls give the tracing overhead.
    """
    deadline = time.perf_counter() + seconds
    walls: list[float] = []
    plain: list[float] = []
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        wall = run_ops(workload.ops(index), ops_log, tracer if traced else None)
        (walls if tracer is None or traced else plain).append(wall)
        index += 1
        every = walls + plain
        if (walls and len(every) >= MIN_ITERATIONS
                and time.perf_counter() + statistics.median(every) > deadline):
            return walls, plain


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- metrics -----------------------------------------------------------------

@dataclass
class Outcome:
    """Everything one benchmark run measured."""

    workload: object
    ops: list
    probe: list
    walls: list
    untraced: list
    setup: list
    rss_mb: float
    tracer: object

    @property
    def failed(self) -> int:
        return sum(op.failure is not None for op in self.ops)


def execute(name: str, seed: int, seconds: float, trace: bool, **sizes) -> Outcome:
    """Set up, iterate for ``seconds``, then run the known-defect probe.

    ``sizes`` go to the workload constructor (the self-check shrinks them).
    """
    import tracing
    import workloads
    work = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup = [] if trace else measure_setup(name, seed, work)
        workload = workloads.WORKLOADS[name](seed, work, **sizes)
        workload.setup()
        ops: list = []
        tracer = tracing.Tracer() if trace else None
        walls, untraced = measure(workload, seconds, ops, tracer)
        rss = peak_rss_mb()
        probe_ops: list = []
        probe = workloads.TabulatedProbe(work)
        probe.setup()
        run_ops(probe.ops(0), probe_ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return Outcome(workload, ops, probe_ops, walls, untraced, setup, rss, tracer)


def end_to_end_metrics(out: Outcome) -> dict:
    tail_value, _ = tail(out.walls)
    return {"wall_s": statistics.median(out.walls), "wall_s.tail": tail_value,
            "setup_s": statistics.median(out.setup), "peak_rss_mb": out.rss_mb}


def layer_metrics(out: Outcome) -> dict:
    """Per-layer metrics, per traced iteration, named as in BENCHMARK.json."""
    import workloads
    tracer, workload = out.tracer, out.workload
    self_s, incl_s, calls = tracer.self_times()
    counts = tracer.counts
    n_iter = len(out.walls)
    m: dict[str, float] = {}

    def per(x):
        return x / n_iter

    for name in ("dynamics.rhs", "dynamics.step", "dynamics.nonlocal_apply",
                 "habitat.alpha_shifted", "kernels.exp_integral", "speeds.system_speeds",
                 "speeds.min_speed"):
        m[f"{name}.calls"] = per(calls[name])
    for name in ("kernels.quad", "kernels.evaluate", "subsolution.quad",
                 "subsolution.match_decay_rate"):
        m[f"{name}.calls"] = per(counts[name])
    for name in ("dynamics.rhs", "dynamics.step", "dynamics.nonlocal_apply", "dynamics.simulate",
                 "habitat.alpha_shifted", "habitat.validate", "kernels.exp_integral",
                 "kernels.discretize", "subsolution.verify_subsolution",
                 "subsolution.construct_subsolution", "speeds.min_speed",
                 "hypotheses.check_hypotheses", "harness.config.parse_config_text",
                 "observers.level_set_series", "observers.frame_band_min",
                 "observers.estimate_speed", "observers.decay_sup",
                 "harness.runner.run_experiment"):
        m[f"{name}.self_s"] = per(self_s[name])
    cells = workload.facts.cell_steps
    m["dynamics.us_per_cell_step"] = (1e6 * per(incl_s["dynamics.simulate"]) / cells
                                      if cells else 0.0)
    m["dynamics.conv_flops"] = per(counts["dynamics.conv_flops"])
    m["dynamics.conv_bytes"] = per(counts["dynamics.conv_bytes"])
    min_calls = calls["speeds.min_speed"]
    m["speeds.mgf_per_min_speed"] = (
        tracer.count_under("kernels.exp_integral", "speeds.min_speed") / min_calls
        if min_calls else 0.0)
    sizes = workload.facts.bundle_bytes
    for file in workloads.BUNDLE_FILES:
        stem = Path(file).stem
        m[f"harness.csvio.bytes.{stem}"] = float(sizes.get(stem, 0))
        if file.endswith(".csv"):  # config_echo.txt is not written by write_csv
            m[f"harness.csvio.write_csv.{stem}.self_s"] = per(
                self_s[f"harness.csvio.write_csv.{stem}"])
    m["harness.csvio.bundle_mb"] = sum(sizes.values()) / 1e6
    m["observers.front_speed_relerr"] = workload.facts.front_speed_relerr
    m["subsolution.tabulated.fail_frac"] = (
        sum(op.failure is not None for op in out.probe) / len(out.probe))
    m["trace.wall_s"] = statistics.median(out.walls)
    m["trace.overhead_s"] = statistics.median(out.walls) - statistics.median(out.untraced)
    m["trace.self_sum_s"] = per(sum(self_s.values()))
    return m


def emit(metrics: dict, spec_metrics: list) -> dict:
    """Attach units from the spec; refuse a metric set that differs from it."""
    units = {item["name"]: item["unit"] for item in spec_metrics}
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        raise RuntimeError(f"metric set differs from BENCHMARK.json: missing {missing}, "
                           f"extra {extra}")
    return {name: {"value": float(metrics[name]), "unit": units[name]} for name in units}


def report(name: str, seed: int, out: Outcome) -> dict:
    """Print the readable report; return the metrics of this mode."""
    attempted = len(out.ops)
    print(f"workload {name}: {out.workload.size}; seed {seed}; {len(out.walls)} timed"
          f"{' traced' if out.tracer else ''} iterations, {len(out.untraced)} untraced; "
          f"{attempted} operations")
    for op in out.ops:
        print(f"  op {op.name}: {op.seconds:.4f} s"
              + ("" if op.failure is None else f"  FAILED: {op.failure}"))
    for op in out.probe:
        print(f"  known-defect probe {op.name}: {op.seconds:.4f} s  "
              + ("ok" if op.failure is None else f"FAILED: {op.failure}"))
    if out.tracer is not None:
        m = layer_metrics(out)
        print(f"  traced wall {m['trace.wall_s']:.4f} s, untraced wall "
              f"{statistics.median(out.untraced):.4f} s, tracing overhead "
              f"{m['trace.overhead_s']:+.4f} s; {len(out.tracer.spans)} spans")
        return m
    m = end_to_end_metrics(out)
    facts = out.workload.facts
    _, tail_note = tail(out.walls)
    relerr = (f"{facts.front_speed_relerr:.6f}" if name == "kpp" else "n/a (kpp only)")
    for label, text in (
            ("wall_s", f"{m['wall_s']:.4f} s  (median of N={len(out.walls)})"),
            ("wall_s.tail", f"{m['wall_s.tail']:.4f} s  ({tail_note})"),
            ("setup_s", f"{m['setup_s']:.4f} s  (median of {len(out.setup)} fresh processes: "
                        + ", ".join(f"{s:.3f}" for s in out.setup) + ")"),
            ("peak_rss_mb", f"{m['peak_rss_mb']:.1f} MB  (ru_maxrss of this process)"),
            ("bundle_mb", f"{sum(facts.bundle_bytes.values()) / 1e6:.3f} MB per iteration"),
            ("fail_frac", f"{out.failed}/{attempted} = {out.failed / attempted:.4f}"),
            ("front_speed_relerr", relerr)):
        print(f"  {label:<19}{text}")
    return m


# -- main --------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    env = environment(args.seed)
    out = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = report(args.workload, args.seed, out)
    if out.tracer is not None:
        trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
        out.tracer.dump(trace_path)
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
    kind = "per_layer" if args.trace else "end_to_end"
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": out.failed == 0, "attempted": len(out.ops),
                      "failed": out.failed, "metrics": emit(metrics, spec[kind])}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
