"""In-memory span tracer that times frontlab's layers from outside.

The tracer replaces public functions of the ``frontlab`` modules with
wrappers while it is installed.  A span wrapper records one span per call:
its name, start, end and the index of the span that was open when it
started (its parent).  A count wrapper only counts calls; it is used for
functions called so often, or so deep inside another layer, that a span
would distort what it measures.

A function is replaced at every ``frontlab`` module that bound it by name
(``from .speeds import system_speeds`` binds a second name), so calls made
through any import path are seen.  Methods are replaced on their class.
scipy's ``quad`` is bound in two frontlab modules and gets one counter per
binding.  Nothing under ``src/`` is edited; ``uninstall`` restores every
original.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

# (module, attribute, layer name, kind); kind is "span" or "count".
FUNCTIONS = [
    ("frontlab.kernels", "exp_integral", "kernels.exp_integral", "span"),
    ("frontlab.habitat", "validate", "habitat.validate", "span"),
    ("frontlab.speeds", "system_speeds", "speeds.system_speeds", "span"),
    ("frontlab.speeds", "min_speed", "speeds.min_speed", "span"),
    ("frontlab.dynamics", "simulate", "dynamics.simulate", "span"),
    ("frontlab.dynamics", "step", "dynamics.step", "span"),
    ("frontlab.dynamics", "rhs", "dynamics.rhs", "span"),
    ("frontlab.dynamics", "nonlocal_apply", "dynamics.nonlocal_apply", "span"),
    ("frontlab.observers", "level_set_series", "observers.level_set_series", "span"),
    ("frontlab.observers", "frame_band_min", "observers.frame_band_min", "span"),
    ("frontlab.observers", "estimate_speed", "observers.estimate_speed", "span"),
    ("frontlab.observers", "decay_sup", "observers.decay_sup", "span"),
    ("frontlab.subsolution", "construct_subsolution",
     "subsolution.construct_subsolution", "span"),
    ("frontlab.subsolution", "verify_subsolution", "subsolution.verify_subsolution", "span"),
    ("frontlab.subsolution", "match_decay_rate", "subsolution.match_decay_rate", "count"),
    ("frontlab.hypotheses", "check_hypotheses", "hypotheses.check_hypotheses", "span"),
    ("frontlab.harness.config", "parse_config_text",
     "harness.config.parse_config_text", "span"),
    ("frontlab.harness.runner", "run_experiment", "harness.runner.run_experiment", "span"),
    ("frontlab.harness.csvio", "write_csv", "harness.csvio.write_csv", "span"),
]

# (module, class, method, layer name, kind)
METHODS = [
    ("frontlab.kernels", "Kernel", "evaluate", "kernels.evaluate", "count"),
    ("frontlab.kernels", "Kernel", "discretize", "kernels.discretize", "span"),
    ("frontlab.habitat", "HabitatProfile", "alpha_shifted", "habitat.alpha_shifted", "span"),
]

# One binding each: (module, attribute, layer name), counted.
BINDINGS = [
    ("frontlab.kernels", "quad", "kernels.quad"),
    ("frontlab.subsolution", "quad", "subsolution.quad"),
]


def _write_csv_name(args, kwargs) -> str:
    path = args[0] if args else kwargs["path"]
    return f"harness.csvio.write_csv.{Path(path).stem}"


def _conv_cost(args, kwargs) -> tuple[int, int]:
    """Computed work of one direct convolution: (flops, bytes moved).

    n outputs times m taps, one multiply and one add each, then the scale
    by dx and the subtraction: 2*n*m + 2*n flops.  Bytes are the minimal
    float64 traffic: read the field and the weights, write the result.
    """
    stencil, values = args[0], args[1]
    n, m = values.size, stencil.weights.size
    return 2 * n * m + 2 * n, 8 * (2 * n + m)


# Functions whose calls also accumulate computed work counters.
_COST = {"dynamics.nonlocal_apply": (_conv_cost, "dynamics.conv_flops", "dynamics.conv_bytes")}
# Functions whose span name depends on the arguments.
_NAMER = {"harness.csvio.write_csv": _write_csv_name}


class Tracer:
    """Span and count recorder; spans stay in memory until ``dump``."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _span_wrapper(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        namer = _NAMER.get(name)
        cost = _COST.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = namer(args, kwargs) if namer else name
            if cost:
                flops, nbytes = cost[0](args, kwargs)
                counts[cost[1]] += flops
                counts[cost[2]] += nbytes
            rec = [label, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _wrap(self, name: str, kind: str, fn):
        if kind == "span":
            return self._span_wrapper(name, fn)
        return self._count_wrapper(name, fn)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span opened by the benchmark itself."""
        rec = [name, time.perf_counter(), 0.0, self._stack[-1]]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    # -- patching --------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Replace every traced callable; safe to call once per ``uninstall``."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = frontlab_modules()
        for mod_name, attr, name, kind in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(name, kind, original)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for mod_name, cls_name, attr, name, kind in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._set(cls, attr, self._wrap(name, kind, vars(cls)[attr]))
        for mod_name, attr, name in BINDINGS:
            mod = sys.modules[mod_name]
            self._set(mod, attr, self._count_wrapper(name, getattr(mod, attr)))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- analysis --------------------------------------------------------
    def self_times(self) -> tuple[Counter, Counter, Counter]:
        """Per name: (self seconds, inclusive seconds, span count).

        Self time is a span's duration minus the durations of its direct
        children; children of one span never overlap, so that is the time
        no child span covers.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, incl_s, calls = Counter(), Counter(), Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            incl_s[name] += end - start
            calls[name] += 1
        return self_s, incl_s, calls

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that ran inside a span called ``ancestor``."""
        inside = [False] * len(self.spans)
        total = 0
        for i, (label, _, _, parent) in enumerate(self.spans):
            inside[i] = label == ancestor or (parent >= 0 and inside[parent])
            if label == name and parent >= 0 and inside[parent]:
                total += 1
        return total

    def dump(self, path: Path) -> None:
        """Write spans as compact JSON: a name table and [name, start, end, parent] rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], round(a, 9), round(b, 9), p] for n, a, b, p in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "fields": ["name", "start", "end", "parent"],
                       "spans": rows, "counts": dict(self.counts)}, fh,
                      separators=(",", ":"))


def frontlab_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "frontlab" or n.startswith("frontlab."))]


def unpatched_bindings() -> list[str]:
    """Names still bound to an original traced function while installed.

    Empty when every module that imported a traced function by name sees
    the wrapper; the self-check asserts this.
    """
    originals = {}
    for mod_name, attr, name, _ in FUNCTIONS:
        fn = getattr(sys.modules[mod_name], attr)
        originals[id(getattr(fn, "__wrapped__", fn))] = name
    left = []
    for mod in frontlab_modules():
        for key, value in vars(mod).items():
            if id(value) in originals and not hasattr(value, "__wrapped__"):
                left.append(f"{mod.__name__}.{key}")
    return left
