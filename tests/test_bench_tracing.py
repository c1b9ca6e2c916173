"""The benchmark's span tracer still fits the program it wraps.

``bench/tracing.py`` names frontlab functions, methods and bindings by
string and reads the arguments of ``nonlocal_apply``.  A renamed target or a
changed argument would surface in a benchmark run only as failed
operations, so these tests load the tracer from its file, unedited, and
run it around a small simulation.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import frontlab as fl

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("frontlab_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = _load_tracing()
    for mod_name, attr, _, kind in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(mod_name), attr)), (mod_name, attr)
        assert kind in ("span", "count")
    for mod_name, cls_name, attr, _, kind in tracing.METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        assert callable(vars(cls)[attr]), (cls_name, attr)
        assert kind in ("span", "count")
    for mod_name, attr, _ in tracing.BINDINGS:
        assert callable(getattr(importlib.import_module(mod_name), attr)), (mod_name, attr)


def test_tracer_spans_a_two_species_simulation(unit_kernel):
    tracing = _load_tracing()
    for mod_name, *_ in tracing.FUNCTIONS + tracing.METHODS + tracing.BINDINGS:
        importlib.import_module(mod_name)
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2, s=0.3)
    grid = fl.grid_from_spacing(-15, 15, 1 / 8)
    init = fl.make_initial(fl.BumpSpec(0.0, 2.0, 0.5), fl.BumpSpec(0.0, 1.5, 0.4),
                           grid, params)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.unpatched_bindings() == []
        traj = fl.simulate(params, fl.logistic(A=0.5, L=1.0), unit_kernel,
                           fl.smooth_bump(1.5), grid, init, dt=0.02, t_final=1.0,
                           snapshot_stride=10, boundary_monitor="none")
    finally:
        tracer.uninstall()
    assert fl.simulate.__name__ == "simulate" and not hasattr(fl.simulate, "__wrapped__")
    _, _, calls = tracer.self_times()
    attempts = traj.diagnostics["n_steps"] + traj.diagnostics["n_rejected"]
    assert calls["dynamics.simulate"] == 1
    assert calls["dynamics.step"] == attempts > 0
    assert calls["dynamics.rhs"] == calls["dynamics.nonlocal_apply"] == 1 + 6 * attempts
    assert calls["habitat.alpha_shifted"] == 1 + attempts
    assert tracer.counts["dynamics.conv_flops"] > 0
    assert np.isfinite(traj.u).all()
