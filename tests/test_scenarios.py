"""Desk-scale end-to-end scenarios tying dynamics, observers, and harness."""

import pytest

import frontlab as fl
import frontlab.harness as H
from frontlab import dynamics


def test_full_system_band_occupation_strong_predator(unit_kernel):
    # b = 2 with rates keeping both diffusion inequalities satisfied;
    # shift at half the slower speed: both species fill the theorem band
    params0 = fl.Params(d1=1, d2=1, r1=0.4, r2=0.3, a=0.4, b=2.0, s=0.0)
    profile = fl.logistic(A=0.5, L=2.0)
    rep = fl.check_hypotheses(params0, profile, unit_kernel, unit_kernel)
    assert rep.k1 > 0 and rep.k2 > 0
    sv = rep.speeds
    s = 0.5 * sv.s_underline
    params = fl.Params(d1=1, d2=1, r1=0.4, r2=0.3, a=0.4, b=2.0, s=s)
    grid = fl.grid_from_spacing(-30.0, 130.0, 1 / 8)
    init = fl.make_initial(fl.BumpSpec(0, 10, 0.8), fl.BumpSpec(0, 8, 0.4),
                           grid, params)
    traj = fl.simulate(params, profile, unit_kernel, unit_kernel, grid, init,
                       dt=fl.dt_max(params, profile.alpha_bar), t_final=260.0,
                       snapshot_stride=40, boundary_monitor="both")
    eta = 0.1 * (sv.s_underline - s)
    band = fl.theorem_band(s, sv.s_underline, eta, 1e-2, 0.5)
    u_rep = fl.frame_band_min(traj, band, "u")
    v_rep = fl.frame_band_min(traj, band, "v")
    assert u_rep.verdict == "persists" and u_rep.band_min > 0.1
    assert v_rep.verdict == "persists" and v_rep.band_min > 0.05
    assert traj.diagnostics["h_invariant_ok"]


# Two species on the logistic habitat; the sweep and regression tests set params.s.
SWEEP_CFG = """
params.d1 = 1.0
params.d2 = 1.0
params.r1 = 0.5
params.r2 = 0.4
params.a = 0.5
params.b = 1.5
habitat.family = logistic
habitat.A = 0.5
habitat.L = 2.0
grid.dx = 0.125
initial.u_height = 0.8
initial.u_half_width = 5.0
initial.v_height = 0.2
solver.t_final = 150.0
"""


def test_sweep_verdicts_flip_across_speed_range(bench_speeds, tmp_path):
    # slow shift: prey persists on the theorem band; shift beyond the prey
    # speed: the habitat outruns the population and the band empties
    slow = 0.5 * bench_speeds.s_underline
    fast = 1.5 * bench_speeds.s_star
    cfg = H.parse_config_text(SWEEP_CFG + f"params.s = {slow:.17g}\n")
    rows = H.sweep(cfg, "s", [slow, fast], workers=1, out_dir=None)
    (row_slow, row_fast) = rows
    assert row_slow[6] == "persists"      # u on the theorem band
    assert row_fast[6] == "extinct"       # u after the habitat passes
    assert row_fast[7] == "extinct"       # v cannot outlive the prey


def test_dying_predator_steps_stay_above_the_abort_floor(bench_speeds):
    # the dying predator dips below zero within the controller's tolerance;
    # with snapshots every 50 ticks the steps are long enough to reach the
    # floor, and the accept test retries them shorter instead of aborting
    fast = 1.5 * bench_speeds.s_star
    cfg = H.parse_config_text(SWEEP_CFG + f"params.s = {fast:.17g}\n"
                              "solver.snapshot_stride = 50\n")
    diag = H.run_experiment(cfg).trajectory.diagnostics
    assert diag["n_rejected"] > 0
    assert min(diag["h_worst"]["u_min"], diag["h_worst"]["v_min"]) >= dynamics._ABORT_FLOOR
    assert diag["h_invariant_ok"]
