"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a [PASS]/[FAIL] line (visible with ``pytest -s`` or on
failure).  The two simulation scenarios are shared module fixtures:

* scalar invasion: no predator, homogeneous habitat, measured front speed
  against the variational speed;
* persistence band: both species in a shifting habitat, minima over the
  moving frame band.
"""

import time

import numpy as np
import pytest

import frontlab as fl
import frontlab.harness as H

from conftest import (infinite_window_bound, infinite_window_tilt, mgf,
                      raised_cosine_mgf_closed)


def _check(num, desc, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def kpp_run(unit_kernel):
    """Criterion 3/4/5 scenario: scalar invasion at unit rates."""
    params = fl.Params(d1=1.0, d2=1.0, r1=1.0, r2=0.4, a=0.5, b=1.5, s=0.0)
    profile = fl.constant_one()
    grid = fl.grid_from_spacing(-40.0, 560.0, 1.0 / 16.0)
    init = fl.make_initial(fl.BumpSpec(0.0, 2.0, 0.5), fl.BumpSpec(0.0, 2.0, 0.0),
                           grid, params)
    start = time.perf_counter()
    traj = fl.simulate(params, profile, unit_kernel, unit_kernel, grid, init,
                       dt=fl.dt_max(params, profile.alpha_bar), t_final=400.0,
                       snapshot_stride=44, boundary_monitor="right")
    elapsed = time.perf_counter() - start
    s_star = fl.min_speed(fl.SpeedProblem(d=1.0, r=1.0, k=1.0, kernel=unit_kernel)).speed
    return traj, s_star, elapsed


def _band_config_text(s, t_final=520.0):
    return f"""
params.d1 = 1.0
params.d2 = 1.0
params.r1 = 0.5
params.r2 = 0.4
params.a = 0.5
params.b = 1.5
params.s = {s:.17g}
habitat.family = logistic
habitat.A = 0.5
habitat.L = 2.0
grid.x_min = -40.0
grid.x_max = 260.0
grid.dx = 0.125
initial.u_center = 0.0
initial.u_half_width = 12.0
initial.u_height = 0.8
initial.v_center = 0.0
initial.v_half_width = 10.0
initial.v_height = 0.25
solver.t_final = {t_final}
band.epsilon = 0.01
"""


@pytest.fixture(scope="module")
def band_run(bench_speeds, tmp_path_factory):
    """Criterion 6/9 scenario: persistence band in a shifting habitat."""
    s = 0.5 * bench_speeds.s_underline
    text = _band_config_text(s)
    out = tmp_path_factory.mktemp("band") / "run_a"
    start = time.perf_counter()
    result = H.run_experiment(H.parse_config_text(text), out_dir=out)
    elapsed = time.perf_counter() - start
    return text, result, out, elapsed


def test_criterion_1_mgf_oracle_equivalence(unit_kernel):
    start = time.perf_counter()
    worst = 0.0
    for lam in (0.1, 0.5, 1.0, 2.0, 4.0):
        got = mgf(unit_kernel, lam)
        ref = raised_cosine_mgf_closed(lam)
        worst = max(worst, abs(got - ref) / abs(ref))
    elapsed = time.perf_counter() - start
    _check(1, f"mgf vs closed form, worst rel err {worst:.2e} (<=1e-8), {elapsed:.2f}s",
           worst <= 1e-8 and elapsed < 1.0)


def test_criterion_2_minimizer_vs_brute_force(unit_kernel):
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    lams = np.arange(1e-3, 10.0 + 5e-4, 1e-3)
    mgf_grid = np.array([raised_cosine_mgf_closed(l) for l in lams])
    worst = 0.0
    for _ in range(50):
        d, r, k = rng.uniform(0.1, 5.0, size=3)
        golden = fl.min_speed(fl.SpeedProblem(d=d, r=r, k=k, kernel=unit_kernel)).speed
        scan = float(((d * (mgf_grid - 1.0) + r * k) / lams).min())
        worst = max(worst, abs(golden - scan))
    elapsed = time.perf_counter() - start
    _check(2, f"min_speed vs dense scan over 50 triples, worst |diff| {worst:.2e} "
              f"(<=1e-4), {elapsed:.1f}s", worst <= 1e-4 and elapsed < 10.0)


def test_criterion_3_scalar_spreading_speed(kpp_run):
    traj, s_star, elapsed = kpp_run
    series = fl.level_set_series(traj, 0.1, "u", "right")
    est = fl.estimate_speed(series, 0.5)
    rel = abs(est.speed - s_star) / s_star
    _check(3, f"front speed {est.speed:.4f} vs variational {s_star:.4f}, "
              f"rel err {rel:.2%} (<=3%), run {elapsed:.0f}s (<60s)",
           rel <= 0.03 and elapsed < 60.0)


def test_criterion_4_decay_ahead_of_front(kpp_run):
    traj, s_star, _ = kpp_run
    _, sups = fl.decay_sup(traj, 1.2 * s_star, "u")
    final = float(sups[-1])
    _check(4, f"sup over |x|>=1.2*s*t at T: {final:.2e} (<1e-3)", final < 1e-3)


def test_criterion_5_h_invariance(kpp_run, band_run):
    ok = True
    details = []
    for name, traj in (("scalar", kpp_run[0]), ("band", band_run[1].trajectory)):
        b = traj.params.v_cap
        u_ok = bool(np.all(traj.u >= 0.0) and np.all(traj.u <= 1.0 + 1e-8))
        v_ok = bool(np.all(traj.v >= 0.0) and np.all(traj.v <= b + 1e-8))
        diag_ok = traj.diagnostics["h_invariant_ok"]
        ok = ok and u_ok and v_ok and diag_ok
        details.append(f"{name}: u_max-1={traj.u.max() - 1.0:+.1e}, "
                       f"v_max-(b-1)={traj.v.max() - b:+.1e}")
    _check(5, "invariant box held on all snapshots (" + "; ".join(details) + ")", ok)


def test_criterion_6_persistence_band(band_run, bench_speeds):
    _, result, _, elapsed = band_run
    rep = result.config.hypotheses
    margins_ok = (abs(rep.k1 - 0.225) < 1e-12 and abs(rep.k2 - 0.525) < 1e-12
                  and rep.all_ok)
    u_rep, v_rep = result.u_report, result.v_report
    ok = (margins_ok and u_rep.verdict == "persists" and v_rep.verdict == "persists"
          and u_rep.band_min >= 1e-2 and v_rep.band_min >= 1e-2 and elapsed < 300.0)
    _check(6, f"band minima u={u_rep.band_min:.3f}, v={v_rep.band_min:.3f} (>=1e-2), "
              f"margins k1={rep.k1:.3f}, k2={rep.k2:.3f}, run {elapsed:.0f}s (<5min)", ok)


def test_criterion_7_subsolution_verification(bench_speeds, unit_kernel):
    start = time.perf_counter()
    s = 0.5 * bench_speeds.s_underline
    c = 0.5 * (s + bench_speeds.s_underline)
    params = fl.Params(d1=1.0, d2=1.0, r1=0.5, r2=0.4, a=0.5, b=1.5, s=s)
    p = fl.construct_subsolution(params, c, predator_level=0.05, prey_level=0.05,
                                 rate_offset=0.01, kernel=unit_kernel)
    report = fl.verify_subsolution(p, params, unit_kernel)
    elapsed = time.perf_counter() - start
    ok = (report.tilt_residual <= 1e-8 and report.amplitude_margin > 0.0
          and report.min_linear > 0.0 and report.min_reaction > 0.0
          and elapsed < 10.0)
    _check(7, f"tilt residual {report.tilt_residual:.1e} (<=1e-8), amplitude margin "
              f"{report.amplitude_margin:.3f} (>0), min L {report.min_linear:.2e} (>0), "
              f"min Q {report.min_reaction:.2e} (>0), {elapsed:.1f}s", ok)


def test_criterion_8_derivative_identities(bench_speeds, unit_kernel):
    params = fl.Params(d1=1.0, d2=1.0, r1=0.5, r2=0.4, a=0.5, b=1.5, s=0.0)
    delta = 0.05
    gamma = params.r1 * params.a * delta
    m = fl.max_linear_rate(params, delta, delta) - 0.01
    A = lambda b: infinite_window_bound(b, m, gamma, params, unit_kernel)
    B = lambda b: infinite_window_tilt(b, params, unit_kernel)
    worst_fd = 0.0
    for beta in np.linspace(0.25, 4.5, 20):
        h = 1e-5 * beta
        fd = (A(beta + h) - A(beta - h)) / (2.0 * h)
        worst_fd = max(worst_fd, abs(fd - (B(beta) - A(beta)) / beta))
    # the bound is min_speed's candidate speed with d = d1, r*k = m - gamma + d1,
    # so its minimizer is that problem's tangency rate
    bstar = fl.min_speed(fl.SpeedProblem(d=params.d1, r=m - gamma + params.d1, k=1.0,
                                          kernel=unit_kernel)).rate
    tangency = abs(A(bstar) - B(bstar))
    minimal = A(0.99 * bstar) > A(bstar) and A(1.01 * bstar) > A(bstar)
    ok = worst_fd <= 1e-5 and tangency <= 1e-6 and minimal
    _check(8, f"derivative identity worst dev {worst_fd:.1e} (<=1e-5) at 20 rates, "
              f"tangency at optimum {tangency:.1e} (<=1e-6)", ok)


def test_criterion_9_determinism(band_run, tmp_path):
    text, _, out_a, _ = band_run
    out_b = tmp_path / "run_b"
    H.run_experiment(H.parse_config_text(text), out_dir=out_b)
    files = ("config_echo.txt", "speeds.csv", "hypotheses.csv", "snapshots.csv",
             "level_sets_u.csv", "level_sets_v.csv", "persistence.csv")
    same = all((out_a / f).read_bytes() == (out_b / f).read_bytes() for f in files)
    _check(9, "repeat of the band run is byte-identical across all CSV outputs", same)
