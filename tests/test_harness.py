import dataclasses
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frontlab as fl
import frontlab.harness as H
from frontlab.errors import ConfigError, InvalidKernelError
from frontlab.harness import config, runner
from frontlab.harness.csvio import fmt

MINIMAL = """
params.d1 = 1.0
params.d2 = 1.0
params.r1 = 0.5
params.r2 = 0.4
params.a = 0.5
params.b = 1.5
"""

# The echo of MINIMAL, pinned as text: all 42 keys, their defaults and their order.
MINIMAL_ECHO = """# resolved experiment configuration (all defaults explicit)

# [params]
params.d1 = 1
params.d2 = 1
params.r1 = 0.5
params.r2 = 0.40000000000000002
params.a = 0.5
params.b = 1.5
params.s = 0

# [kernel1]
kernel1.family = raised_cosine
kernel1.radius = 1
kernel1.file =\x20

# [kernel2]
kernel2.family = raised_cosine
kernel2.radius = 1
kernel2.file =\x20

# [habitat]
habitat.family = logistic
habitat.A = 0.5
habitat.L = 2

# [grid]
grid.x_min = -11
grid.x_max = 60.019278180554245
grid.dx = 0.0625

# [initial]
initial.u_center = 0
initial.u_half_width = 5
initial.u_height = 0.5
initial.v_center = 0
initial.v_half_width = 5
initial.v_height = 0.25

# [solver]
solver.dt = 0.060150375939849621
solver.t_final = 100
solver.snapshot_stride = 8

# [band]
band.eta = 0.023682813590736707
band.epsilon = 0.01
band.t_window = 0.5

# [observer]
observer.theta = 0.10000000000000001
observer.window_fraction = 0.5

# [subsolution]
subsolution.c = 0.11841406795368353
subsolution.delta1 = 0.050000000000000003
subsolution.delta2 = 0.050000000000000003
subsolution.rate_offset = 0.01
subsolution.amplitude = auto
subsolution.window = auto
subsolution.t_check = 10
subsolution.n_space = 512
subsolution.n_time = 64
"""

DESK = MINIMAL + """
params.s = 0.1
initial.u_height = 0.5
initial.v_height = 0.2
solver.t_final = 30.0
"""


def _count_calls(monkeypatch, original) -> list:
    """Count calls to ``original`` through every frontlab module that binds it by name."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("frontlab"):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return calls


def test_minimal_config_defaults():
    cfg = H.parse_config_text(MINIMAL)
    assert cfg.values["grid.dx"] == pytest.approx(1.0 / 16.0)
    assert cfg.values["observer.theta"] == 0.1
    assert cfg.values["band.t_window"] == 0.5
    assert cfg.values["params.s"] == 0.0
    assert cfg.values["kernel1.family"] == "raised_cosine"
    assert cfg.values["solver.dt"] == pytest.approx(
        fl.dt_max(cfg.params, cfg.profile.alpha_bar))
    # both species share the theorem band [(s + eta)t, (s_underline - eta)t]
    eta, s_under = cfg.values["band.eta"], cfg.speeds.s_underline
    assert eta == 0.1 * (s_under - cfg.params.s)
    for band in cfg.bands:
        assert (band.c_lo, band.c_hi, band.eta) == (cfg.params.s + eta, s_under - eta, eta)


def test_speeds_computed_once_per_parse(monkeypatch):
    calls = _count_calls(monkeypatch, fl.system_speeds)
    cfg = H.parse_config_text(MINIMAL)
    assert len(calls) == 1
    assert cfg.hypotheses.speeds is cfg.speeds


def test_unknown_key_named():
    with pytest.raises(ConfigError) as err:
        H.parse_config_text(MINIMAL + "params.q = 3\n")
    assert "params.q" in str(err.value)


def test_removed_observer_side_is_an_unknown_key():
    with pytest.raises(ConfigError) as err:
        H.parse_config_text(MINIMAL + "observer.side = right\n")
    assert "observer.side" in str(err.value)


@pytest.mark.parametrize("key, value", [
    ("band.mode", "auto"), ("band.two_sided", "false"), ("solver.boundary_monitor", "both"),
    ("grid.margin", "0.2"),
])
def test_deleted_band_and_monitor_keys_are_unknown(key, value):
    # the band follows from b and s, config runs monitor both walls, and the
    # auto horizon follows from the prey's speed and the band
    with pytest.raises(ConfigError) as err:
        H.parse_config_text(MINIMAL + f"{key} = {value}\n")
    assert str(err.value) == f"unknown configuration key: {key!r}"


def test_missing_required_key_named():
    with pytest.raises(ConfigError) as err:
        H.parse_config_text("params.d1 = 1.0\n")
    assert "params.d2" in str(err.value)


def test_minimal_echo_golden():
    assert H.echo_config(H.parse_config_text(MINIMAL)) == MINIMAL_ECHO
    assert len(config._KEYS) == 42


def test_prey_speed_computed_once_per_weak_predator_config(monkeypatch, tmp_path):
    text = MINIMAL.replace("params.b = 1.5", "params.b = 0.8") + "solver.t_final = 8.0\n"
    calls = _count_calls(monkeypatch, fl.min_speed)
    cfg = H.parse_config_text(text)
    res = H.run_experiment(cfg, out_dir=tmp_path / "weak")
    row = runner.sweep_row(0.8, res)
    assert len(calls) == 1
    prey = fl.min_speed(fl.SpeedProblem(d=cfg.params.d1, r=cfg.params.r1, k=1.0,
                                        kernel=cfg.kernel1))
    assert row[1] == cfg.speeds.s_star == prey.speed
    assert math.isnan(row[2]) and math.isnan(row[3])
    speeds_text = (tmp_path / "weak" / "speeds.csv").read_text().splitlines()[1]
    assert speeds_text.split(",")[:2] == [fmt(prey.speed), fmt(prey.rate)]


@pytest.mark.parametrize("key, value", [
    ("grid.dx", "0"),
    ("grid.x_max", "nan"),
    ("initial.u_center", "nan"),
    ("habitat.A", "-1"),
    ("habitat.L", "0"),
    ("kernel1.radius", "-1"),
    ("initial.u_height", "2"),
    ("initial.u_height", "nan"),
    ("subsolution.delta1", "-1"),
    ("subsolution.t_check", "-1"),
    ("solver.snapshot_stride", "0"),
    ("kernel2.family", "gaussian"),
    ("habitat.family", "auto"),
    ("observer.theta", "1.5"),
    ("observer.window_fraction", "-3"),
    ("subsolution.n_space", "0"),
    ("subsolution.n_time", "0"),
    ("subsolution.n_time", "1"),
    ("initial.u_half_width", "-1"),
    ("initial.v_half_width", "0"),
    ("solver.t_final", "1e308"),
    ("grid.x_max", "1e12"),
    ("initial.v_height", "3"),
    ("subsolution.window", "0.4"),
])
def test_out_of_range_key_rejected_and_named(key, value):
    with pytest.raises(ConfigError) as err:
        H.parse_config_text(DESK + f"{key} = {value}\n")
    assert key in str(err.value)


def test_subsolution_window_must_exceed_half_of_kernel1s_radius(tmp_path):
    # the sub-solution is built on kernel1, so kernel2's radius does not count,
    # and a table's radius is its outermost knot
    x = np.linspace(-2.0, 2.0, 201)
    np.savetxt(tmp_path / "rc2.txt", np.c_[x, (1.0 + np.cos(0.5 * np.pi * x)) / 4.0])
    table = DESK + "kernel1.family = tabulated\nkernel1.file = rc2.txt\n"
    for text, window in ((DESK + "kernel2.radius = 3.0\n", "0.5"),
                         (DESK + "kernel1.radius = 3.0\n", "1.4"), (table, "1")):
        with pytest.raises(ConfigError, match=rf"^subsolution\.window={window} must exceed "
                                              "half of kernel1's support radius"):
            H.parse_config_text(text + f"subsolution.window = {window}\n", base_dir=str(tmp_path))
    for text, window in ((DESK + "kernel2.radius = 3.0\n", 0.51), (table, 1.01)):
        cfg = H.parse_config_text(text + f"subsolution.window = {window}\n",
                                  base_dir=str(tmp_path))
        assert cfg.values["subsolution.window"] == window


# Candidate values per kind; the table decides which are out of range.
_CANDIDATES = {"float": ("-1", "0", "1", "2", "-inf", "inf", "nan"),
               "int": ("-3", "0"), "str": ("banana", "auto")}
_CANDIDATES["afloat"], _CANDIDATES["aint"] = _CANDIDATES["float"], _CANDIDATES["int"]
_UNRANGED = ("kernel1.file", "kernel2.file")


@pytest.mark.parametrize("key", [k for k in config._KEYS if k not in _UNRANGED])
def test_every_ranged_key_rejects_out_of_range_values(key):
    kind, _, need, ok = config._KEYS[key]
    rejected = [raw for raw in _CANDIDATES[kind] if not ok(config._parse_value(key, raw))]
    assert rejected, f"no candidate value is out of range for {key}"
    if kind in ("float", "afloat"):
        assert {"nan", "inf", "-inf"} <= set(rejected)
    for raw in rejected:
        with pytest.raises(ConfigError) as err:
            H.parse_config_text(DESK + f"{key} = {raw}\n")
        assert str(err.value).startswith(f"{key} must be {need}, got "), str(err.value)


def test_unranged_keys_accept_any_value():
    cfg = H.parse_config_text(DESK + "kernel2.file = unused.txt\n")
    assert cfg.values["kernel2.file"] == "unused.txt"


def test_observer_range_edges():
    cfg = H.parse_config_text(DESK + "observer.window_fraction = 1.0\n")
    assert cfg.window_fraction == 1.0
    for theta in ("0.0", "1.0", "nan"):
        with pytest.raises(ConfigError, match="observer.theta"):
            H.parse_config_text(DESK + f"observer.theta = {theta}\n")


def test_dt_above_dt_max_parses_and_echoes():
    # solver.dt is the snapshot clock and the first trial step, not a step bound
    cfg = H.parse_config_text(DESK + "solver.dt = 0.5\n")
    assert cfg.values["solver.dt"] == 0.5 > fl.dt_max(cfg.params, cfg.profile.alpha_bar)
    assert "solver.dt = 0.5\n" in H.echo_config(cfg)


def test_grid_too_small_reports_required_size():
    with pytest.raises(ConfigError) as err:
        H.parse_config_text(DESK + "grid.x_max = 12.0\n")
    assert "x_max >=" in str(err.value)


def test_grid_dx_floor_rejected():
    with pytest.raises(ConfigError) as err:
        H.parse_config_text(DESK + "grid.dx = 0.25\n")
    assert "floor" in str(err.value)


def test_echo_round_trip_identity():
    cfg = H.parse_config_text(DESK)
    echoed = H.echo_config(cfg)
    cfg2 = H.parse_config_text(echoed)
    assert cfg.values == cfg2.values
    assert H.echo_config(cfg2) == echoed


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# Valid ranges for every drawn key.  b below 1 leaves the predator without a
# band speed; s past a species' band speed leaves that species without a band.
_RANDOM_KEYS = {
    "params.d1": _floats(0.2, 2.0), "params.d2": _floats(0.2, 2.0),
    "params.r1": _floats(0.1, 1.0), "params.r2": _floats(0.1, 1.0),
    "params.a": _floats(0.1, 1.0), "params.b": _floats(0.5, 3.0),
    "params.s": _floats(0.0, 0.5),
    "kernel1.family": st.sampled_from(["raised_cosine", "smooth_bump"]),
    "kernel1.radius": _floats(0.5, 2.0),
    "kernel2.family": st.sampled_from(["raised_cosine", "smooth_bump"]),
    "kernel2.radius": _floats(0.5, 2.0),
    "habitat.family": st.sampled_from(["logistic", "piecewise_linear", "constant_one"]),
    "habitat.A": _floats(0.1, 3.0), "habitat.L": _floats(0.5, 5.0),
    "initial.u_center": _floats(-60.0, 5.0), "initial.u_height": _floats(0.0, 1.0),
    "initial.v_center": _floats(-60.0, 5.0),
    "solver.t_final": _floats(1.0, 100.0),
    "observer.theta": _floats(0.01, 0.99),
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.fixed_dictionaries({}, optional=_RANDOM_KEYS))
def test_echo_round_trips_for_random_valid_configs(drawn):
    text = MINIMAL + "".join(f"{key} = {fmt(value)}\n" for key, value in drawn.items())
    cfg = H.parse_config_text(text)
    echoed = H.echo_config(cfg)
    again = H.parse_config_text(echoed)
    assert again.values == cfg.values
    assert H.echo_config(again) == echoed
    # each band lies ahead of the habitat edge, ends below its species' band
    # speed c, and fits the auto grid to t_final, wherever the initial data sit
    sp, s = cfg.speeds, cfg.params.s
    c_u = sp.s_underline if s < sp.s_underline else sp.s_star
    for band, c in zip(cfg.bands, (c_u, sp.s_underline)):
        if s < c:
            assert s < band.c_lo < band.c_hi <= c
            assert cfg.values["grid.x_max"] >= band.c_hi * cfg.t_final
        else:
            assert math.isnan(band.c_lo) and math.isnan(band.c_hi) and math.isnan(band.eta)


def test_constant_one_config_mirrors_the_horizon_and_simulates():
    # the constant habitat is favorable on the left too, so the fronts spread
    # both ways and the auto grid must reach as far left as it reaches right
    text = (MINIMAL + "params.s = 0.118\nhabitat.family = constant_one\n"
            "solver.t_final = 60.0\n")
    cfg = H.parse_config_text(text)
    logistic = H.parse_config_text(text.replace("constant_one", "logistic"))
    assert cfg.values["grid.x_max"] == logistic.values["grid.x_max"]
    assert cfg.values["grid.x_min"] == -cfg.values["grid.x_max"]
    assert logistic.values["grid.x_min"] == -11.0
    assert ("habitat_assumptions", -1.0, False) in cfg.hypotheses.rows()
    res = H.run_experiment(cfg)
    for series in (res.u_left, res.v_left, res.u_series, res.v_series):
        assert np.all(np.isfinite(series.positions))
    # the prey's left front ends past where a logistic grid starts
    assert res.u_left.positions[-1] < logistic.values["grid.x_min"]


# The fast-predator regime: d2/r2 = 4/2 gives s_lower_star = 1.067 > s* = 0.390,
# with s = 0.43 s*.  The predator cannot outrun its prey, so the auto grid
# reaches (s* + 0.05) t_final, not (s_lower_star + 0.05) t_final (x_max 306.5).
FAST_PREDATOR = (MINIMAL.replace("params.d2 = 1.0", "params.d2 = 4.0")
                 .replace("params.r2 = 0.4", "params.r2 = 2.0")
                 + "params.s = 0.16778289617638326\ngrid.dx = 0.125\nsolver.t_final = 260.0\n")


def test_fast_predator_auto_grid_holds_both_fronts_at_the_prey_speed():
    cfg = H.parse_config_text(FAST_PREDATOR)
    sp = cfg.speeds
    assert sp.s_lower_star > 2.7 * sp.s_star and sp.s_underline == sp.s_star
    assert cfg.grid.n == 1133
    res = H.run_experiment(cfg)
    wide = H.run_experiment(H.parse_config_text(FAST_PREDATOR + "grid.x_max = 306.5\n"))
    assert wide.trajectory.grid.n == 2541
    for series in (res.u_series, res.v_series):
        speed = fl.estimate_speed(series, cfg.window_fraction).speed
        assert abs(speed - sp.s_star) < 0.03 * sp.s_star
    assert [r[4] for r in res.persistence_rows()] == ["persists", "persists"]
    assert [r[4] for r in wide.persistence_rows()] == ["persists", "persists"]
    assert res.trajectory.diagnostics["max_boundary_fraction"] < 1e-6
    n = cfg.grid.n
    assert np.array_equal(res.trajectory.grid.x, wide.trajectory.grid.x[:n])
    for name in ("u", "v"):
        shared = getattr(wide.trajectory, name)[:, :n]
        assert np.max(np.abs(getattr(res.trajectory, name) - shared)) < 1e-12


# README's exp.cfg at t_final 100 with both species started deep in the
# unfavorable region: the band still ends at (s_underline - eta) t_final = 22.49.
def _left_start(center: float) -> str:
    return (MINIMAL + "params.s = 0.118\nsolver.t_final = 100.0\n"
            f"initial.u_center = {center}\ninitial.v_center = {center}\n")


@pytest.mark.parametrize("center", [-45.0, -60.0])
def test_auto_grid_holds_the_band_when_the_initial_data_sit_left(center):
    cfg = H.parse_config_text(_left_start(center))
    assert cfg.bands[0] == cfg.bands[1]
    assert cfg.values["grid.x_max"] >= cfg.bands[0].c_hi * cfg.t_final
    with pytest.raises(ConfigError, match=r"^grid\.x_max=15 too small "):
        H.parse_config_text(_left_start(center) + "grid.x_max = 15\n")


@pytest.mark.parametrize("center, n", [(50.0, 1857), (30.0, 1537)])
def test_auto_grid_holds_the_left_front_of_initial_data_right_of_the_origin(center, n):
    # the prey's left front spreads back from the initial data to about the
    # habitat edge x = s t, so x_min keeps the origin, not the data's left end
    cfg = H.parse_config_text(_left_start(center))
    assert cfg.values["grid.x_min"] == -6.0 and cfg.grid.n == n
    res = H.run_experiment(cfg)
    assert res.trajectory.t_final == 100.0
    assert res.trajectory.diagnostics["max_boundary_fraction"] < 1e-6


def test_species_dying_in_the_unfavorable_region_run_to_t_final():
    # both die while they spread toward the left wall; the wall monitor
    # measures them against their largest peak, not their falling one
    res = H.run_experiment(H.parse_config_text(_left_start(-45.0)))
    assert res.trajectory.t_final == 100.0
    assert [r[4] for r in res.persistence_rows()] == ["extinct", "extinct"]


def test_prey_band_reaches_toward_s_star_past_the_predator_speed():
    # s_underline = 0.2368 < s = 0.3 < s* = 0.3902: the prey keeps a band below
    # its own speed, and the predator has none
    cfg = H.parse_config_text(MINIMAL + "params.s = 0.3\nsolver.t_final = 20.0\n")
    sp, s = cfg.speeds, cfg.params.s
    eta = cfg.values["band.eta"]
    assert eta == 0.1 * (sp.s_star - s)
    u_band, v_band = cfg.bands
    assert (u_band.c_lo, u_band.c_hi, u_band.eta) == (s + eta, sp.s_star - eta, eta)
    assert math.isnan(v_band.c_lo) and math.isnan(v_band.c_hi) and math.isnan(v_band.eta)


def test_theorem_band_eta_too_wide_fails_before_the_run(monkeypatch):
    # README's exp.cfg (its habitat keys are the defaults): s_underline - s is
    # 0.1188, so eta = 0.1 leaves an empty theorem band
    calls = _count_calls(monkeypatch, fl.simulate)
    text = MINIMAL + "params.s = 0.118\nsolver.t_final = 50.0\nband.eta = 0.1\n"
    with pytest.raises(ConfigError, match=r"^band\.eta=0\.1 must lie in \(0, "):
        H.run_experiment(H.parse_config_text(text))
    assert calls == []


@pytest.mark.parametrize("eta", [0.5, 0.2, 0.001])
def test_explicit_eta_past_the_prey_speed_fails_at_parse(monkeypatch, eta):
    # s = 0.41 past s* = 0.3902: neither species has a band, so (0, (c - s)/2)
    # is empty for every band.eta; the horizon follows from the speeds alone
    text = MINIMAL + "params.s = 0.41\nsolver.t_final = 100.0\n"
    cfg = H.parse_config_text(text)
    assert cfg.values["grid.x_max"] == 62.0 and cfg.values["band.eta"] == "auto"
    calls = _count_calls(monkeypatch, fl.simulate)
    with pytest.raises(ConfigError, match=rf"^band\.eta={eta:g} must lie in \(0, "):
        H.run_experiment(H.parse_config_text(text + f"band.eta = {eta}\n"))
    assert calls == []


def test_band_past_the_speed_horizon_runs_and_reports_both_verdicts():
    # past s*, both rows test extinction: each species' largest value over the
    # grid and the trailing window; the prey's front has not yet died out
    cfg = H.parse_config_text(MINIMAL + "params.s = 0.41\nsolver.t_final = 100.0\n")
    res = H.run_experiment(cfg)
    rows = res.persistence_rows()
    assert [row[0] for row in rows] == ["u", "v"]
    assert all(math.isnan(row[1]) for row in rows)
    assert res.u_report.verdict == "inconclusive"
    assert res.u_report.band_min == pytest.approx(4.19e-3, rel=1e-3)
    assert res.v_report.verdict == "extinct"
    assert res.v_report.band_min == pytest.approx(1.73e-9, rel=1e-2)


def test_weak_predator_config_roundtrips_without_band():
    # b <= 1: no predator band; the prey reads its band below s*
    text = MINIMAL.replace("params.b = 1.5", "params.b = 0.9") + "solver.t_final = 10.0\n"
    cfg = H.parse_config_text(text)
    sp = cfg.speeds
    assert math.isnan(sp.s_underline) and math.isnan(cfg.bands[1].c_lo)
    assert cfg.values["band.eta"] == 0.1 * (sp.s_star - cfg.params.s)
    assert cfg.bands[0].c_hi == sp.s_star - cfg.values["band.eta"]
    assert cfg.values["subsolution.c"] == "auto"
    echoed = H.echo_config(cfg)
    assert H.parse_config_text(echoed).values == cfg.values


# README's exp.cfg at s = 0.30, between s_underline = 0.2368 and s* = 0.3902.
S030 = (MINIMAL + "params.s = 0.30\nhabitat.family = logistic\nhabitat.A = 0.5\n"
        "habitat.L = 2.0\nsolver.t_final = 520.0\n")


def test_prey_persists_on_its_own_band_while_the_predator_dies_out():
    cfg = H.parse_config_text(S030)
    assert cfg.bands[0].c_lo == pytest.approx(0.3090, abs=5e-5)
    assert cfg.bands[0].c_hi == pytest.approx(0.3812, abs=5e-5)
    res = H.run_experiment(cfg)
    (u, u_eta, _, u_min, u_verdict), (v, v_eta, _, v_min, v_verdict) = res.persistence_rows()
    assert (u, u_verdict) == ("u", "persists")
    assert u_eta == cfg.values["band.eta"]
    assert u_min == pytest.approx(0.72678959626297923, rel=1e-9)
    assert (v, v_verdict) == ("v", "extinct") and math.isnan(v_eta)
    assert v_min == pytest.approx(1.4646894420487824e-31, rel=1e-6)


@pytest.mark.parametrize("s, auto", [(0.118, True), (0.30, False), (0.41, False)])
def test_auto_subsolution_speed_lies_between_the_shift_and_s_underline(s, auto):
    # the frame must run ahead of the habitat edge and below s_underline; past
    # s_underline = 0.2368 (README's exp.cfg at s = 0.30, or beyond s*) no
    # frame speed is derived, and the echo keeps "auto"
    cfg = H.parse_config_text(MINIMAL + f"params.s = {s}\nsolver.t_final = 20.0\n")
    c = cfg.values["subsolution.c"]
    if auto:
        assert c == 0.5 * (s + cfg.speeds.s_underline) and s < c < cfg.speeds.s_underline
    else:
        assert c == "auto" and "\nsubsolution.c = auto\n" in H.echo_config(cfg)


@pytest.mark.parametrize("c", ["0.25", "0.3", "0.1"])
def test_explicit_subsolution_speed_at_or_below_the_shift_fails_at_parse(c):
    text = MINIMAL + "params.s = 0.30\nsolver.t_final = 20.0\n"
    with pytest.raises(ConfigError, match=rf"^subsolution\.c={c} must exceed params\.s = 0\.3"):
        H.parse_config_text(text + f"subsolution.c = {c}\n")
    cfg = H.parse_config_text(text + "subsolution.c = 0.31\n")
    assert cfg.values["subsolution.c"] == 0.31


def test_run_experiment_bundle_and_verdicts(tmp_path):
    cfg = H.parse_config_text(DESK + "solver.t_final = 40.0\ninitial.v_height = 0.0\n")
    res = H.run_experiment(cfg, out_dir=tmp_path / "run")
    for name in ("config_echo.txt", "speeds.csv", "hypotheses.csv", "snapshots.csv",
                 "level_sets_u.csv", "level_sets_v.csv", "persistence.csv"):
        assert (tmp_path / "run" / name).exists(), name
    assert res.u_report.verdict == "persists"
    assert res.v_report.verdict == "extinct"
    speeds_text = (tmp_path / "run" / "speeds.csv").read_text().splitlines()
    assert speeds_text[0] == "s_star,lambda1,s_lower_star,lambda2,s_underline"
    row = speeds_text[1].split(",")
    assert float(row[0]) == pytest.approx(0.3901927818, abs=1e-6)


def test_run_experiment_zero_initial_data(tmp_path):
    cfg = H.parse_config_text(
        DESK + "initial.u_height = 0.0\ninitial.v_height = 0.0\nsolver.t_final = 10.0\n")
    res = H.run_experiment(cfg, out_dir=tmp_path / "zero")
    assert res.u_report.verdict == "extinct"
    assert res.v_report.verdict == "extinct"
    assert res.u_report.band_min == 0.0
    # speeds are still computed and written
    text = (tmp_path / "zero" / "speeds.csv").read_text()
    assert "nan" not in text.splitlines()[1]


def test_run_experiment_snapshot_csv_shape(tmp_path):
    cfg = H.parse_config_text(DESK + "solver.t_final = 5.0\n")
    res = H.run_experiment(cfg, out_dir=tmp_path / "s")
    lines = (tmp_path / "s" / "snapshots.csv").read_text().splitlines()
    assert lines[0] == "t,x,u,v"
    nt = res.trajectory.times.size
    assert len(lines) == 1 + nt * res.trajectory.grid.n
    for name in ("level_sets_u.csv", "level_sets_v.csv"):
        head = (tmp_path / "s" / name).read_text().splitlines()[0]
        assert head == "t,theta,x_left,x_right"


def test_run_experiment_weak_predator_speeds_row(tmp_path):
    text = MINIMAL.replace("params.b = 1.5", "params.b = 0.9") + "solver.t_final = 8.0\n"
    cfg = H.parse_config_text(text)
    H.run_experiment(cfg, out_dir=tmp_path / "weak")
    row = (tmp_path / "weak" / "speeds.csv").read_text().splitlines()[1].split(",")
    assert float(row[0]) > 0.0          # prey speed still computed
    assert row[0] == fmt(cfg.speeds.s_star)
    assert row[2:] == ["nan"] * 3       # predator speeds undefined for b <= 1
    u, v = (tmp_path / "weak" / "persistence.csv").read_text().splitlines()[1:]
    assert u.startswith(f"u,{fmt(cfg.values['band.eta'])},0.01,") and u.endswith(",persists")
    assert v == "v,nan,0.01,0,extinct"      # no predator band: v never grows


def test_an_override_replaces_the_texts_value_and_is_validated():
    # a sweep hands its axis value to the parser, not a rewritten text
    text = MINIMAL + "params.s = 0.05  # a comment\n"
    cfg = H.parse_config_text(text, overrides={"params.s": 0.1})
    assert cfg.values == H.parse_config_text(MINIMAL + "params.s = 0.1\n").values
    with pytest.raises(ConfigError, match=r"^params\.d1 must be positive and finite"):
        H.parse_config_text(text, overrides={"params.d1": -2.0})


def test_single_value_sweep_matches_run(tmp_path):
    cfg = H.parse_config_text(DESK)
    rows = H.sweep(cfg, "s", [0.1], workers=1, out_dir=tmp_path / "sw")
    assert len(rows) == 1
    res = H.run_experiment(H.parse_config_text(DESK), out_dir=None)
    row = rows[0]
    assert row[0] == 0.1
    assert row[1] == pytest.approx(res.config.speeds.s_star)
    assert row[4] == pytest.approx(res.u_report.band_min)
    assert row[6] == res.u_report.verdict
    assert (tmp_path / "sw" / "sweep.csv").exists()
    assert (tmp_path / "sw" / "run_000" / "snapshots.csv").exists()


def test_sweep_workers_deterministic(tmp_path):
    cfg = H.parse_config_text(DESK + "solver.t_final = 8.0\n")
    values = [0.05, 0.1, 0.15]
    rows1 = H.sweep(cfg, "s", values, workers=1, out_dir=tmp_path / "w1")
    rows4 = H.sweep(cfg, "s", values, workers=4, out_dir=tmp_path / "w4")
    assert rows1 == rows4
    assert ((tmp_path / "w1" / "sweep.csv").read_bytes()
            == (tmp_path / "w4" / "sweep.csv").read_bytes())


def test_sweep_row_is_text_of_the_members_speeds_and_persistence_rows(tmp_path):
    # params.b = 0.9 leaves the first member's predator without a band
    cfg = H.parse_config_text(MINIMAL + "params.s = 0.1\nsolver.t_final = 8.0\n")
    rows = H.sweep(cfg, "b", [0.9, 1.5], workers=1, out_dir=tmp_path / "w1")
    rows2 = H.sweep(cfg, "b", [0.9, 1.5], workers=2, out_dir=tmp_path / "w2")
    assert repr(rows2) == repr(rows)  # NaN fields compare by their text
    table = (tmp_path / "w1" / "sweep.csv").read_bytes()
    assert (tmp_path / "w2" / "sweep.csv").read_bytes() == table
    lines = table.decode().splitlines()
    assert lines[0] == runner.SWEEP_HEADER and len(lines) == 3
    for i, line in enumerate(lines[1:]):
        run = tmp_path / "w1" / f"run_{i:03d}"
        speeds = (run / "speeds.csv").read_text().splitlines()[1].split(",")
        u, v = [r.split(",") for r in (run / "persistence.csv").read_text().splitlines()[1:]]
        assert line.split(",") == [fmt(rows[i][0]), speeds[0], speeds[2], speeds[4],
                                   u[3], v[3], u[4], v[4]]
    assert lines[1].split(",")[2:4] == ["nan", "nan"]
    assert lines[1].endswith(",0,persists,extinct")
    assert "nan" not in lines[2]


def test_run_record_is_frozen_and_keeps_both_level_sets(tmp_path):
    cfg = H.parse_config_text(DESK + "solver.t_final = 8.0\n")
    res = H.run_experiment(cfg, out_dir=tmp_path / "run")
    for field in dataclasses.fields(res):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(res, field.name, None)
    for sp, left, right in (("u", res.u_left, res.u_series), ("v", res.v_left, res.v_series)):
        expected = fl.level_set_series(res.trajectory, cfg.theta, sp, "left")
        assert left.side == "left" and right.side == "right"
        np.testing.assert_array_equal(left.times, expected.times)
        np.testing.assert_array_equal(left.positions, expected.positions)
        crossed = np.isfinite(left.positions)
        assert crossed.any()
        assert (left.positions[crossed] < right.positions[crossed]).all()
        fields = [line.split(",") for line in
                  (tmp_path / "run" / f"level_sets_{sp}.csv").read_text().splitlines()[1:]]
        assert [f[2] for f in fields] == [fmt(x) for x in left.positions.tolist()]
        assert [f[3] for f in fields] == [fmt(x) for x in right.positions.tolist()]


def test_sweep_records_failures_and_continues(tmp_path):
    cfg = H.parse_config_text(DESK + "solver.t_final = 8.0\n")
    rows = H.sweep(cfg, "d1", [1.0, -2.0, 1.5], workers=1, out_dir=None)
    assert len(rows) == 3
    assert rows[0][6] in ("persists", "inconclusive", "extinct")
    assert str(rows[1][6]).startswith("error:")
    assert rows[2][6] in ("persists", "inconclusive", "extinct")


def test_sweep_records_any_member_exception_and_continues(tmp_path):
    cfg = H.parse_config_text(DESK + "solver.t_final = 8.0\n")
    out = tmp_path / "out"
    out.mkdir()
    (out / "run_001").write_text("a file where a bundle directory should go\n")
    rows = H.sweep(cfg, "s", [0.05, 0.1, 0.15], workers=1, out_dir=out)
    assert rows[1][6:] == ("error:FileExistsError", "error:FileExistsError")
    for i in (0, 2):
        assert rows[i][6] in ("persists", "inconclusive", "extinct")
        assert len(list((out / f"run_{i:03d}").iterdir())) == 7
    assert (out / "sweep.csv").exists()


def test_sweep_rejects_unknown_axis():
    cfg = H.parse_config_text(DESK)
    with pytest.raises(ConfigError):
        H.sweep(cfg, "theta", [0.1], workers=1, out_dir=None)


def test_identical_configs_identical_bundles(tmp_path):
    text = DESK + "solver.t_final = 12.0\n"
    H.run_experiment(H.parse_config_text(text), out_dir=tmp_path / "a")
    H.run_experiment(H.parse_config_text(text), out_dir=tmp_path / "b")
    for name in ("config_echo.txt", "speeds.csv", "hypotheses.csv", "snapshots.csv",
                 "level_sets_u.csv", "level_sets_v.csv", "persistence.csv"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name


def test_relative_kernel_table_read_from_config_directory(tmp_path, monkeypatch):
    (tmp_path / "cfgs" / "tables").mkdir(parents=True)
    (tmp_path / "elsewhere").mkdir()
    x = np.linspace(-1.0, 1.0, 401)
    rows = zip(x, (1.0 + np.cos(np.pi * x)) / 2.0)
    (tmp_path / "cfgs" / "tables" / "rc.txt").write_text(
        "".join(f"{a:.17g} {d:.17g}\n" for a, d in rows))
    (tmp_path / "cfgs" / "exp.cfg").write_text(
        DESK + "solver.t_final = 2.0\nkernel1.family = tabulated\nkernel1.file = tables/rc.txt\n")
    monkeypatch.chdir(tmp_path / "elsewhere")
    cfg = H.parse_config("../cfgs/exp.cfg")
    assert cfg.kernel1.family == "tabulated"
    assert os.path.samefile(cfg.values["kernel1.file"], tmp_path / "cfgs" / "tables" / "rc.txt")
    row, = H.sweep(cfg, "s", [0.1], workers=1)
    assert not row[-1].startswith("error"), row
    # the echo names the table wherever it is parsed
    echo = H.echo_config(cfg)
    monkeypatch.chdir(tmp_path)
    assert H.echo_config(H.parse_config_text(echo)) == echo
    # text parsed without a file reads relative tables from the working directory
    with pytest.raises(ConfigError, match="kernel1.file not found"):
        H.parse_config_text((tmp_path / "cfgs" / "exp.cfg").read_text())


def test_equal_kernel_keys_build_one_kernel(tmp_path, monkeypatch):
    x = np.linspace(-1.0, 1.0, 201)
    np.savetxt(tmp_path / "rc.txt", np.c_[x, (1.0 + np.cos(np.pi * x)) / 2.0])
    loads = _count_calls(monkeypatch, fl.load_tabulated)
    text = DESK + ("kernel1.family = tabulated\nkernel1.file = rc.txt\n"
                   "kernel2.family = tabulated\nkernel2.file = tables/../rc.txt\n")
    cfg = H.parse_config_text(text, base_dir=str(tmp_path))
    assert len(loads) == 1
    assert cfg.kernel2 is cfg.kernel1
    assert cfg.values["kernel2.file"] == cfg.values["kernel1.file"] == str(tmp_path / "rc.txt")
    cfg = H.parse_config_text(DESK)
    assert cfg.kernel2 is cfg.kernel1
    cfg = H.parse_config_text(DESK + "kernel2.radius = 1.5\n")
    assert cfg.kernel2 is not cfg.kernel1
    assert (cfg.kernel1.support_radius, cfg.kernel2.support_radius) == (1.0, 1.5)
    cfg = H.parse_config_text(DESK + "kernel2.family = smooth_bump\n")
    assert cfg.kernel2 is not cfg.kernel1


def test_bad_kernel_table_row_names_the_key(tmp_path):
    table = tmp_path / "rc.txt"
    table.write_text("-1.0 0.0\nnp.float64(0.0) np.float64(1.0)\n1.0 0.0\n")
    text = DESK + f"kernel1.family = tabulated\nkernel1.file = {table}\n"
    with pytest.raises(InvalidKernelError, match=r"kernel1\.file: .*rc\.txt, line 2"):
        H.parse_config_text(text)



def test_sweep_pool_has_at_most_one_worker_per_value(monkeypatch):
    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size, maps in process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", RecordingPool)
    cfg = H.parse_config_text(DESK + "solver.t_final = 2.0\n")
    rows = H.sweep(cfg, "s", [0.05, 0.1], workers=4000)
    assert sizes == [2]
    assert rows == H.sweep(cfg, "s", [0.05, 0.1], workers=1)
    H.sweep(cfg, "s", [0.05], workers=4000)
    assert sizes == [2]
