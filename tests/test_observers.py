import math

import numpy as np
import pytest

import frontlab as fl
from frontlab.errors import ConfigError, InsufficientDataError, NoFrontError


def _synthetic_trajectory(field_fn, t_final=100.0, nt=51, x_min=-10.0, x_max=100.0,
                          n=441, v_fn=None):
    """Build a trajectory directly from closed-form fields."""
    grid = fl.Grid(x_min=x_min, x_max=x_max, n=n)
    times = np.linspace(0.0, t_final, nt)
    x = grid.x
    u = np.array([field_fn(x, t) for t in times])
    v = np.array([v_fn(x, t) for t in times]) if v_fn else np.zeros_like(u)
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    return fl.Trajectory(times=times, u=u, v=v, grid=grid, params=params)


@pytest.fixture(scope="module")
def kpp_desk_run(unit_kernel):
    """Short scalar invasion run shared by the observer tests."""
    params = fl.Params(d1=1.0, d2=1.0, r1=1.0, r2=0.4, a=0.5, b=1.5, s=0.0)
    prof = fl.constant_one()
    grid = fl.grid_from_spacing(-60, 100, 1 / 8)
    init = fl.make_initial(fl.BumpSpec(0.0, 2.0, 0.5), fl.BumpSpec(0.0, 2.0, 0.0),
                           grid, params)
    traj = fl.simulate(params, prof, unit_kernel, unit_kernel, grid, init,
                       dt=fl.dt_max(params, 1.0), t_final=80.0, snapshot_stride=25,
                       boundary_monitor="right")
    speed = fl.min_speed(fl.SpeedProblem(d=1.0, r=1.0, k=1.0, kernel=unit_kernel)).speed
    return traj, speed


def test_level_set_position_step_profile():
    x = np.linspace(-5, 5, 101)
    field = np.where(x < 0.0, 1.0, 0.0)
    pos = fl.level_set_position(x, field, 0.5, "right")
    assert abs(pos) <= 0.1 + 1e-12


def test_level_set_position_no_front():
    x = np.linspace(-5, 5, 101)
    with pytest.raises(NoFrontError):
        fl.level_set_position(x, np.zeros_like(x), 0.1, "right")
    with pytest.raises(NoFrontError):
        fl.level_set_position(x, np.ones_like(x), 0.1, "right")


def test_level_set_position_translation_equivariance():
    x = np.linspace(-20, 20, 401)
    bump = lambda c: np.clip(1.0 - np.abs(x - c) / 5.0, 0.0, None)
    p0 = fl.level_set_position(x, bump(0.0), 0.3, "right")
    p1 = fl.level_set_position(x, bump(2.0), 0.3, "right")
    assert p1 - p0 == pytest.approx(2.0, abs=1e-12)
    left0 = fl.level_set_position(x, bump(0.0), 0.3, "left")
    assert left0 == pytest.approx(-p0, abs=1e-12)


def test_estimate_speed_on_noisy_line():
    rng = np.random.default_rng(42)
    times = np.linspace(0.0, 50.0, 80)
    positions = 2.0 * times + rng.normal(0.0, 1e-3, times.size)
    series = fl.LevelSetSeries(theta=0.1, side="right", times=times, positions=positions)
    est = fl.estimate_speed(series, 0.5)
    assert est.speed == pytest.approx(2.0, abs=1e-3)
    assert est.stderr < 1e-3


def test_estimate_speed_constant_positions():
    times = np.linspace(0.0, 10.0, 40)
    series = fl.LevelSetSeries(theta=0.1, side="right", times=times,
                               positions=np.full(40, 3.3))
    assert fl.estimate_speed(series, 0.5).speed == pytest.approx(0.0, abs=1e-14)


def test_estimate_speed_insufficient_data():
    times = np.linspace(0.0, 10.0, 8)
    series = fl.LevelSetSeries(theta=0.1, side="right", times=times,
                               positions=2.0 * times)
    with pytest.raises(InsufficientDataError):
        fl.estimate_speed(series, 1.0)


def test_estimate_speed_time_translation_invariance():
    times = np.linspace(0.0, 50.0, 60)
    positions = 1.3 * times + 0.7
    a = fl.estimate_speed(fl.LevelSetSeries(0.1, "right", times, positions), 0.5)
    b = fl.estimate_speed(fl.LevelSetSeries(0.1, "right", times + 100.0, positions), 0.5)
    assert a.speed == pytest.approx(b.speed, abs=1e-12)


def test_estimate_speed_matches_variational_speed(kpp_desk_run):
    traj, s_star = kpp_desk_run
    series = fl.level_set_series(traj, 0.1, "u", "right")
    est = fl.estimate_speed(series, 0.5)
    assert est.speed == pytest.approx(s_star, rel=0.04)


def test_frame_band_min_synthetic_persistence():
    plateau = lambda x, t: np.where(x <= 0.25 * t, 0.5, 0.0)
    traj = _synthetic_trajectory(plateau)
    band = fl.FrameBandSpec(c_lo=0.1, c_hi=0.2, eta=0.05, epsilon=0.01)
    rep = fl.frame_band_min(traj, band, "u")
    assert rep.verdict == "persists"
    assert rep.band_min == pytest.approx(0.5)
    ahead = fl.FrameBandSpec(c_lo=0.3, c_hi=0.4, eta=0.05, epsilon=0.01)
    rep2 = fl.frame_band_min(traj, ahead, "u")
    assert rep2.verdict == "extinct"
    assert rep2.band_min == 0.0


def test_frame_band_min_zero_species_extinct():
    plateau = lambda x, t: np.where(x <= 0.25 * t, 0.5, 0.0)
    traj = _synthetic_trajectory(plateau)
    band = fl.FrameBandSpec(c_lo=0.1, c_hi=0.2, eta=0.05, epsilon=0.01)
    rep = fl.frame_band_min(traj, band, "v")
    assert rep.verdict == "extinct" and rep.band_min == 0.0


def test_frame_band_min_verdict_monotone_in_epsilon():
    plateau = lambda x, t: np.where(x <= 0.25 * t, 0.05, 0.0)
    traj = _synthetic_trajectory(plateau)
    lo = fl.frame_band_min(traj, fl.FrameBandSpec(0.1, 0.2, 0.05, epsilon=0.01), "u")
    hi = fl.frame_band_min(traj, fl.FrameBandSpec(0.1, 0.2, 0.05, epsilon=0.2), "u")
    assert lo.verdict == "persists"
    assert hi.verdict != "persists"


def test_frame_band_min_wider_band_not_larger():
    # a field that dips near the band edges
    dip = lambda x, t: 0.5 - 0.4 * np.exp(-0.5 * (x - 0.15 * max(t, 1.0)) ** 2)
    traj = _synthetic_trajectory(dip)
    s, s_under = 0.0, 0.3
    narrow = fl.frame_band_min(traj, fl.theorem_band(s, s_under, 0.12, 0.01), "u")
    wide = fl.frame_band_min(traj, fl.theorem_band(s, s_under, 0.03, 0.01), "u")
    assert wide.band_min <= narrow.band_min + 1e-12


def test_frame_band_min_band_beyond_grid():
    plateau = lambda x, t: np.where(x <= 0.25 * t, 0.5, 0.0)
    traj = _synthetic_trajectory(plateau)
    band = fl.FrameBandSpec(c_lo=2.0, c_hi=3.0, eta=0.05, epsilon=0.01)
    with pytest.raises(ConfigError):
        fl.frame_band_min(traj, band, "u")


def test_theorem_band_margin_validation():
    with pytest.raises(ConfigError):
        fl.theorem_band(s=0.2, c=0.3, eta=0.06, epsilon=0.01)
    band = fl.theorem_band(s=0.2, c=0.3, eta=0.04, epsilon=0.01)
    assert band.c_lo == pytest.approx(0.24) and band.c_hi == pytest.approx(0.26)
    # s at or past the band speed, or a NaN band speed: no band
    for c in (0.2, 0.1, math.nan):
        none = fl.theorem_band(s=0.2, c=c, eta=0.04, epsilon=0.01)
        assert math.isnan(none.c_lo) and math.isnan(none.c_hi) and math.isnan(none.eta)


def test_frame_band_min_without_a_band_tests_extinction():
    # no band: band_min is the largest value over the grid and the trailing
    # window, and the verdict is never persists
    nan = math.nan
    none = fl.FrameBandSpec(c_lo=nan, c_hi=nan, eta=nan, epsilon=0.01)
    for height, verdict in ((0.5, "inconclusive"), (1e-7, "extinct"), (0.0, "extinct")):
        traj = _synthetic_trajectory(lambda x, t: np.where(x <= 0.25 * t, height, 0.0))
        rep = fl.frame_band_min(traj, none, "u")
        assert (rep.band_min, rep.verdict) == (height, verdict) and math.isnan(rep.eta)
    with pytest.raises(ConfigError):
        fl.FrameBandSpec(c_lo=0.1, c_hi=nan, eta=0.05, epsilon=0.01)


def test_decay_sup_zero_field():
    traj = _synthetic_trajectory(lambda x, t: np.zeros_like(x), t_final=10.0)
    _, sups = fl.decay_sup(traj, 1.0, "u")
    assert np.nanmax(sups) == 0.0


def test_decay_sup_regimes(kpp_desk_run):
    traj, s_star = kpp_desk_run
    _, fast = fl.decay_sup(traj, 1.2 * s_star, "u")
    assert fast[-1] < 1e-3
    _, slow = fl.decay_sup(traj, 0.5 * s_star, "u")
    assert slow[-1] > 0.9
