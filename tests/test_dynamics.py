import numpy as np
import pytest

import frontlab as fl
from frontlab.dynamics import _clamp_undershoot, sample_bump
from frontlab.errors import (BoundaryContaminationError, InstabilityError,
                             InvariantViolationError, NumericFailureError,
                             ResolutionError)


@pytest.fixture(scope="module")
def stencil(unit_kernel):
    return unit_kernel.discretize(1.0 / 8.0)


def nonlocal_op(stencil, field_values, index):
    """Reference (J*w - w) at one grid index, with zero extension outside the grid."""
    h = stencil.halfwidth
    n = field_values.size
    lo = index - h
    hi = index + h + 1
    seg = np.zeros(2 * h + 1)
    seg[max(0, -lo):(2 * h + 1) - max(0, hi - n)] = field_values[max(lo, 0):min(hi, n)]
    return float(stencil.weights @ seg * stencil.dx - field_values[index])


def test_params_validation():
    with pytest.raises(ValueError):
        fl.Params(d1=0.0, d2=1, r1=1, r2=1, a=1, b=2)
    with pytest.raises(ValueError):
        fl.Params(d1=1, d2=1, r1=1, r2=1, a=1, b=2, s=-0.1)
    p = fl.Params(d1=1, d2=1, r1=1, r2=1, a=1, b=2)
    assert p.s == 0.0 and p.v_cap == 1.0


def test_nonlocal_op_zero_field(stencil):
    field = np.zeros(50)
    assert nonlocal_op(stencil, field, 25) == 0.0


def test_nonlocal_op_constant_interior(stencil):
    field = np.full(64, 0.7)
    h = stencil.halfwidth
    for idx in (h, 32, 63 - h):
        assert abs(nonlocal_op(stencil, field, idx)) <= 1e-12


def test_nonlocal_op_indicator_bump_against_direct_sum(stencil):
    n = 80
    field = np.zeros(n)
    field[38:43] = 1.0
    h, w, dx = stencil.halfwidth, stencil.weights, stencil.dx

    def direct(i):
        acc = 0.0
        for j in range(-h, h + 1):
            if 0 <= i + j < n:
                acc += w[j + h] * field[i + j] * dx
        return acc - field[i]

    peak, halo_left, halo_right = 40, 36, 44
    for idx in (peak, halo_left, halo_right):
        assert nonlocal_op(stencil, field, idx) == pytest.approx(direct(idx), abs=1e-14)
    assert nonlocal_op(stencil, field, peak) < 0.0
    assert nonlocal_op(stencil, field, halo_left) > 0.0
    assert nonlocal_op(stencil, field, halo_right) > 0.0


def test_nonlocal_apply_matches_pointwise(stencil):
    rng = np.random.default_rng(7)
    field = rng.random(41)
    out = fl.nonlocal_apply(stencil, field)
    for idx in (0, 3, 20, 38, 40):
        assert out[idx] == pytest.approx(nonlocal_op(stencil, field, idx), abs=1e-13)


def _rhs_on(u, v, params, profile, grid, unit_kernel, t=0.0):
    st1 = unit_kernel.discretize(grid.dx)
    return fl.rhs(u, v, profile.alpha_shifted(grid.x, t, params.s), params, st1, st1)


def test_rhs_extinction_fixed_point(unit_kernel):
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-5, 5, 1 / 8)
    du, dv = _rhs_on(np.zeros(grid.n), np.zeros(grid.n), params,
                     fl.constant_one(), grid, unit_kernel)
    assert np.all(du == 0.0) and np.all(dv == 0.0)


def test_rhs_carrying_capacity_interior(unit_kernel):
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-5, 5, 1 / 8)
    du, dv = _rhs_on(np.ones(grid.n), np.zeros(grid.n), params,
                     fl.constant_one(), grid, unit_kernel)
    h = unit_kernel.discretize(grid.dx).halfwidth
    assert np.max(np.abs(du[h:-h])) <= 1e-12
    assert np.all(dv == 0.0)


def test_rhs_saturated_predator_interior(unit_kernel):
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-5, 5, 1 / 8)
    u = np.ones(grid.n)
    v = np.full(grid.n, params.b - 1.0)
    du, dv = _rhs_on(u, v, params, fl.constant_one(), grid, unit_kernel)
    h = unit_kernel.discretize(grid.dx).halfwidth
    expected_du = -params.r1 * params.a * (params.b - 1.0)
    assert du[h:-h] == pytest.approx(expected_du, abs=1e-12)
    assert np.max(np.abs(dv[h:-h])) <= 1e-12


def test_step_zero_state_stays_zero(unit_kernel):
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-5, 5, 1 / 8)
    st1 = unit_kernel.discretize(grid.dx)
    zeros, ones = np.zeros(grid.n), np.ones(grid.n)
    u, v = fl.step(zeros, zeros, 0.01, (ones, ones, ones), params, st1, st1)
    assert np.all(u == 0.0) and np.all(v == 0.0)


def _simulate_from(unit_kernel, u0, dt, grid):
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    return fl.simulate(params, fl.constant_one(), unit_kernel, unit_kernel, grid,
                       fl.State(u=u0, v=np.zeros(grid.n)), dt=dt, t_final=0.1,
                       boundary_monitor="none")


def test_simulate_rejects_unstable_dt(unit_kernel):
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-5, 5, 1 / 8)
    cap = fl.dt_max(params, 1.0)
    with pytest.raises(InstabilityError, match="dt_max"):
        _simulate_from(unit_kernel, np.zeros(grid.n), 1.5 * cap, grid)


@pytest.mark.parametrize("dt", [0.0, -0.01, np.nan])
def test_simulate_rejects_nonpositive_dt(unit_kernel, dt):
    grid = fl.grid_from_spacing(-5, 5, 1 / 8)
    with pytest.raises(ValueError, match="dt must be positive"):
        _simulate_from(unit_kernel, np.zeros(grid.n), dt, grid)


def test_simulate_aborts_on_real_undershoot(unit_kernel):
    grid = fl.grid_from_spacing(-5, 5, 1 / 8)
    with pytest.raises(InstabilityError, match="undershoot"):
        _simulate_from(unit_kernel, np.full(grid.n, -5e-10), 0.01, grid)


def test_clamp_undershoot_thresholds():
    arr = np.array([0.2, -5e-13, 0.0])
    worst = _clamp_undershoot(arr)
    assert worst == -5e-13
    assert arr[1] == 0.0 and arr[0] == 0.2


def test_simulate_rejects_nan_state(unit_kernel):
    grid = fl.grid_from_spacing(-5, 5, 1 / 8)
    u = np.zeros(grid.n)
    u[3] = np.nan
    with pytest.raises(NumericFailureError):
        _simulate_from(unit_kernel, u, 0.01, grid)


def test_simulate_h_worst_records_pre_clamp_minimum(unit_kernel):
    # an isolated roundoff-scale negative grows for one step before the clamp removes it
    grid = fl.grid_from_spacing(-5, 5, 1 / 8)
    u = np.zeros(grid.n)
    u[40] = -1e-12
    traj = _simulate_from(unit_kernel, u, 0.01, grid)
    assert traj.diagnostics["h_worst"]["u_min"] < -1e-12
    assert traj.diagnostics["h_invariant_ok"]
    assert np.all(traj.u[1:] >= 0.0)


def test_step_uniform_logistic_matches_closed_form(unit_kernel):
    # spatially uniform field away from the boundary follows the logistic ODE
    params = fl.Params(d1=1, d2=1, r1=1, r2=0.5, a=0.5, b=2)
    grid = fl.grid_from_spacing(-30, 30, 1 / 8)
    st1 = unit_kernel.discretize(grid.dx)
    u0 = 0.2
    u, v = np.full(grid.n, u0), np.zeros(grid.n)
    ones = np.ones(grid.n)
    dt = 0.03
    for _ in range(100):
        u, v = fl.step(u, v, dt, (ones, ones, ones), params, st1, st1)
    t = 100 * dt
    exact = u0 / (u0 + (1.0 - u0) * np.exp(-params.r1 * t))
    mid = grid.n // 2
    assert u[mid] == pytest.approx(exact, abs=1e-6)


def test_step_richardson_order(unit_kernel):
    # RK4: halving dt cuts the one-interval error by about 2^4
    params = fl.Params(d1=1, d2=1, r1=1, r2=0.5, a=0.5, b=2, s=0.3)
    profile = fl.logistic(A=0.5, L=1.0)
    grid = fl.grid_from_spacing(-15, 15, 1 / 8)
    st1 = unit_kernel.discretize(grid.dx)

    def advance(u, v, t0, dt, n):
        for k in range(n):
            t = t0 + k * dt
            alphas = tuple(profile.alpha_shifted(grid.x, t + f * dt, params.s)
                           for f in (0.0, 0.5, 1.0))
            u, v = fl.step(u, v, dt, alphas, params, st1, st1)
        return u, v

    # warm up so the field is smooth and generic
    u, v = advance(sample_bump(fl.BumpSpec(0.0, 3.0, 0.6), grid.x),
                   sample_bump(fl.BumpSpec(0.0, 2.0, 0.3), grid.x), 0.0, 0.02, 10)
    dt = 0.03
    coarse, medium, fine = (np.concatenate(advance(u, v, 0.2, dt / n, n)) for n in (1, 2, 4))
    ratio = np.max(np.abs(coarse - medium)) / np.max(np.abs(medium - fine))
    assert 13.0 <= ratio <= 19.0


def test_make_initial_bump_geometry():
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-5, 5, 0.1)
    state = fl.make_initial(fl.BumpSpec(0.0, 2.0, 0.5), fl.BumpSpec(0.0, 2.0, 0.0),
                            grid, params)
    positive = int((state.u > 0.0).sum())
    assert 39 <= positive <= 41
    assert state.u.max() == pytest.approx(0.5, abs=1e-12)
    assert np.all(state.v == 0.0)


def test_make_initial_height_limits():
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-5, 5, 0.1)
    ok = fl.make_initial(fl.BumpSpec(0.0, 2.0, 1.0), fl.BumpSpec(0.0, 2.0, 0.0),
                         grid, params)
    assert ok.u.max() <= 1.0
    with pytest.raises(InvariantViolationError):
        fl.make_initial(fl.BumpSpec(0.0, 2.0, 1.5), fl.BumpSpec(0.0, 2.0, 0.0),
                        grid, params)


def test_make_initial_rejects_nan_array():
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-5, 5, 0.1)
    zeros, nans = np.zeros(grid.n), np.full(grid.n, np.nan)
    for u0, v0 in ((nans, zeros), (zeros, nans)):
        with pytest.raises(InvariantViolationError):
            fl.make_initial(u0, v0, grid, params)


def test_make_initial_empty_support():
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-5, 5, 0.1)
    with pytest.raises(ResolutionError):
        fl.make_initial(fl.BumpSpec(0.051, 0.02, 0.5), fl.BumpSpec(0.0, 2.0, 0.0),
                        grid, params)


def test_simulate_predator_dies_without_prey(unit_kernel):
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-20, 20, 1 / 8)
    init = fl.make_initial(fl.BumpSpec(0.0, 2.0, 0.0), fl.BumpSpec(0.0, 3.0, 0.8),
                           grid, params)
    traj = fl.simulate(params, fl.constant_one(), unit_kernel, unit_kernel, grid,
                       init, dt=0.02, t_final=10.0, snapshot_stride=20,
                       boundary_monitor="both")
    sups = traj.v.max(axis=1)
    # dispersal redistributes mass, but the peak can only decay
    assert np.all(np.diff(sups) < 0.0)
    assert np.all(traj.u == 0.0)
    assert sups[-1] < sups[0] * 1e-3


def test_simulate_comparison_of_ordered_prey_data(unit_kernel):
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-25, 25, 1 / 8)
    zero_v = fl.BumpSpec(0.0, 2.0, 0.0)
    small = fl.make_initial(fl.BumpSpec(0.0, 2.0, 0.3), zero_v, grid, params)
    large = fl.make_initial(fl.BumpSpec(0.0, 3.0, 0.6), zero_v, grid, params)
    kw = dict(dt=0.02, t_final=5.0, snapshot_stride=10, boundary_monitor="none")
    ta = fl.simulate(params, fl.constant_one(), unit_kernel, unit_kernel, grid, small, **kw)
    tb = fl.simulate(params, fl.constant_one(), unit_kernel, unit_kernel, grid, large, **kw)
    assert np.all(ta.u <= tb.u + 1e-12)


def test_simulate_translation_equivariance(unit_kernel):
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-20, 20, 1 / 8)
    base = fl.make_initial(fl.BumpSpec(0.0, 2.0, 0.5), fl.BumpSpec(0.0, 1.5, 0.4),
                           grid, params)
    shifted = fl.State(u=np.roll(base.u, 1), v=np.roll(base.v, 1))
    kw = dict(dt=0.02, t_final=3.0, snapshot_stride=25, boundary_monitor="none")
    ta = fl.simulate(params, fl.constant_one(), unit_kernel, unit_kernel, grid, base, **kw)
    tb = fl.simulate(params, fl.constant_one(), unit_kernel, unit_kernel, grid, shifted, **kw)
    sl = slice(30, -30)
    assert np.max(np.abs(tb.u[-1][1:][sl] - ta.u[-1][:-1][sl])) <= 1e-10
    assert np.max(np.abs(tb.v[-1][1:][sl] - ta.v[-1][:-1][sl])) <= 1e-10


def test_simulate_front_position_refinement(unit_kernel):
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    zero_v = fl.BumpSpec(0.0, 2.0, 0.0)
    positions = {}
    for dx in (1 / 8, 1 / 16):
        grid = fl.grid_from_spacing(-30, 40, dx)
        init = fl.make_initial(fl.BumpSpec(0.0, 2.0, 0.5), zero_v, grid, params)
        traj = fl.simulate(params, fl.constant_one(), unit_kernel, unit_kernel, grid,
                           init, dt=0.02, t_final=20.0, snapshot_stride=10 ** 9,
                           boundary_monitor="none")
        positions[dx] = fl.level_set_position(grid.x, traj.u[-1], 0.1, "right")
    assert abs(positions[1 / 8] - positions[1 / 16]) < 1 / 8


def test_simulate_h_invariance_diagnostics(unit_kernel):
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-25, 25, 1 / 8)
    init = fl.make_initial(fl.BumpSpec(0.0, 3.0, 1.0), fl.BumpSpec(0.0, 2.0, 1.0),
                           grid, params)
    traj = fl.simulate(params, fl.constant_one(), unit_kernel, unit_kernel, grid,
                       init, dt=0.02, t_final=8.0, snapshot_stride=20,
                       boundary_monitor="none")
    assert traj.diagnostics["h_invariant_ok"]
    worst = traj.diagnostics["h_worst"]
    assert worst["u_max"] <= 1.0 + 1e-8 and worst["v_max"] <= params.v_cap + 1e-8
    assert worst["u_min"] >= 0.0 and worst["v_min"] >= 0.0


def test_simulate_boundary_contamination_error(unit_kernel):
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-6, 6, 1 / 8)
    init = fl.make_initial(fl.BumpSpec(0.0, 2.0, 0.5), fl.BumpSpec(0.0, 2.0, 0.0),
                           grid, params)
    with pytest.raises(BoundaryContaminationError):
        fl.simulate(params, fl.constant_one(), unit_kernel, unit_kernel, grid,
                    init, dt=0.02, t_final=30.0, snapshot_stride=5,
                    boundary_monitor="both")


def test_simulate_boundary_warning_flag(unit_kernel):
    # deliberately snug box: the tail grazes the wall but stays below 1e-3
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2)
    grid = fl.grid_from_spacing(-14, 14, 1 / 8)
    init = fl.make_initial(fl.BumpSpec(0.0, 2.0, 0.5), fl.BumpSpec(0.0, 2.0, 0.0),
                           grid, params)
    traj = fl.simulate(params, fl.constant_one(), unit_kernel, unit_kernel, grid,
                       init, dt=0.02, t_final=17.0, snapshot_stride=5,
                       boundary_monitor="both")
    assert traj.diagnostics["boundary_warning"]
    assert traj.diagnostics["max_boundary_fraction"] < 1e-3


@pytest.mark.parametrize("stride", [7, 165, 1000])
def test_simulate_snapshot_rows_for_any_stride(unit_kernel, stride):
    # t_final = 3.3 in 165 steps of 0.02: 165 * (3.3 / 165) != 3.3 in floating point;
    # the shifting habitat makes every row depend on the stage times
    grid = fl.grid_from_spacing(-15, 15, 1 / 8)
    cases = ((fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2), fl.constant_one()),
             (fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2, s=0.3), fl.logistic(A=0.5, L=1.0)))
    for params, profile in cases:
        init = fl.make_initial(fl.BumpSpec(0.0, 2.0, 0.5), fl.BumpSpec(0.0, 1.5, 0.4),
                               grid, params)
        kw = dict(dt=0.02, t_final=3.3, boundary_monitor="none")
        every = fl.simulate(params, profile, unit_kernel, unit_kernel, grid, init,
                            snapshot_stride=1, **kw)
        traj = fl.simulate(params, profile, unit_kernel, unit_kernel, grid, init,
                           snapshot_stride=stride, **kw)
        n_steps = traj.diagnostics["n_steps"]
        assert n_steps == 165
        rows = 1 + -(-n_steps // stride)
        assert traj.times.shape == (rows,)
        assert traj.u.shape == traj.v.shape == (rows, grid.n)
        assert traj.times[-1] == 3.3 and traj.t_final == 3.3
        # every row is the stride-1 snapshot of the same step
        steps = list(range(0, n_steps, stride)) + [n_steps]
        assert np.array_equal(traj.times, every.times[steps])
        assert np.array_equal(traj.u, every.u[steps])
        assert np.array_equal(traj.v, every.v[steps])


def test_simulate_reads_habitat_once_per_stage_time(unit_kernel, monkeypatch):
    times = []
    alpha_shifted = fl.HabitatProfile.alpha_shifted

    def counting(self, x, t, s):
        times.append(t)
        return alpha_shifted(self, x, t, s)

    monkeypatch.setattr(fl.HabitatProfile, "alpha_shifted", counting)
    params = fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2, s=0.3)
    grid = fl.grid_from_spacing(-15, 15, 1 / 8)
    init = fl.make_initial(fl.BumpSpec(0.0, 2.0, 0.5), fl.BumpSpec(0.0, 1.5, 0.4),
                           grid, params)
    traj = fl.simulate(params, fl.logistic(A=0.5, L=1.0), unit_kernel, unit_kernel, grid,
                       init, dt=0.02, t_final=3.3, snapshot_stride=10,
                       boundary_monitor="none")
    n, h = traj.diagnostics["n_steps"], traj.diagnostics["dt_used"]
    assert len(times) == 2 * n + 1
    # step starts from the step index, the last end at t_final exactly
    assert times[0::2] == [k * h for k in range(n)] + [3.3]
    assert times[1::2] == [k * h + 0.5 * h for k in range(n)]
