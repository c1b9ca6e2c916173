import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

import frontlab as fl
from frontlab import subsolution
from frontlab.errors import NoRootError
from frontlab.kernels import exp_integral, weight_table
from frontlab.subsolution import TILT_TOL, _window_convolution, wave_peak_factor

from conftest import infinite_window_bound, infinite_window_tilt, mgf


def wave_profile(p, params, x, t: float):
    """The windowed wave at positions ``x`` and time ``t``."""
    z = np.asarray(x, dtype=float) - p.frame_speed * t
    zc = np.clip(z, -p.window, p.window)
    return np.where(np.abs(z) < p.window,
                    p.amplitude * math.exp(p.growth_rate(params) * t) * np.exp(-p.decay * zc)
                    * np.cos(0.5 * np.pi * zc / p.window), 0.0)


def tilt_speed(decay, params, kernel, window):
    """The frame speed at which the wave's sine component balances:
    ``(2*window*d1/pi) * integral of J(y) exp(decay*y) sin(pi*y/(2*window))``."""
    table = weight_table(kernel, lambda y: [np.sin(0.5 * np.pi * y / window)])
    return (2.0 * window * params.d1 / np.pi) * exp_integral(kernel, decay, table)[0]


@pytest.fixture(scope="module")
def bench(bench_params, bench_speeds, unit_kernel):
    """Benchmark wave: frame speed midway between shift and slower species."""
    s = 0.5 * bench_speeds.s_underline
    params = fl.Params(d1=1.0, d2=1.0, r1=0.5, r2=0.4, a=0.5, b=1.5, s=s)
    c = 0.5 * (s + bench_speeds.s_underline)
    p = fl.construct_subsolution(params, c, predator_level=0.05, prey_level=0.05,
                                 rate_offset=0.01, kernel=unit_kernel)
    return params, c, p


def test_max_linear_rate_value(bench_params):
    # r1*(1 - 0.05 - 0.5*0.05) - d1 = 0.5*0.9375 - 1
    got = fl.max_linear_rate(bench_params, 0.05, 0.05)
    assert got == pytest.approx(-0.5375, abs=1e-12)


def test_wave_profile_center_edges_growth(bench, bench_params, unit_kernel):
    params, c, p = bench
    eta = p.amplitude
    assert wave_profile(p, params, c * 0.0, 0.0) == pytest.approx(eta, rel=1e-12)
    t1 = 7.3
    assert wave_profile(p, params, c * t1, t1) == pytest.approx(
        eta * math.exp(p.growth_rate(params) * t1), rel=1e-12)
    # e-folding time of the amplitude
    te = 1.0 / (params.r1 * params.a * p.predator_level)
    assert wave_profile(p, params, c * te, te) == pytest.approx(math.e * eta, rel=1e-12)
    # continuity at the window edges
    for sign in (-1.0, 1.0):
        assert wave_profile(p, params, sign * p.window, 0.0) == 0.0
        assert abs(wave_profile(p, params, sign * (p.window - 1e-9), 0.0)) < 1e-9


def test_amplitude_bound_matches_limit_at_huge_window(bench, unit_kernel):
    params, _, p = bench
    gamma = p.growth_rate(params)
    for beta in (0.5, 1.2, 2.5):
        fin = fl.amplitude_speed_bound(beta, p.linear_rate, gamma, params,
                                       unit_kernel, window=1e6)
        inf = infinite_window_bound(beta, p.linear_rate, gamma, params, unit_kernel)
        assert fin == pytest.approx(inf, abs=1e-6)


def test_amplitude_bound_blows_up_at_small_decay(bench, unit_kernel):
    params, _, p = bench
    gamma = p.growth_rate(params)
    # numerator ~ r1*(1 - prey - 2*a*pred) - offset > 0, so 1/beta wins
    val = fl.amplitude_speed_bound(1e-6, p.linear_rate, gamma, params,
                                   unit_kernel, window=p.window)
    assert val > 1e4


def test_amplitude_bound_rejects_nonpositive_decay(bench, unit_kernel):
    params, _, p = bench
    with pytest.raises(ValueError):
        fl.amplitude_speed_bound(0.0, p.linear_rate, 0.0, params, unit_kernel, p.window)


def test_cos_weighted_integral_below_mgf(bench_params, unit_kernel):
    # window = support radius puts the cosine weight in [0, 1] on the support
    cosine = weight_table(unit_kernel, lambda y: [np.cos(0.5 * np.pi * y / 1.0)])
    for beta in (0.3, 1.0, 2.0):
        weighted = exp_integral(unit_kernel, beta, cosine)[0]
        assert weighted <= mgf(unit_kernel, beta) + 1e-12


def test_tilt_speed_zero_at_zero_decay(bench_params, unit_kernel):
    assert tilt_speed(0.0, bench_params, unit_kernel, window=7.0) == pytest.approx(0.0, abs=1e-12)
    assert infinite_window_tilt(0.0, bench_params, unit_kernel) == pytest.approx(0.0, abs=1e-12)


def test_tilt_speed_matches_limit_at_huge_window(bench_params, unit_kernel):
    for beta in (0.4, 1.0, 2.2):
        fin = tilt_speed(beta, bench_params, unit_kernel, window=1e6)
        inf = infinite_window_tilt(beta, bench_params, unit_kernel)
        assert fin == pytest.approx(inf, abs=1e-6)


def test_tilt_speed_increasing_in_decay(bench_params, unit_kernel):
    betas = np.linspace(0.0, 3.0, 13)
    vals = [tilt_speed(b, bench_params, unit_kernel, window=9.0) for b in betas]
    assert np.all(np.diff(vals) > 0.0)


def test_match_decay_rate_zero_speed(bench_params, unit_kernel):
    assert fl.match_decay_rate(0.0, 10.0, bench_params, unit_kernel) == 0.0


def test_match_decay_rate_against_dense_scan(bench_params, unit_kernel):
    window, c = 10.0, 0.3
    beta = fl.match_decay_rate(c, window, bench_params, unit_kernel)
    # independent oracle: bisect a dense sample of the tilt response
    grid = np.linspace(0.0, 4.0, 4001)
    vals = np.array([tilt_speed(b, bench_params, unit_kernel, window) for b in grid])
    i = int(np.searchsorted(vals, c))
    frac = (c - vals[i - 1]) / (vals[i] - vals[i - 1])
    beta_scan = grid[i - 1] + frac * (grid[i] - grid[i - 1])
    assert beta == pytest.approx(beta_scan, abs=1e-5)
    # postcondition replay
    assert abs(tilt_speed(beta, bench_params, unit_kernel, window) - c) <= 1e-8


def test_match_decay_rate_unreachable_speed(bench_params, unit_kernel):
    with pytest.raises(NoRootError):
        fl.match_decay_rate(1e90, 0.51, bench_params, unit_kernel)


@pytest.mark.parametrize("kernel", [fl.raised_cosine(1.0), fl.smooth_bump(1.0)],
                         ids=["raised_cosine", "smooth_bump"])
@pytest.mark.parametrize("frac", [0.3, 0.5, 0.7])
def test_match_decay_rate_takes_few_passes_all_right_of_the_root(monkeypatch, kernel, frac):
    # one pass at decay 0 for the start, then Newton from the right
    params, p = _wave_for(kernel, frac)
    rates = []
    original = subsolution.exp_integral

    def recording(kernel, lam, table=None):
        rates.append(lam)
        return original(kernel, lam, table)

    monkeypatch.setattr(subsolution, "exp_integral", recording)
    beta = fl.match_decay_rate(p.frame_speed, p.window, params, kernel)
    assert beta == p.decay
    assert len(rates) <= 8 and rates[0] == 0.0
    assert rates[-1] == beta
    assert all(b >= beta for b in rates[1:])


@pytest.mark.parametrize("frame_speed, window, name", [
    (math.nan, 10.0, "frame_speed"), (math.inf, 10.0, "frame_speed"),
    (0.1, math.nan, "window"), (0.1, math.inf, "window"), (0.1, 0.5, "window"),
])
def test_match_decay_rate_names_a_bad_input(bench_params, unit_kernel, frame_speed, window, name):
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        fl.match_decay_rate(frame_speed, window, bench_params, unit_kernel)


def test_verify_subsolution_passes_on_bench(bench, unit_kernel):
    params, c, p = bench
    rep = fl.verify_subsolution(p, params, unit_kernel)
    assert rep.ok, rep.failures
    assert rep.amplitude_margin > 0.0
    assert rep.tilt_residual <= 1e-8
    assert rep.min_linear > 0.0
    assert rep.min_reaction > 0.0
    # the wave's largest value over [0, t_check] stays within the prey level
    peak = (wave_peak_factor(p.decay, p.window) * p.amplitude
            * math.exp(p.growth_rate(params) * 10.0))
    assert peak <= p.prey_level


@pytest.mark.parametrize("kernel", [fl.raised_cosine(1.0), fl.smooth_bump(1.0)],
                         ids=["raised_cosine", "smooth_bump"])
def test_verify_margins_match_the_bound_and_tilt_speed(kernel):
    # verify reads the cosine and sine integrals from the window pass's
    # whole-support row; the table passes of amplitude_speed_bound and
    # tilt_speed compute them on their own
    params, p = _wave_for(kernel)
    rep = fl.verify_subsolution(p, params, kernel)
    gamma = p.growth_rate(params)
    bound = fl.amplitude_speed_bound(p.decay, p.linear_rate, gamma, params, kernel, p.window)
    tilt = tilt_speed(p.decay, params, kernel, p.window)
    assert abs(rep.amplitude_margin - (bound - p.frame_speed)) <= 1e-14
    assert abs(rep.tilt_residual - abs(tilt - p.frame_speed)) <= 1e-14


def test_report_ok_and_failures_follow_its_rows(bench, unit_kernel):
    params, _, p = bench
    rep = fl.verify_subsolution(p, params, unit_kernel)
    assert [clause for clause, *_ in rep.rows()] == [
        "amplitude_margin", "tilt_residual", "min_linear", "min_reaction"]
    assert rep.ok == all(ok for *_, ok in rep.rows())
    bad = fl.SubsolutionReport(amplitude_margin=0.25, tilt_residual=2.0 * TILT_TOL,
                               min_linear=0.0, min_reaction=1e-13)
    assert [ok for *_, ok in bad.rows()] == [True, False, False, True]
    assert bad.failures == ("tilt_residual", "min_linear") and not bad.ok
    assert bad.worst_margin == -TILT_TOL


def test_verify_rejects_linear_rate_at_cap(bench, unit_kernel):
    params, c, p = bench
    m_cap = fl.max_linear_rate(params, p.predator_level, p.prey_level)
    bad = fl.SubsolutionParams(window=p.window, decay=p.decay, amplitude=p.amplitude,
                               predator_level=p.predator_level, prey_level=p.prey_level,
                               linear_rate=m_cap, frame_speed=p.frame_speed)
    with pytest.raises(ValueError):
        fl.verify_subsolution(bad, params, unit_kernel)


def test_verify_needs_both_ends_of_the_time_interval(bench, unit_kernel):
    # one sample, t = 0, would never look at t_check
    params, _, p = bench
    with pytest.raises(ValueError, match="n_time"):
        fl.verify_subsolution(p, params, unit_kernel, n_time=1)


def test_verify_rejects_small_window(bench, unit_kernel):
    params, c, p = bench
    bad = fl.SubsolutionParams(window=0.4, decay=p.decay, amplitude=p.amplitude,
                               predator_level=p.predator_level, prey_level=p.prey_level,
                               linear_rate=p.linear_rate, frame_speed=p.frame_speed)
    with pytest.raises(ValueError):
        fl.verify_subsolution(bad, params, unit_kernel)


def test_bound_derivative_identity(bench, unit_kernel):
    params, _, p = bench
    gamma = p.growth_rate(params)
    m = p.linear_rate
    A = lambda b: infinite_window_bound(b, m, gamma, params, unit_kernel)
    B = lambda b: infinite_window_tilt(b, params, unit_kernel)
    for beta in np.linspace(0.3, 4.0, 12):
        h = 1e-5 * beta
        fd = (A(beta + h) - A(beta - h)) / (2.0 * h)
        assert fd == pytest.approx((B(beta) - A(beta)) / beta, abs=1e-5)


def test_optimal_decay_rate_tangency_and_ordering(bench, unit_kernel):
    params, _, p = bench
    gamma = p.growth_rate(params)
    m = p.linear_rate
    # the bound is min_speed's candidate speed with d = d1, r*k = m - gamma + d1,
    # so its minimizer is that problem's tangency rate
    bstar = fl.min_speed(fl.SpeedProblem(d=params.d1, r=m - gamma + params.d1, k=1.0,
                                          kernel=unit_kernel)).rate
    A = lambda b: infinite_window_bound(b, m, gamma, params, unit_kernel)
    B = lambda b: infinite_window_tilt(b, params, unit_kernel)
    assert abs(A(bstar) - B(bstar)) <= 1e-6
    # it is a minimum of the bound
    assert A(0.9 * bstar) > A(bstar)
    assert A(1.1 * bstar) > A(bstar)
    # strict ordering below the optimal rate
    for beta in np.linspace(0.1 * bstar, 0.95 * bstar, 7):
        assert A(beta) > B(beta)


def test_simulation_stays_above_wave(bench, unit_kernel):
    # seed the homogeneous scalar reduction at the wave and integrate:
    # the solution must dominate the wave pointwise on [0, 5]
    params, c, p = bench
    prof = fl.constant_one()
    grid = fl.grid_from_spacing(-p.window - 8.0, p.window + 8.0, 1.0 / 16.0)
    x = grid.x
    u0 = wave_profile(p, params, x, 0.0)
    init = fl.State(u=u0.copy(), v=np.zeros_like(u0))
    traj = fl.simulate(params, prof, unit_kernel, unit_kernel, grid, init,
                       dt=fl.dt_max(params, prof.alpha_bar), t_final=5.0,
                       snapshot_stride=5, boundary_monitor="none")
    for i, t in enumerate(traj.times):
        wave = wave_profile(p, params, x, float(t))
        assert float((traj.u[i] - wave).min()) >= -1e-8


def _wave_for(kernel, frac=0.5):
    """Acceptance parameters with the shift at ``frac`` of the slower speed."""
    base = dict(d1=1.0, d2=1.0, r1=0.5, r2=0.4, a=0.5, b=1.5)
    s_under = fl.system_speeds(fl.Params(**base), kernel, kernel).s_underline
    params = fl.Params(**base, s=frac * s_under)
    c = 0.5 * (params.s + s_under)
    return params, fl.construct_subsolution(params, c, kernel=kernel)


@pytest.mark.parametrize("kernel", [fl.raised_cosine(1.0), fl.smooth_bump(1.0)],
                         ids=["raised_cosine", "smooth_bump"])
def test_window_convolution_against_pointwise_quadrature(kernel):
    params, p = _wave_for(kernel)
    R, rj = p.window, kernel.support_radius
    z = np.linspace(-R, R, 66)[1:-1]
    g = lambda y: math.exp(-p.decay * y) * math.cos(0.5 * math.pi * y / R)
    ref = [integrate.quad(lambda y: kernel.evaluate(zi - y) * g(y), max(-R, zi - rj),
                          min(R, zi + rj), epsabs=1e-17, epsrel=1e-13, limit=200)[0]
           for zi in z]
    np.testing.assert_allclose(_window_convolution(kernel, p, z)[0], ref, rtol=1e-13)


def _grid_minima(p, params, kernel, n_space, n_time, t_check=10.0):
    """min L[wave] and min Q[wave] from the whole n_time x n_space grid."""
    R, gamma = p.window, p.growth_rate(params)
    dz = 2.0 * R / (n_space + 1)
    z = np.linspace(-R + dz, R - dz, n_space)
    growth = p.amplitude * np.exp(gamma * np.linspace(0.0, t_check, n_time))[:, None]
    g = np.exp(-p.decay * z) * np.cos(0.5 * np.pi * z / R)
    gp = np.exp(-p.decay * z) * (-p.decay * np.cos(0.5 * np.pi * z / R)
                                 - (0.5 * np.pi / R) * np.sin(0.5 * np.pi * z / R))
    conv = _window_convolution(kernel, p, z)[0]
    lin = growth * (params.d1 * conv + (p.linear_rate - gamma) * g + p.frame_speed * gp)
    reaction_lin = (params.d1 * conv - params.d1 * g
                    + params.r1 * (1.0 - params.a * p.predator_level) * g
                    - gamma * g + p.frame_speed * gp)
    q = growth * reaction_lin - params.r1 * (growth * g) ** 2
    return lin.min(), q.min()


_RC201 = np.linspace(-1.0, 1.0, 201)


@pytest.mark.parametrize("kernel", [
    fl.raised_cosine(1.0), fl.smooth_bump(1.0),
    fl.tabulated(_RC201, np.where(np.abs(_RC201) < 1.0, 0.5 * (1.0 + np.cos(np.pi * _RC201)), 0.0)),
], ids=["raised_cosine", "smooth_bump", "tabulated"])
def test_verify_minima_give_the_bits_of_the_whole_grid(kernel):
    # min L is the smallest growth factor times min_z of L's profile, and
    # min Q is taken block by block (n_space 3000 leaves a short last block):
    # both keep the bits of the whole grid's minimum, for the constructed
    # wave, with min Q < 0 (amplitude 0.5) and with min L < 0 (a frame past
    # the amplitude bound).
    params, p = _wave_for(kernel)
    waves = [p, dataclasses.replace(p, amplitude=0.5),
             dataclasses.replace(p, frame_speed=1.5 * p.frame_speed)]
    signs = []
    for wave in waves:
        for n_space in (16, 512, 3000):
            for n_time in (2, 7, 64):
                rep = fl.verify_subsolution(wave, params, kernel, n_space=n_space, n_time=n_time)
                ref = _grid_minima(wave, params, kernel, n_space, n_time)
                got = (rep.min_linear, rep.min_reaction)
                assert np.array(got).tobytes() == np.array(ref).tobytes(), (n_space, n_time)
        signs.append((rep.min_linear > 0.0, rep.min_reaction > 0.0))
    assert signs == [(True, True), (True, False), (False, False)]


@pytest.mark.parametrize("frac", [0.4, 0.6])
def test_verify_subsolution_tabulated_kernel(frac):
    # A raised cosine sampled at 201 points, as a kernel file would give it.
    x = np.linspace(-1.0, 1.0, 201)
    d = 0.5 * (1.0 + np.cos(np.pi * x))
    d[[0, -1]] = 0.0
    kernel = fl.tabulated(x, d)
    params, p = _wave_for(kernel, frac)
    rep = fl.verify_subsolution(p, params, kernel)
    assert rep.ok, rep.failures
    assert rep.ok == all(ok for *_, ok in rep.rows())
    assert rep.tilt_residual <= 1e-8
