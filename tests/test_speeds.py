import math

import numpy as np
import pytest
from scipy import integrate, optimize

import frontlab as fl
from frontlab.errors import BracketFailureError
from frontlab.speeds import brentq

from conftest import raised_cosine_mgf_closed


def dense_scan_speed(d, r, k, lam_max=10.0, step=1e-3, radius=1.0):
    """Independent oracle: brute-force scan of the candidate speed."""
    lams = np.arange(step, lam_max + step / 2, step)
    m = np.array([raised_cosine_mgf_closed(l, radius) for l in lams])
    return float(((d * (m - 1.0) + r * k) / lams).min())


def test_candidate_speed_example(unit_kernel):
    pr = fl.SpeedProblem(d=1.0, r=1.0, k=1.0, kernel=unit_kernel)
    got = fl.candidate_speed(pr, 1.0)
    expected = (raised_cosine_mgf_closed(1.0) - 1.0 + 1.0) / 1.0
    assert got == pytest.approx(expected, rel=1e-10)
    assert got == pytest.approx(1.0671, abs=1e-4)


def test_candidate_speed_rejects_nonpositive_rate(unit_kernel):
    pr = fl.SpeedProblem(d=1.0, r=1.0, k=1.0, kernel=unit_kernel)
    with pytest.raises(ValueError):
        fl.candidate_speed(pr, 0.0)
    with pytest.raises(ValueError):
        fl.candidate_speed(pr, -1.0)


def test_candidate_speed_vanishes_without_growth(unit_kernel):
    # k = 0: the symmetric tilted mass is 1 + O(lam^2), so the speed ~ lam.
    pr = fl.SpeedProblem(d=1.0, r=1.0, k=0.0, kernel=unit_kernel)
    assert fl.candidate_speed(pr, 1e-4) <= 1e-3


def test_candidate_speed_increasing_in_k(unit_kernel):
    lo = fl.SpeedProblem(d=1.0, r=1.0, k=0.5, kernel=unit_kernel)
    hi = fl.SpeedProblem(d=1.0, r=1.0, k=1.5, kernel=unit_kernel)
    for lam in (0.5, 1.0, 3.0):
        assert fl.candidate_speed(hi, lam) > fl.candidate_speed(lo, lam)


def test_min_speed_benchmark_value(unit_kernel):
    res = fl.min_speed(fl.SpeedProblem(d=1.0, r=1.0, k=1.0, kernel=unit_kernel))
    assert res.rate is not None
    assert res.speed == pytest.approx(0.582, abs=5e-4)
    assert res.rate == pytest.approx(2.90, abs=0.02)
    assert res.speed == pytest.approx(dense_scan_speed(1.0, 1.0, 1.0), abs=1e-4)


def test_min_speed_local_minimality_postcondition(unit_kernel):
    pr = fl.SpeedProblem(d=1.0, r=1.0, k=1.0, kernel=unit_kernel)
    res = fl.min_speed(pr)
    delta = 1e-5 * res.rate
    assert fl.candidate_speed(pr, res.rate + delta) >= res.speed - 1e-10
    assert fl.candidate_speed(pr, res.rate - delta) >= res.speed - 1e-10
    assert res.speed == pytest.approx(fl.candidate_speed(pr, res.rate), abs=0.0)


def test_min_speed_zero_carrying_level(unit_kernel):
    res = fl.min_speed(fl.SpeedProblem(d=1.0, r=1.0, k=0.0, kernel=unit_kernel))
    assert res.speed == 0.0
    assert res.rate is None


def test_min_speed_monotone_in_k(unit_kernel):
    r1 = fl.min_speed(fl.SpeedProblem(d=1.0, r=1.0, k=1.0, kernel=unit_kernel))
    r2 = fl.min_speed(fl.SpeedProblem(d=1.0, r=1.0, k=2.0, kernel=unit_kernel))
    assert r2.speed >= r1.speed


def test_min_speed_candidate_grows_past_minimizer(unit_kernel):
    res = fl.min_speed(fl.SpeedProblem(d=1.0, r=1.0, k=1.0, kernel=unit_kernel))
    pr = fl.SpeedProblem(d=1.0, r=1.0, k=1.0, kernel=unit_kernel)
    assert fl.candidate_speed(pr, 4.0 * res.rate) > res.speed


def test_min_speed_tiny_k_goes_to_zero(unit_kernel):
    # the minimizer falls far below the first bracket end 1/R
    res = fl.min_speed(fl.SpeedProblem(d=1.0, r=1.0, k=1e-9, kernel=unit_kernel))
    assert res.rate is not None
    assert 0.0 < res.speed < 1e-4


@pytest.mark.parametrize("d, r, k, kernel", [
    (1.0, 1.0, 1.0, fl.raised_cosine(1.0)),
    (1.0, 0.5, 1.0, fl.raised_cosine(1.0)),
    (1.0, 0.4, 0.5, fl.raised_cosine(1.0)),
    (0.02, 1.0, 1.0, fl.smooth_bump(1.0)),
])
def test_min_speed_rate_is_tangent(d, r, k, kernel):
    # At the minimizer the candidate speed equals its tangent slope d*M'(rate).
    res = fl.min_speed(fl.SpeedProblem(d=d, r=r, k=k, kernel=kernel))
    assert abs(d * fl.tilted_mean(kernel, res.rate) - res.speed) <= 1e-12 * res.speed


_REFERENCE_DENSITIES = {
    "raised_cosine": lambda y: (1.0 + np.cos(np.pi * y)) / 2.0,
    "smooth_bump": lambda y: np.exp(-1.0 / (1.0 - y * y)) if abs(y) < 1.0 else 0.0,
}


def _reference_speed(family, d, r, k):
    """Minimum of (d*(M(lam) - 1) + r*k)/lam, from the unit-radius density
    alone: scipy's quad at epsrel 1e-13 and its bounded scalar minimizer."""
    density = _REFERENCE_DENSITIES[family]
    mass = integrate.quad(density, -1.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]

    def speed(lam):
        tilted = integrate.quad(lambda y: density(y) * math.exp(lam * y), -1.0, 1.0,
                                epsabs=0.0, epsrel=1e-13, limit=200)[0]
        return (d * (tilted / mass - 1.0) + r * k) / lam

    return optimize.minimize_scalar(speed, bounds=(1e-3, 50.0), method="bounded",
                                    options={"xatol": 1e-10}).fun


@pytest.mark.parametrize("family", sorted(_REFERENCE_DENSITIES))
@pytest.mark.parametrize("d, r, k", [(1.0, 0.5, 1.0), (1.0, 0.4, 0.5)])
def test_min_speed_matches_a_scipy_reference(family, d, r, k):
    # the shift margin allows each speed its quadrature error, about 1e-10 relative
    kernel = fl.raised_cosine(1.0) if family == "raised_cosine" else fl.smooth_bump(1.0)
    got = fl.min_speed(fl.SpeedProblem(d=d, r=r, k=k, kernel=kernel)).speed
    assert got == pytest.approx(_reference_speed(family, d, r, k), rel=1e-12, abs=0.0)


def test_min_speed_bracket_failure(unit_kernel):
    pr = fl.SpeedProblem(d=1e-12, r=1.0, k=1e30, kernel=unit_kernel)
    with pytest.raises(BracketFailureError):
        fl.min_speed(pr)


def test_min_speed_dilated_kernel_matches_scan():
    # dilating the raised cosine is just a larger support radius
    for sigma in (0.5, 2.0):
        kernel = fl.raised_cosine(sigma)
        res = fl.min_speed(fl.SpeedProblem(d=1.0, r=1.0, k=1.0, kernel=kernel))
        scan = dense_scan_speed(1.0, 1.0, 1.0, lam_max=20.0 / sigma, radius=sigma)
        assert res.speed == pytest.approx(scan, abs=1e-4)


def test_system_speeds_symmetric_case(unit_kernel):
    params = fl.Params(d1=1.0, d2=1.0, r1=1.0, r2=1.0, a=0.5, b=2.0, s=0.0)
    sp = fl.system_speeds(params, unit_kernel, unit_kernel)
    # b - 1 = 1, so predator and prey problems coincide
    assert sp.s_star == pytest.approx(0.582, abs=5e-4)
    assert sp.s_lower_star == pytest.approx(sp.s_star, rel=1e-10)
    assert sp.s_underline == pytest.approx(sp.s_star, rel=1e-10)


@pytest.mark.parametrize("b", [0.9, 1.0])
def test_system_speeds_keep_the_prey_and_give_nan_without_a_predator_speed(unit_kernel, b):
    # (H1) fails for b <= 1: the predator has no speed, the prey keeps its own
    params = fl.Params(d1=1.0, d2=1.0, r1=0.5, r2=1.0, a=0.5, b=b, s=0.0)
    sp = fl.system_speeds(params, unit_kernel, unit_kernel)
    prey = fl.min_speed(fl.SpeedProblem(d=1.0, r=0.5, k=1.0, kernel=unit_kernel))
    assert (sp.s_star, sp.rate1) == (prey.speed, prey.rate)
    assert all(math.isnan(x) for x in (sp.s_lower_star, sp.rate2, sp.s_underline))


def test_system_speeds_predator_slows_to_zero(unit_kernel):
    params = fl.Params(d1=1.0, d2=1.0, r1=1.0, r2=1.0, a=0.5, b=1.0 + 1e-9, s=0.0)
    sp = fl.system_speeds(params, unit_kernel, unit_kernel)
    assert sp.s_lower_star < 1e-4
    assert sp.s_underline <= sp.s_star


def test_benchmark_speeds(bench_speeds):
    assert bench_speeds.s_star == pytest.approx(0.3901927818, abs=1e-6)
    assert bench_speeds.s_lower_star == pytest.approx(0.2368281359, abs=1e-6)
    assert bench_speeds.s_underline == bench_speeds.s_lower_star


def _tangency(lam, kernel=fl.raised_cosine(1.0)):
    """min_speed's tangency function for d = 1, r*k = 0.5."""
    return fl.exp_integral(kernel, lam, weight=lambda y: lam * y - 1.0) + 1.0 - 0.5


_ROOT_FUNCTIONS = {
    "cubic": lambda x: x ** 3 - 2.0 * x - 5.0,
    "exp": lambda x: math.exp(x) - 3.0,
    "cos": lambda x: math.cos(x) - x,
    "flat_fifth_power": lambda x: (x - 1.1) ** 5,
    "steep_tanh": lambda x: math.tanh(20.0 * (x - 0.77)),
    "sign_step": lambda x: math.copysign(1.0, x - 0.123),
    # extrapolation denominators underflow to 0: C takes an infinite step, a bisection
    "tiny_scale": lambda x: 1e-200 * (x - 0.4),
    "huge_scale": lambda x: 1e200 * (x - 0.4),
    "nan_past_one": lambda x: x - 0.5 if x < 1.0 else math.nan,
    "tangency": _tangency,
}
_BRACKETS = [(0.0, 3.0), (-1.0, 2.0), (2.5, -0.5), (0.1, 5.0), (0.4, 1.0)]
_TOLERANCES = [
    (1e-14, 8.9e-16, 100),   # min_speed
    (1e-13, 8.9e-16, 200),   # match_decay_rate
    (2e-12, 8.881784197001252e-16, 100),   # scipy's defaults
    (1e-3, 1e-6, 100),
    (5e-324, 8.9e-16, 500),
    (1e-14, 8.9e-16, 3),     # too few steps for most brackets
]


def _outcome(solve, f, xa, xb, xtol, rtol, maxiter):
    try:
        return solve(f, xa, xb, xtol=xtol, rtol=rtol, maxiter=maxiter)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


@pytest.mark.parametrize("name", sorted(_ROOT_FUNCTIONS))
def test_brentq_matches_scipy_bit_for_bit(name):
    f = _ROOT_FUNCTIONS[name]
    for xa, xb in _BRACKETS:
        for xtol, rtol, maxiter in _TOLERANCES:
            want = _outcome(optimize.brentq, f, xa, xb, xtol, rtol, maxiter)
            got = _outcome(brentq, f, xa, xb, xtol, rtol, maxiter)
            # repr tells every float apart, -0.0 from 0.0 too
            assert repr(got) == repr(want), (xa, xb, xtol, rtol, maxiter)


def test_brentq_grid_reaches_every_outcome():
    seen = {type(_outcome(brentq, f, xa, xb, *tol)) for f in _ROOT_FUNCTIONS.values()
            for xa, xb in _BRACKETS for tol in _TOLERANCES}
    assert seen == {float, type}
    outcomes = {_outcome(brentq, f, 0.0, 3.0, *tol) for f in _ROOT_FUNCTIONS.values()
                for tol in _TOLERANCES}
    assert {ValueError, RuntimeError} <= outcomes


def test_brentq_root_at_an_endpoint_returns_it():
    for xa, xb, root in ((1.0, 3.0, 1.0), (-2.0, 1.0, 1.0)):
        got = brentq(lambda x: x - 1.0, xa, xb, xtol=1e-14, rtol=8.9e-16)
        assert got == root == optimize.brentq(lambda x: x - 1.0, xa, xb)


def test_brentq_same_sign_bracket_raises():
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 2.0, xtol=1e-14, rtol=8.9e-16)


def test_brentq_exhausted_maxiter_raises():
    with pytest.raises(RuntimeError, match="3 steps"):
        brentq(lambda x: math.cos(x) - x, 0.0, 3.0, xtol=1e-14, rtol=8.9e-16, maxiter=3)
