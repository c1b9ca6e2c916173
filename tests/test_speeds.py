import math

import numpy as np
import pytest
from scipy import integrate, optimize

import frontlab as fl
from frontlab import speeds, subsolution
from frontlab.errors import BracketFailureError, NumericFailureError

from conftest import mgf, raised_cosine_mgf_closed


def dense_scan_speed(d, r, k, lam_max=10.0, step=1e-3, radius=1.0):
    """Independent oracle: brute-force scan of the candidate speed."""
    lams = np.arange(step, lam_max + step / 2, step)
    m = np.array([raised_cosine_mgf_closed(l, radius) for l in lams])
    return float(((d * (m - 1.0) + r * k) / lams).min())


def candidate_speed(problem, lam):
    """The speed of the exponential profile with decay rate ``lam``."""
    return (problem.d * (mgf(problem.kernel, lam) - 1.0) + problem.r * problem.k) / lam


def test_candidate_speed_example(unit_kernel):
    pr = fl.SpeedProblem(d=1.0, r=1.0, k=1.0, kernel=unit_kernel)
    got = candidate_speed(pr, 1.0)
    expected = (raised_cosine_mgf_closed(1.0) - 1.0 + 1.0) / 1.0
    assert got == pytest.approx(expected, rel=1e-10)
    assert got == pytest.approx(1.0671, abs=1e-4)


def test_candidate_speed_vanishes_without_growth(unit_kernel):
    # k = 0: the symmetric tilted mass is 1 + O(lam^2), so the speed ~ lam.
    assert (mgf(unit_kernel, 1e-4) - 1.0) / 1e-4 <= 1e-3


def test_candidate_speed_increasing_in_k(unit_kernel):
    lo = fl.SpeedProblem(d=1.0, r=1.0, k=0.5, kernel=unit_kernel)
    hi = fl.SpeedProblem(d=1.0, r=1.0, k=1.5, kernel=unit_kernel)
    for lam in (0.5, 1.0, 3.0):
        assert candidate_speed(hi, lam) > candidate_speed(lo, lam)


def test_min_speed_benchmark_value(unit_kernel):
    res = fl.min_speed(fl.SpeedProblem(d=1.0, r=1.0, k=1.0, kernel=unit_kernel))
    assert res.rate > 0.0
    assert res.speed == pytest.approx(0.582, abs=5e-4)
    assert res.rate == pytest.approx(2.90, abs=0.02)
    assert res.speed == pytest.approx(dense_scan_speed(1.0, 1.0, 1.0), abs=1e-4)


def test_min_speed_local_minimality_postcondition(unit_kernel):
    pr = fl.SpeedProblem(d=1.0, r=1.0, k=1.0, kernel=unit_kernel)
    res = fl.min_speed(pr)
    delta = 1e-5 * res.rate
    assert candidate_speed(pr, res.rate + delta) >= res.speed - 1e-10
    assert candidate_speed(pr, res.rate - delta) >= res.speed - 1e-10
    assert res.speed == pytest.approx(candidate_speed(pr, res.rate), abs=0.0)


def test_min_speed_zero_carrying_level(unit_kernel):
    # no growth, no front: the infimum 0 is unattained, so the problem is refused
    with pytest.raises(ValueError, match="carrying level k must be finite and positive"):
        fl.SpeedProblem(d=1.0, r=1.0, k=0.0, kernel=unit_kernel)


def test_min_speed_monotone_in_k(unit_kernel):
    r1 = fl.min_speed(fl.SpeedProblem(d=1.0, r=1.0, k=1.0, kernel=unit_kernel))
    r2 = fl.min_speed(fl.SpeedProblem(d=1.0, r=1.0, k=2.0, kernel=unit_kernel))
    assert r2.speed >= r1.speed


def test_min_speed_candidate_grows_past_minimizer(unit_kernel):
    res = fl.min_speed(fl.SpeedProblem(d=1.0, r=1.0, k=1.0, kernel=unit_kernel))
    pr = fl.SpeedProblem(d=1.0, r=1.0, k=1.0, kernel=unit_kernel)
    assert candidate_speed(pr, 4.0 * res.rate) > res.speed


def test_min_speed_tiny_k_goes_to_zero(unit_kernel):
    # the minimizer falls far below the first bracket end 1/R
    res = fl.min_speed(fl.SpeedProblem(d=1.0, r=1.0, k=1e-9, kernel=unit_kernel))
    assert res.rate > 0.0
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
    assert abs(d * fl.exp_integral(kernel, res.rate)[1] - res.speed) <= 1e-12 * res.speed


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


# The acceptance parameters' speeds and rates, computed offline with mpmath at
# 40 digits: the closed-form raised-cosine MGF, and the smooth bump's by
# tanh-sinh quadrature, each minimized through the root of the tangency
# function.
_REFERENCES = {
    "raised_cosine": (0.3901927818055424224442, 2.284627535587791374228,
                      0.2368281359073670389904, 1.58961728753968327869),
    "smooth_bump": (0.4259084956006128271404, 2.112888491343852797463,
                    0.259496105778354136847, 1.459366168210998728105),
}


@pytest.mark.parametrize("family", sorted(_REFERENCES))
def test_speeds_and_rates_match_40_digit_references(family, bench_params):
    kernel = getattr(fl, family)(1.0)
    sp = fl.system_speeds(bench_params, kernel, kernel)
    got = (sp.s_star, sp.rate1, sp.s_lower_star, sp.rate2)
    for value, ref in zip(got, _REFERENCES[family]):
        assert abs(value - ref) <= 1e-15 * ref, (value, ref)


def _passes(monkeypatch, module):
    """The tilt rates of every ``exp_integral`` pass ``module`` makes."""
    rates = []
    original = module.exp_integral

    def recording(kernel, lam, table=None):
        rates.append(lam)
        return original(kernel, lam, table)

    monkeypatch.setattr(module, "exp_integral", recording)
    return rates


@pytest.mark.parametrize("family", sorted(_REFERENCES))
@pytest.mark.parametrize("r, k", [(0.5, 1.0), (0.4, 0.5)])
def test_min_speed_takes_few_passes_all_right_of_the_root(monkeypatch, family, r, k):
    # one pass for the variance at lam = 0, then Newton from the right
    rates = _passes(monkeypatch, speeds)
    res = fl.min_speed(fl.SpeedProblem(d=1.0, r=r, k=k, kernel=getattr(fl, family)(1.0)))
    assert len(rates) <= 8 and rates[0] == 0.0
    assert rates[-1] == res.rate
    assert all(lam >= res.rate for lam in rates[1:])


@pytest.mark.parametrize("k", [1.0, 1e-9])
def test_min_speed_converges_under_the_cap_far_from_the_start(monkeypatch, k):
    # r*k/d = 50 puts the root at lam*R ~ 7 and the start far to its right;
    # r*k/d = 5e-8 puts it in the rounding noise of M near lam = 0
    rates = _passes(monkeypatch, speeds)
    kernel = fl.raised_cosine(0.5)
    res = fl.min_speed(fl.SpeedProblem(d=0.1, r=5.0, k=k, kernel=kernel))
    assert len(rates) <= speeds.MAX_PASSES
    if k == 1.0:
        assert 6.5 < res.rate * 0.5 < 7.5
        assert abs(0.1 * fl.exp_integral(kernel, res.rate)[1] - res.speed) <= 1e-12 * res.speed
    else:
        # the small-rate limit: speed = sqrt(2*d*r*k*sigma^2), sigma^2 = R^2 (1/3 - 2/pi^2)
        sigma2 = 0.25 * (1.0 / 3.0 - 2.0 / math.pi ** 2)
        assert res.speed == pytest.approx(math.sqrt(2.0 * 0.1 * 5.0 * k * sigma2), rel=1e-3)


@pytest.mark.parametrize("field", ["d", "r", "k"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_speed_problem_rejects_non_finite_inputs(unit_kernel, field, value):
    args = dict(d=1.0, r=1.0, k=1.0, kernel=unit_kernel)
    args[field] = value
    with pytest.raises(ValueError, match=rf"\b{field} must be finite"):
        fl.SpeedProblem(**args)


def test_brentq_exhausted_maxiter_raises(monkeypatch, bench_params, unit_kernel):
    # a root solve that runs out of steps raises rather than return its last iterate;
    # r*k/d = 50 starts min_speed far right of its root, so 3 passes do not reach it
    monkeypatch.setattr(speeds, "MAX_PASSES", 3)
    monkeypatch.setattr(subsolution, "MAX_PASSES", 3)
    with pytest.raises(NumericFailureError, match="speed minimization did not converge in 3 passes"):
        fl.min_speed(fl.SpeedProblem(d=0.1, r=5.0, k=1.0, kernel=fl.raised_cosine(0.5)))
    with pytest.raises(NumericFailureError, match="decay-rate solve did not converge in 3 passes"):
        fl.match_decay_rate(1.0, 10.0, bench_params, unit_kernel)
