import math

import pytest

import frontlab as fl


def raised_cosine_mgf_closed(lam: float, radius: float = 1.0) -> float:
    """Closed-form moment generating function of the raised-cosine kernel."""
    if lam == 0.0:
        return 1.0
    r = radius
    return math.pi ** 2 * math.sinh(lam * r) / (r * lam * (r * r * lam * lam + math.pi ** 2))


def mgf(kernel, lam: float) -> float:
    """The kernel's moment generating function ``integral of J(y) exp(lam*y)``."""
    return fl.exp_integral(kernel, lam)[0]


def infinite_window_bound(decay, linear_rate, gamma, params, kernel):
    """The amplitude speed bound as the window grows: the cosine weight tends to 1."""
    return (linear_rate - gamma + params.d1 * mgf(kernel, decay)) / decay


def infinite_window_tilt(decay, params, kernel):
    """The tilt speed as the window grows: the sine weight tends to ``y*pi/(2*window)``,
    leaving ``d1 * integral of y J(y) exp(decay*y)``."""
    return params.d1 * fl.exp_integral(kernel, decay)[1]


@pytest.fixture(scope="session")
def unit_kernel():
    return fl.raised_cosine(1.0)


@pytest.fixture(scope="session")
def bench_params():
    """Parameter set used throughout: both diffusion inequalities hold."""
    return fl.Params(d1=1.0, d2=1.0, r1=0.5, r2=0.4, a=0.5, b=1.5, s=0.0)


@pytest.fixture(scope="session")
def bench_speeds(bench_params, unit_kernel):
    return fl.system_speeds(bench_params, unit_kernel, unit_kernel)
