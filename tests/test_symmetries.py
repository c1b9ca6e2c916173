"""The model's exact scalings, checked bit for bit on the theory layer.

Doubling every length (the kernel radius, a table's knots, the shift and
frame speeds) maps the model to itself, and so does doubling every rate
(``d1, d2, r1, r2`` and ``s``) with time halved.  A power of two scales
every floating-point operation exactly, so the speeds, the decay rates and
the sub-solution's margins must scale bit for bit, and every dimensionless
quantity must keep its bits.
"""

import numpy as np
import pytest

import frontlab as fl

_KNOTS = np.linspace(-1.0, 1.0, 201)
_DENSITY = (1.0 + np.cos(np.pi * _KNOTS)) / 2.0

# each family at radius 1, and its twin at radius 2
_TWINS = {
    "raised_cosine": (lambda: fl.raised_cosine(1.0), lambda: fl.raised_cosine(2.0)),
    "smooth_bump": (lambda: fl.smooth_bump(1.0), lambda: fl.smooth_bump(2.0)),
    "tabulated": (lambda: fl.tabulated(_KNOTS, _DENSITY),
                  lambda: fl.tabulated(2.0 * _KNOTS, _DENSITY / 2.0)),
}
_RATES = dict(d1=1.0, d2=1.0, r1=0.5, r2=0.4, s=0.1)


def _params(b, scale=1.0, **changes):
    rates = {key: scale * value for key, value in _RATES.items()}
    return fl.Params(a=0.5, b=b, **{**rates, **changes})


def _fields(sp):
    return sp.s_star, sp.rate1, sp.s_lower_star, sp.rate2


@pytest.mark.parametrize("family", sorted(_TWINS))
@pytest.mark.parametrize("b", [1.01, 1.5, 3.0])
def test_doubling_the_radius_doubles_the_speeds_and_halves_the_rates(family, b):
    kernel, wide = (make() for make in _TWINS[family])
    s_star, rate1, s_lower_star, rate2 = _fields(fl.system_speeds(_params(b), kernel, kernel))
    got = _fields(fl.system_speeds(_params(b, s=0.2), wide, wide))
    assert got == (2.0 * s_star, rate1 / 2.0, 2.0 * s_lower_star, rate2 / 2.0)


@pytest.mark.parametrize("family", sorted(_TWINS))
@pytest.mark.parametrize("b", [1.01, 1.5, 3.0])
def test_doubling_the_rates_doubles_the_speeds_and_keeps_the_decay_rates(family, b):
    kernel = _TWINS[family][0]()
    s_star, rate1, s_lower_star, rate2 = _fields(fl.system_speeds(_params(b), kernel, kernel))
    got = _fields(fl.system_speeds(_params(b, scale=2.0), kernel, kernel))
    assert got == (2.0 * s_star, rate1, 2.0 * s_lower_star, rate2)


@pytest.mark.parametrize("family", sorted(_TWINS))
def test_doubling_the_radius_and_frame_speed_scales_the_subsolution(family):
    kernel, wide = (make() for make in _TWINS[family])
    params, twin = _params(1.5), _params(1.5, s=0.2)
    c = 0.5 * (params.s + fl.system_speeds(params, kernel, kernel).s_underline)
    p = fl.construct_subsolution(params, c, kernel)
    q = fl.construct_subsolution(twin, 2.0 * c, wide)
    rep = fl.verify_subsolution(p, params, kernel)
    rep2 = fl.verify_subsolution(q, twin, wide)
    assert rep.ok and rep2.ok
    assert (q.window, q.decay, q.amplitude) == (2.0 * p.window, p.decay / 2.0, p.amplitude)
    assert (rep2.amplitude_margin, rep2.tilt_residual) == (2.0 * rep.amplitude_margin,
                                                          2.0 * rep.tilt_residual)
    assert (rep2.min_linear, rep2.min_reaction) == (rep.min_linear, rep.min_reaction)
