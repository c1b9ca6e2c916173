"""Moving-window sub-solution construction and verification.

The object under test is a windowed wave

    w(x, t) = amplitude * exp(gamma*t) * exp(-decay*(x - c*t))
              * cos(pi*(x - c*t) / (2*window))

supported on a window of half-width ``window`` around ``x = c*t``, with
``gamma = r1 * a * predator_level``.  Pushed through the linear operator

    L[W] = d1*(J1 * W) + linear_rate*W - dW/dt

and the damped reaction operator

    Q[W] = d1*(J1 * W) - d1*W + r1*W*(1 - W - a*predator_level) - dW/dt,

the wave is a strict sub-solution (Q[w] > L[w] > 0) whenever two scalar
conditions on the decay rate hold: the frame speed must stay below the
amplitude speed bound (cosine component) and must exactly match the tilt
speed (sine component).  Both conditions and the pointwise positivity of
L[w] and Q[w] are verified numerically here; the time derivative of the
wave is taken from its closed form, so no time-discretization noise
enters the strict positivity check.

:class:`SubsolutionReport` holds the four measured quantities only;
:meth:`SubsolutionReport.rows` applies the one pass rule per clause
(``amplitude_margin > 0``, ``tilt_residual <= TILT_TOL``, ``min_linear >
0``, ``min_reaction > 0``), and ``ok``, ``failures`` and ``worst_margin``
follow from those rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Params
from .errors import NoRootError, NumericFailureError
from .kernels import MAX_PASSES, Kernel, exp_integral, quad, weight_table

# The steepest tilt the decay-rate solve evaluates (see the kernels module).
_DECAY_CEILING_OVER_R = 128.0
# Largest |tilt speed - frame speed| a decay rate may leave (see match_decay_rate).
TILT_TOL = 1e-8


def max_linear_rate(params: Params, predator_level: float, prey_level: float) -> float:
    """Largest admissible linear growth offset for the damped reaction.

    Below this rate the damped reaction dominates the linear operator on
    densities up to ``prey_level``.
    """
    return (params.r1 - params.r1 * prey_level
            - params.r1 * params.a * predator_level - params.d1)


@dataclass(frozen=True)
class SubsolutionParams:
    """Everything needed to build and check one windowed wave."""

    window: float          # half-width of the moving support
    decay: float           # exponential decay rate across the window
    amplitude: float       # wave amplitude at the window center, t = 0
    predator_level: float  # assumed predator smallness
    prey_level: float      # density range on which the damping argument runs
    linear_rate: float     # growth offset of the linear comparison operator
    frame_speed: float     # speed of the moving window

    def growth_rate(self, params: Params) -> float:
        """Slow exponential growth rate of the wave amplitude in time."""
        return params.r1 * params.a * self.predator_level


def validate_params(p: SubsolutionParams, params: Params, kernel: Kernel) -> None:
    """Raise if the construction preconditions fail."""
    if p.predator_level <= 0.0 or p.prey_level <= 0.0:
        raise ValueError("predator_level and prey_level must be positive")
    if p.amplitude <= 0.0:
        raise ValueError("amplitude must be positive")
    if p.decay <= 0.0:
        raise ValueError("decay rate must be positive")
    if p.frame_speed <= 0.0:
        raise ValueError("frame speed must be positive")
    slack = params.r1 * (1.0 - p.prey_level - 2.0 * params.a * p.predator_level)
    if not slack > 0.0:
        raise ValueError(
            "predator_level/prey_level too large: r1*(1 - prey_level - 2*a*predator_level) "
            f"= {slack:g} must be positive")
    m_cap = max_linear_rate(params, p.predator_level, p.prey_level)
    if not p.linear_rate < m_cap:
        raise ValueError(
            f"linear_rate {p.linear_rate:g} must lie strictly below {m_cap:g}")
    if not p.window > kernel.support_radius / 2.0:
        raise ValueError(
            f"window {p.window:g} must exceed half the kernel support "
            f"({kernel.support_radius / 2.0:g}) so dispersal cannot jump across it")


def amplitude_speed_bound(decay: float, linear_rate: float, gamma: float,
                          params: Params, kernel: Kernel, window: float) -> float:
    """Largest frame speed the cosine (amplitude) balance tolerates:
    ``(linear_rate - gamma + d1 * integral of J(y) exp(decay*y)
    cos(pi*y/(2*window))) / decay``."""
    if not decay > 0.0:
        raise ValueError("decay rate must be positive")
    table = weight_table(kernel, lambda y: [np.cos(0.5 * np.pi * y / window)])
    return (linear_rate - gamma + params.d1 * exp_integral(kernel, decay, table)[0]) / decay


def match_decay_rate(frame_speed: float, window: float, params: Params,
                     kernel: Kernel) -> float:
    """Solve ``tilt speed == frame_speed`` for the decay rate.

    The tilt speed is the frame speed at which the sine component of the
    windowed balance vanishes.  With ``q = pi/(2*window)`` it is
    ``(2*window*d1/pi) * integral of J(y) exp(decay*y) sin(q*y)``, that is
    ``(2*window*d1/pi)`` times ``sum over k of decay**(2k+1)/(2k+1)! *
    a_k``, ``a_k = integral of J(y) y**(2k+1) sin(q*y) > 0`` (``sin(q*y)``
    has the sign of ``y`` when the window exceeds half the support):
    increasing and convex, and by Jensen at least ``(2*window*d1/pi) * a_0
    * sinh(decay*tau)/tau``, ``tau**2 = a_1/a_0``.  Newton's method starts
    where that bound meets the frame speed, right of the root, and stops as
    :func:`speeds.min_speed` does, at ``1e-13 + 8.9e-16*decay``.  Raises
    :class:`NoRootError` when the speed is unreachable below the rate
    ceiling (a larger window reaches any speed at a smaller rate).
    """
    if not (math.isfinite(frame_speed) and frame_speed >= 0.0):
        raise ValueError(f"frame_speed must be finite and nonnegative, got {frame_speed!r}")
    if not (math.isfinite(window) and window > 0.5 * kernel.support_radius):
        raise ValueError(f"window must be finite and exceed half the kernel support "
                         f"({0.5 * kernel.support_radius:g}), got {window!r}")
    if frame_speed == 0.0:
        return 0.0
    ceiling = _DECAY_CEILING_OVER_R / kernel.support_radius
    q, scale = 0.5 * np.pi / window, 2.0 * window * params.d1 / np.pi

    def sine_weights(y):
        sine = np.sin(q * y)
        return sine, y * sine, y ** 3 * sine

    table = weight_table(kernel, sine_weights)
    a0, a1 = exp_integral(kernel, 0.0, table[1:])
    tau = math.sqrt(a1 / a0)
    beta = min(math.asinh(frame_speed * tau / (scale * a0)) / tau, ceiling)
    for _ in range(MAX_PASSES):
        tilt, slope = (scale * v for v in exp_integral(kernel, beta, table[:2]))
        resid = tilt - frame_speed
        if beta == ceiling and resid < 0.0:
            raise NoRootError(
                f"tilt speed cannot reach {frame_speed:g} below the rate ceiling "
                f"{ceiling:g}; retry with a larger window than {window:g}")
        step = resid / slope
        if not step > 1e-13 + 8.9e-16 * beta:
            break
        beta -= step
    else:
        raise NumericFailureError(f"decay-rate solve did not converge in {MAX_PASSES} passes")
    if abs(resid) > TILT_TOL:
        raise NumericFailureError(
            f"decay-rate solve left a residual {abs(resid):.3e} above {TILT_TOL:g}")
    return beta


@dataclass(frozen=True)
class SubsolutionReport:
    """The four quantities the numerical sub-solution verification measures."""

    amplitude_margin: float      # amplitude speed bound minus frame speed
    tilt_residual: float         # |tilt speed - frame speed|
    min_linear: float            # pointwise minimum of L[wave]
    min_reaction: float          # pointwise minimum of Q[wave]

    def rows(self) -> list[tuple[str, float, bool]]:
        """(clause, value, ok) rows in a fixed order for reporting."""
        return [
            ("amplitude_margin", self.amplitude_margin, bool(self.amplitude_margin > 0.0)),
            ("tilt_residual", self.tilt_residual, bool(self.tilt_residual <= TILT_TOL)),
            ("min_linear", self.min_linear, bool(self.min_linear > 0.0)),
            ("min_reaction", self.min_reaction, bool(self.min_reaction > 0.0)),
        ]

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(clause for clause, _, ok in self.rows() if not ok)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def worst_margin(self) -> float:
        return min(self.amplitude_margin, TILT_TOL - self.tilt_residual,
                   self.min_linear, self.min_reaction)


def _window_convolution(kernel: Kernel, p: SubsolutionParams, z: np.ndarray):
    """(J * wave)(z) / (amplitude * exp(gamma*t)) for window coordinates z,
    and ``integral of J(s) exp(k*s)`` over the whole support.

    On the window the wave profile is ``Re exp(-k*y)`` with
    ``k = decay + i*pi/(2*window)``, so the convolution is
    ``Re[exp(-k*z) * integral of J(s) exp(k*s)]`` over ``|z - s| < window``:
    one kernel integral whose limits vary with z, and one more row on the
    whole support: the cosine and sine integrals of the speed conditions.
    """
    k = complex(p.decay, 0.5 * math.pi / p.window)
    tilted = quad(kernel, lambda s: np.exp(k * s), lo=np.concatenate([z - p.window, [-np.inf]]),
                  hi=np.concatenate([z + p.window, [np.inf]]))
    return (np.exp(-k * z) * tilted[:-1]).real, tilted[-1]


def verify_subsolution(p: SubsolutionParams, params: Params, kernel: Kernel,
                       n_space: int = 512, n_time: int = 64,
                       t_check: float = 10.0) -> SubsolutionReport:
    """Check the two scalar speed conditions and pointwise positivity.

    The amplitude margin and the tilt residual read the cosine and sine
    integrals of :func:`amplitude_speed_bound` and :func:`match_decay_rate`
    from the whole-support row of the window convolution's kernel integral.
    Positivity of L[wave] and Q[wave] is sampled on a window-frame grid
    shrunk by one sample spacing (the wave is merely continuous at the
    window edge) at the two times ``t = 0`` and ``t = t_check`` only.
    L[wave] is the growth factor ``G = amplitude*e^(gamma t)`` times a
    profile in z, and Q[wave] adds ``-r1*(G*g)**2``: both are concave in
    ``G``, so over [0, t_check] each minimum lies at an end, and the tests
    check that the two ends give the bits of a grid of ``n_time`` times.
    ``n_time`` is still validated (at least 2, so that a grid holds both
    ends) but changes no number.
    """
    if n_time < 2:
        raise ValueError(f"n_time must be at least 2 to hold both ends of [0, t_check], got {n_time}")
    validate_params(p, params, kernel)
    gamma = p.growth_rate(params)
    R, beta, c, m = p.window, p.decay, p.frame_speed, p.linear_rate
    dz = 2.0 * R / (n_space + 1)
    z = np.linspace(-R + dz, R - dz, n_space)
    envelope, angle = np.exp(-beta * z), 0.5 * np.pi * z / R
    cosine = np.cos(angle)
    g = envelope * cosine
    gp = envelope * (-beta * cosine - (0.5 * np.pi / R) * np.sin(angle))
    conv, tilted = _window_convolution(kernel, p, z)
    amplitude_margin = (m - gamma + params.d1 * tilted.real) / beta - c
    tilt_residual = abs((2.0 * R * params.d1 / np.pi) * tilted.imag - c)

    # The growth factor at t = 0 and t = t_check, as a column.
    growth = p.amplitude * np.exp(gamma * np.array([[0.0], [t_check]]))
    linear_part = params.d1 * conv + (m - gamma) * g + c * gp
    min_linear = (growth * linear_part.min()).min()
    # Q[wave] adds the damped reaction, quadratic in the wave value.
    reaction_lin = (params.d1 * conv - params.d1 * g
                    + params.r1 * (1.0 - params.a * p.predator_level) * g
                    - gamma * g + c * gp)
    min_reaction = (growth * reaction_lin - params.r1 * (growth * g) ** 2).min()
    return SubsolutionReport(amplitude_margin=float(amplitude_margin),
                             tilt_residual=float(tilt_residual),
                             min_linear=float(min_linear), min_reaction=float(min_reaction))


def wave_peak_factor(decay: float, window: float) -> float:
    """Peak of exp(-decay*z) * cos(pi*z/(2*window)) over the window.

    The wave is 1 at the window center but grows toward the upwind edge;
    amplitude choices must budget for this factor.
    """
    theta = -math.atan(2.0 * window * decay / math.pi)
    z_star = (2.0 * window / math.pi) * theta
    return math.exp(-decay * z_star) * math.cos(theta)


def construct_subsolution(params: Params, frame_speed: float, kernel: Kernel,
                          predator_level: float = 0.05, prey_level: float = 0.05,
                          rate_offset: float = 0.01, amplitude: float | None = None,
                          window: float | None = None,
                          t_check: float = 10.0) -> SubsolutionParams:
    """Build wave parameters for a frame speed: pick the window, solve the
    decay rate from the tilt condition, and set the linear rate just below
    its admissible maximum.

    When ``window`` is omitted it starts at ten kernel radii and doubles
    (at most six times) until the decay solve succeeds and the amplitude
    bound clears the frame speed.  When ``amplitude`` is omitted it is
    scaled so the wave stays at half the prey level over [0, t_check]
    (the upwind edge of the window carries the wave's maximum, and the
    damped-reaction argument needs the wave below the prey level).
    """
    m = max_linear_rate(params, predator_level, prey_level) - rate_offset
    gamma = params.r1 * params.a * predator_level

    def attempt(R: float) -> SubsolutionParams | None:
        try:
            beta = match_decay_rate(frame_speed, R, params, kernel)
        except NoRootError:
            return None
        if beta <= 0.0:
            return None
        bound = amplitude_speed_bound(beta, m, gamma, params, kernel, R)
        if not bound > frame_speed:
            return None
        if amplitude is None:
            eta = (0.5 * prey_level * math.exp(-gamma * t_check)
                   / wave_peak_factor(beta, R))
        else:
            eta = float(amplitude)
        return SubsolutionParams(window=R, decay=beta, amplitude=eta,
                                 predator_level=predator_level, prey_level=prey_level,
                                 linear_rate=m, frame_speed=frame_speed)

    if window is not None:
        p = attempt(float(window))
        if p is None:
            raise NoRootError(
                f"window {window:g} cannot carry a sub-solution at frame speed {frame_speed:g}")
        return p
    R = 10.0 * kernel.support_radius
    for _ in range(7):
        p = attempt(R)
        if p is not None:
            return p
        R *= 2.0
    raise NoRootError(
        f"no window up to {R:g} carries a sub-solution at frame speed {frame_speed:g}")
