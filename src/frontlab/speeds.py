"""Variational spreading speeds as the root of a tangency condition.

For a scalar invasion with dispersal kernel ``J``, diffusion ``d``,
growth rate ``r``, and carrying level ``k``, the linear spreading speed
is the infimum over decay rates ``lam > 0`` of

    (d * [M(lam) - 1] + r * k) / lam,

where ``M`` is the kernel's moment generating function.  Its derivative
vanishes where ``g(lam) = d * (lam*M'(lam) - M(lam) + 1) - r*k`` does.
``g(0) = -r*k`` and ``g'(lam) = d * lam * M''(lam) > 0``, so for ``k > 0``
the minimizer is the only root of an increasing function: a bracket
found by doubling and one bracketing root solve give it.

The system's speeds are the prey's, ``(d1, r1, k = 1, J1)``, and the
predator's over saturated prey, ``(d2, r2, k = b - 1, J2)``.  The predator
has none when ``b <= 1`` ((H1) fails): its speed, its rate and the
minimum ``s_underline`` are then NaN, and the prey's speed is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import Params
from .errors import BracketFailureError
from .kernels import Kernel, exp_integral

# Doubling past this ceiling signals a kernel/parameter pathology: the
# tilted mass grows like exp(lam * R), so real minimizers sit far below.
_LAMBDA_CEILING_OVER_R = 50.0


@dataclass(frozen=True)
class SpeedProblem:
    """Inputs of the scalar speed minimization."""

    d: float
    r: float
    k: float
    kernel: Kernel

    def __post_init__(self):
        if not self.d > 0.0:
            raise ValueError("diffusion coefficient d must be positive")
        if not self.r > 0.0:
            raise ValueError("growth rate r must be positive")
        if self.k < 0.0:
            raise ValueError("carrying level k must be nonnegative")


@dataclass(frozen=True)
class SpeedResult:
    """Minimized speed and its minimizing decay rate (None when unattained)."""

    speed: float
    rate: float | None


@dataclass(frozen=True)
class SystemSpeeds:
    """The two species speeds and their minimum, NaN with no predator speed."""

    s_star: float
    rate1: float
    s_lower_star: float
    rate2: float

    @property
    def s_underline(self) -> float:
        if math.isnan(self.s_lower_star):
            return math.nan
        return min(self.s_star, self.s_lower_star)


def brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int = 100, *,
           fb: float | None = None, full_output: bool = False):
    """Root of ``f`` in the bracket ``[xa, xb]`` by Brent's method.

    A step-for-step port of scipy's ``brentq.c`` (Brent 1973, *Algorithms
    for Minimization without Derivatives*, ch. 4), so it returns the same
    float: each step interpolates or extrapolates through the last points,
    bisects when that step is not short enough, and moves at least
    ``delta = (xtol + rtol*|x|)/2``; the solve stops once half the bracket
    is below ``delta``.  Raises ``ValueError`` for a bracket whose ends
    have the same sign or a NaN value of ``f``, and ``RuntimeError`` after
    ``maxiter`` steps.

    ``fb`` is ``f(xb)`` when the caller holds it already, so ``f`` is not
    called there again.  With ``full_output`` the result is the pair
    ``(root, f(root))``, the value the solve last held at the root.
    """
    def value(x: float, fx=None) -> float:
        fx = float(f(x) if fx is None else fx)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x!r} is NaN")
        return fx

    def result(x: float, fx: float):
        return (x, fx) if full_output else x

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = value(xpre), value(xcur, fb)
    if fpre == 0.0:
        return result(xpre, fpre)
    if fcur == 0.0:
        return result(xcur, fcur)
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(xa) and f(xb) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return result(xcur, fcur)
        stry = math.inf  # bisect unless a short enough step is found
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                # An underflowed denominator gives C an infinite step: a bisection.
                if denom != 0.0:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / denom
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Brent's method did not converge in {maxiter} steps; last x={xcur!r}")


def candidate_speed(problem: SpeedProblem, lam: float) -> float:
    """Speed of the exponential profile with decay rate ``lam``."""
    if not lam > 0.0:
        raise ValueError("decay rate lam must be positive")
    m = problem.kernel.mgf(lam)
    return (problem.d * (m - 1.0) + problem.r * problem.k) / lam


def min_speed(problem: SpeedProblem) -> SpeedResult:
    """Minimize the candidate speed over decay rates.

    For ``k == 0`` the infimum is 0, approached as ``lam -> 0``, and is
    unattained: ``rate`` is None.  Otherwise the minimizer is the root of
    the tangency function ``g`` (module docstring), bracketed by doubling
    from ``1/R`` and solved by Brent's method to a tolerance of 1e-14.
    """
    if problem.k == 0.0:
        return SpeedResult(speed=0.0, rate=None)
    d, growth = problem.d, problem.r * problem.k
    # lam*M'(lam) - M(lam) + 1 = integral of J(y) * (exp(lam*y)*(lam*y - 1) + 1).
    g = lambda lam: d * (exp_integral(problem.kernel, lam, weight=lambda y: lam * y - 1.0)
                         + 1.0) - growth
    radius = problem.kernel.support_radius
    ceiling = _LAMBDA_CEILING_OVER_R / radius
    hi = 1.0 / radius
    g_hi = g(hi)
    while not g_hi > 0.0:
        hi *= 2.0
        if hi > ceiling:
            raise BracketFailureError(
                f"candidate speed still decreasing at lam={0.5 * hi:g} "
                f"(ceiling {ceiling:g}); check kernel and parameters")
        g_hi = g(hi)
    rate = brentq(g, 0.0, hi, xtol=1e-14, rtol=8.9e-16, fb=g_hi)
    return SpeedResult(speed=candidate_speed(problem, rate), rate=rate)


def system_speeds(params: Params, kernel1: Kernel, kernel2: Kernel) -> SystemSpeeds:
    """Both species speeds, for every ``b`` (module docstring)."""
    sp = min_speed(SpeedProblem(d=params.d1, r=params.r1, k=1.0, kernel=kernel1))
    sq = (min_speed(SpeedProblem(d=params.d2, r=params.r2, k=params.b - 1.0, kernel=kernel2))
          if params.b > 1.0 else SpeedResult(speed=math.nan, rate=math.nan))
    return SystemSpeeds(s_star=sp.speed, rate1=sp.rate,
                        s_lower_star=sq.speed, rate2=sq.rate)
