"""Variational spreading speeds as the root of a tangency condition.

For a scalar invasion with dispersal kernel ``J``, diffusion ``d``,
growth rate ``r``, and carrying level ``k``, the linear spreading speed
is the infimum over decay rates ``lam > 0`` of

    (d * [M(lam) - 1] + r * k) / lam,

where ``M`` is the kernel's moment generating function.  Its derivative
vanishes where ``g(lam) = d * (lam*M'(lam) - M(lam) + 1) - r*k`` does.
``g(0) = -r*k``, ``g' = d * lam * M'' > 0`` and ``g'' = d * (M'' + lam*M''')
> 0`` (``M''' >= 0`` for ``lam >= 0``, ``J`` being symmetric), so for ``k >
0``, which :class:`SpeedProblem` requires, the minimizer is the only root
of an increasing convex function, and Newton's method descends to it
monotonically from any point on its right.  By Jensen's inequality on
``y**2``, ``lam*M' - M + 1 = sum over k >= 1 of (2k-1)/(2k)! * lam**(2k) *
integral of J(y) y**(2k) >= cosh(lam*sigma) - 1`` with ``sigma**2 =
M''(0)``, so ``lam0 = acosh(1 + r*k/d) / sigma`` is such a point.  Each
step reads ``M``, ``M'`` and ``M''`` from one tilt pass
(:func:`kernels.exp_integral`).

The system's speeds are the prey's, ``(d1, r1, k = 1, J1)``, and the
predator's over saturated prey, ``(d2, r2, k = b - 1, J2)``.  The predator
has none when ``b <= 1`` ((H1) fails): its speed, its rate and the
minimum ``s_underline`` are then NaN, and the prey's speed is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import Params
from .errors import BracketFailureError, NumericFailureError
from .kernels import MAX_PASSES, Kernel, exp_integral

# A candidate speed still decreasing at this rate signals a kernel/parameter
# pathology: the tilted mass grows like exp(lam * R), so real minimizers sit
# far below.
_LAMBDA_CEILING_OVER_R = 50.0


@dataclass(frozen=True)
class SpeedProblem:
    """Inputs of the scalar speed minimization."""

    d: float
    r: float
    k: float
    kernel: Kernel

    def __post_init__(self):
        if not (math.isfinite(self.d) and self.d > 0.0):
            raise ValueError(f"diffusion coefficient d must be finite and positive, got {self.d!r}")
        if not (math.isfinite(self.r) and self.r > 0.0):
            raise ValueError(f"growth rate r must be finite and positive, got {self.r!r}")
        if not (math.isfinite(self.k) and self.k > 0.0):
            raise ValueError(f"carrying level k must be finite and positive, got {self.k!r}")


@dataclass(frozen=True)
class SpeedResult:
    """Minimized speed and its minimizing decay rate."""

    speed: float
    rate: float


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


def min_speed(problem: SpeedProblem) -> SpeedResult:
    """Minimize the candidate speed over decay rates.

    The minimizer is the root of the tangency function ``g``, found by
    Newton's method from the right (module docstring).  It stops when the
    next step is below ``1e-14 + 8.9e-16*lam`` or rounding leaves ``g <=
    0``; the rate is the last one evaluated and the speed comes from the
    same pass.  A start at the ceiling ``50/R`` where ``g <= 0`` raises
    :class:`BracketFailureError`.
    """
    d, growth, kernel = problem.d, problem.r * problem.k, problem.kernel
    ceiling = _LAMBDA_CEILING_OVER_R / kernel.support_radius
    x = growth / d
    sigma = math.sqrt(exp_integral(kernel, 0.0)[2])
    # acosh(1 + x), without rounding 1 + x
    lam = min(math.log1p(x + math.sqrt(x * (x + 2.0))) / sigma, ceiling)
    for _ in range(MAX_PASSES):
        m, m1, m2 = exp_integral(kernel, lam)
        g = d * (lam * m1 - m + 1.0) - growth
        if lam == ceiling and not g > 0.0:
            raise BracketFailureError(
                f"candidate speed still decreasing at the rate ceiling lam={ceiling:g}; "
                "check kernel and parameters")
        step = g / (d * lam * m2)
        if not step > 1e-14 + 8.9e-16 * lam:
            return SpeedResult(speed=(d * (m - 1.0) + growth) / lam, rate=lam)
        lam -= step
    raise NumericFailureError(f"speed minimization did not converge in {MAX_PASSES} passes")


def system_speeds(params: Params, kernel1: Kernel, kernel2: Kernel) -> SystemSpeeds:
    """Both species speeds, for every ``b`` (module docstring)."""
    sp = min_speed(SpeedProblem(d=params.d1, r=params.r1, k=1.0, kernel=kernel1))
    sq = (min_speed(SpeedProblem(d=params.d2, r=params.r2, k=params.b - 1.0, kernel=kernel2))
          if params.b > 1.0 else SpeedResult(speed=math.nan, rate=math.nan))
    return SystemSpeeds(s_star=sp.speed, rate1=sp.rate,
                        s_lower_star=sq.speed, rate2=sq.rate)
