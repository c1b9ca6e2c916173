"""Standing-hypothesis checker for the persistence theorems.

Evaluates, with explicit margins:

- (H1):  b > 1;
- the prey diffusion inequality  d1 > r1*abar + r1*a/2 + r2*b*(b-1)/2;
- the predator diffusion inequality  d2 > r2*(b-1) + r2*b*(b-1)/2 + a*r1/2;
- the shift condition  s < min of the two species speeds, less the
  speeds' quadrature error (NaN, so failed, when b <= 1 leaves the
  predator no speed);
- the habitat assumptions, from the family's closed form
  (:func:`frontlab.habitat.validate`), with margin ``A = -alpha(-inf)``.

The margins of the two diffusion inequalities are exactly the decay
constants k1, k2 of the compactness estimate, and k = min(k1, k2), so
k > 0 iff both inequalities hold.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import Params
from .habitat import HabitatProfile, validate as validate_habitat
from .kernels import _SELF_CHECK_RTOL, Kernel
from .speeds import SystemSpeeds, system_speeds


@dataclass(frozen=True)
class HypothesisReport:
    """Each clause's margin; a clause holds when its margin is positive
    (a NaN ``s_margin``, with no predator speed when ``b <= 1``, fails)."""

    k1: float
    k2: float
    k: float
    h1_margin: float
    s_margin: float
    alpha_margin: float
    speeds: SystemSpeeds

    @property
    def all_ok(self) -> bool:
        return all(ok for _, _, ok in self.rows())

    def rows(self) -> list[tuple[str, float, bool]]:
        """(clause, margin, ok) rows in a fixed order for reporting."""
        return [(clause, margin, bool(margin > 0.0)) for clause, margin in (
            ("h1_b_gt_1", self.h1_margin),
            ("d1_inequality", self.k1),
            ("d2_inequality", self.k2),
            ("shift_below_speeds", self.s_margin),
            ("habitat_assumptions", self.alpha_margin),
            ("k_min_constant", self.k),
        )]


def _speed_error(p: Params, sp: SystemSpeeds) -> float:
    """Bound on the quadrature error of ``sp.s_underline``.

    A speed is ``c = (d*(M - 1) + r*k)/lam`` at its minimizing rate, and
    ``exp_integral`` certifies ``M`` to the relative error ``_SELF_CHECK_RTOL`` (the
    tilted density is positive), so ``|dc| <= _SELF_CHECK_RTOL * d*M/lam``
    with ``d*M = c*lam - r*k + d``.  An error in the rate moves ``c`` only to
    second order, since ``c`` is stationary there.
    """
    return _SELF_CHECK_RTOL * max((c * lam - r * k + d) / lam for d, r, k, c, lam in (
        (p.d1, p.r1, 1.0, sp.s_star, sp.rate1), (p.d2, p.r2, p.b - 1.0, sp.s_lower_star, sp.rate2)))


def check_hypotheses(params: Params, profile: HabitatProfile, kernel1: Kernel,
                     kernel2: Kernel) -> HypothesisReport:
    """Report-style check; never raises on a failed hypothesis."""
    hv = validate_habitat(profile)
    abar = profile.alpha_bar
    p = params
    k1 = p.d1 - p.r1 * abar - p.r1 * p.a / 2.0 - p.r2 * p.b * (p.b - 1.0) / 2.0
    k2 = (p.d2 + p.r2 - p.r2 * p.b - p.r2 * p.b * (p.b - 1.0) / 2.0
          - p.a * p.r1 / 2.0)
    k = min(k1, k2)
    sp = system_speeds(params, kernel1, kernel2)
    return HypothesisReport(
        k1=k1,
        k2=k2,
        k=k,
        h1_margin=p.b - 1.0,
        s_margin=sp.s_underline - p.s - _speed_error(params, sp),
        alpha_margin=hv.margin,
        speeds=sp,
    )
