"""Shifting-habitat quality profiles.

A profile ``alpha(xi)`` is a nondecreasing climate function normalized so
that ``alpha(+inf) = 1``; its left limit ``-A`` is the depth of the
unfavorable region.  In simulations the profile is read in the shifted
coordinate ``xi = x - s*t``.

Families:

``logistic``
    ``-A + (1+A) / (1 + exp(-xi/L))``; smooth with slope bound
    ``(1+A)/(4L)``.
``piecewise_linear``
    ramps from ``-A`` to ``1`` over ``[-L, L]``; slope bounded by
    ``(1+A)/(2L)`` but discontinuous (boundedness is all that is
    required).
``constant_one``
    ``alpha == 1`` everywhere.  This is the homogeneous reduction used by
    scalar spreading runs; it deliberately has no unfavorable region, so
    full validation flags its left limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOGISTIC = "logistic"
PIECEWISE_LINEAR = "piecewise_linear"
CONSTANT_ONE = "constant_one"


@dataclass(frozen=True)
class HabitatProfile:
    """A parametric habitat profile.

    ``A`` is ``-alpha(-inf)``, the depth of the unfavorable limit; for
    ``constant_one`` the left limit is 1, stored as ``A = -1``.
    """

    family: str
    A: float
    L: float

    @property
    def alpha_bar(self) -> float:
        """max(-alpha(-inf), 1): the amplitude bound used by the theory."""
        return max(self.A, 1.0)

    def alpha(self, xi):
        """Profile value at shifted coordinate ``xi`` (scalar or array)."""
        x = np.asarray(xi, dtype=float)
        if self.family == LOGISTIC:
            # exp overflows to inf far left of the ramp, where the profile is -A.
            with np.errstate(over="ignore"):
                vals = -self.A + (1.0 + self.A) * (1.0 / (1.0 + np.exp(-(x / self.L))))
        elif self.family == PIECEWISE_LINEAR:
            ramp = np.clip((x + self.L) / (2.0 * self.L), 0.0, 1.0)
            vals = -self.A + (1.0 + self.A) * ramp
        elif self.family == CONSTANT_ONE:
            vals = np.ones_like(x)
        else:
            raise ValueError(f"unknown habitat family {self.family!r}")
        if np.isscalar(xi) or np.ndim(xi) == 0:
            return float(vals)
        return vals

    def alpha_shifted(self, x, t: float, s: float):
        """Profile seen at position ``x`` and time ``t`` for shift speed ``s``."""
        return self.alpha(np.asarray(x, dtype=float) - s * t)

    def slope_bound(self) -> float:
        """Closed-form bound on |alpha'| for the analytic families."""
        if self.family == LOGISTIC:
            return (1.0 + self.A) / (4.0 * self.L)
        if self.family == PIECEWISE_LINEAR:
            return (1.0 + self.A) / (2.0 * self.L)
        if self.family == CONSTANT_ONE:
            return 0.0
        raise ValueError(f"unknown habitat family {self.family!r}")


def logistic(A: float = 0.5, L: float = 1.0) -> HabitatProfile:
    if A <= 0.0:
        raise ValueError("unfavorable depth A must be positive")
    if L <= 0.0:
        raise ValueError("transition length L must be positive")
    return HabitatProfile(family=LOGISTIC, A=float(A), L=float(L))


def piecewise_linear(A: float = 0.5, L: float = 1.0) -> HabitatProfile:
    if A <= 0.0:
        raise ValueError("unfavorable depth A must be positive")
    if L <= 0.0:
        raise ValueError("transition length L must be positive")
    return HabitatProfile(family=PIECEWISE_LINEAR, A=float(A), L=float(L))


def constant_one() -> HabitatProfile:
    # A = -alpha(-inf) = -1 for the constant profile.
    return HabitatProfile(family=CONSTANT_ONE, A=-1.0, L=1.0)


@dataclass(frozen=True)
class HabitatValidation:
    """Numerical check of the habitat assumptions on a sample grid.

    ``slacks`` maps clause name to its margin; a clause passes iff its
    slack is positive.  ``failures`` lists the clauses that failed.
    """

    ok: bool
    failures: tuple[str, ...]
    slacks: dict
    alpha_bar: float
    derivative_bound: float
    measured_slope: float
    xi_lo: float
    xi_hi: float


def validate(profile) -> HabitatValidation:
    """Validate monotonicity, both limits, and the derivative bound.

    Works on any object exposing ``alpha(xi)`` plus ``A``/``L``
    attributes, on 4096 points of [-20L, 20L].  A failed clause is
    reported, not raised: callers decide whether theorem checks may proceed.
    """
    L = float(getattr(profile, "L", 1.0))
    xi = np.linspace(-20.0 * L, 20.0 * L, 4096)
    vals = np.asarray(profile.alpha(xi), dtype=float)

    # (monotone) alpha(xi2) >= alpha(xi1) - 1e-12 for xi2 > xi1.
    drops = vals[:-1] - vals[1:]
    mono_slack = 1e-12 - float(drops.max())

    # (limits) flat tails at the grid ends; the left limit must be negative.
    A = float(getattr(profile, "A", -vals[0]))
    hi_err = np.abs(vals - 1.0)
    lo_err = np.abs(vals + A)
    limit_hi_slack = 1e-6 - float(hi_err[-1])
    limit_lo_slack = 1e-6 - float(lo_err[0])
    hi_ok = hi_err <= 1e-6
    lo_ok = lo_err <= 1e-6
    if hi_ok[-1]:
        bad = np.nonzero(~hi_ok)[0]
        xi_hi = float(xi[bad[-1] + 1]) if bad.size else float(xi[0])
    else:
        xi_hi = float("nan")
    if lo_ok[0]:
        bad = np.nonzero(~lo_ok)[0]
        xi_lo = float(xi[bad[0] - 1]) if bad.size else float(xi[-1])
    else:
        xi_lo = float("nan")

    # (slope) finite differences against the declared bound.
    slopes = np.abs(np.diff(vals) / np.diff(xi))
    measured = float(slopes.max())
    if hasattr(profile, "slope_bound"):
        bound = float(profile.slope_bound())
    else:
        bound = measured
    slope_slack = bound + 1e-9 - measured

    slacks = {
        "alpha1_monotone": mono_slack,
        "alpha2_limit_high": limit_hi_slack,
        "alpha2_limit_low": limit_lo_slack,
        "alpha2_left_negative": A,
        "alpha3_slope_bounded": slope_slack,
    }
    failures = tuple(name for name, slack in slacks.items() if not slack > 0.0)
    return HabitatValidation(
        ok=not failures,
        failures=failures,
        slacks=slacks,
        alpha_bar=max(A, 1.0),
        derivative_bound=bound,
        measured_slope=measured,
        xi_lo=xi_lo,
        xi_hi=xi_hi,
    )
