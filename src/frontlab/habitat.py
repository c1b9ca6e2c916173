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
    :func:`validate` flags its left limit.
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
    """The habitat assumptions of a profile, read off its family's closed form.

    ``margin`` is the margin of ``alpha2_left_negative``, ``A = -alpha(-inf)``;
    ``failures`` names the clauses that fail.
    """

    margin: float
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def validate(profile: HabitatProfile) -> HabitatValidation:
    """The habitat assumptions of ``profile``, from its family's closed form.

    Every family is nondecreasing, tends to 1 at ``+inf`` and to ``-A`` at
    ``-inf``, and has slope at most :meth:`HabitatProfile.slope_bound`, by its
    closed form (the tests sample these facts).  The one clause that can
    fail is ``alpha2_left_negative``, ``-A < 0``, whose margin is ``A``:
    ``constant_one`` fails it.  A failed clause is reported, not raised.
    """
    return HabitatValidation(profile.A, () if profile.A > 0.0 else ("alpha2_left_negative",))
