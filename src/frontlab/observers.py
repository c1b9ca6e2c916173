"""Empirical front observers: level sets, speeds, moving-frame band minima.

These measurements operationalize asymptotic statements at desk scale:
"liminf as t -> infinity" becomes a minimum over the trailing part of the
run, reported as an estimate, never as a proof.  A species with no band
is tested for extinction by its maximum over the same part of the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory
from .errors import ConfigError, InsufficientDataError, NoFrontError

# Band minima at or below this floor are reported as extinct.
EXTINCTION_FLOOR = 1e-6


@dataclass(frozen=True)
class LevelSetSeries:
    """Rightmost (or leftmost) threshold crossings over time.

    Positions are NaN at instants where the field has no crossing.
    """

    theta: float
    side: str
    times: np.ndarray
    positions: np.ndarray


@dataclass(frozen=True)
class SpeedEstimate:
    speed: float
    stderr: float


@dataclass(frozen=True)
class FrameBandSpec:
    """A moving band of frame speeds [c_lo * t, c_hi * t] to scan, on the
    side the habitat edge moves to.

    ``eta`` records the margin used to build the band.  A species with no
    band has NaN ``c_lo``, ``c_hi`` and ``eta``.  ``t_window`` is the
    trailing fraction of the run over which minima (or, with no band,
    maxima) are taken.
    """

    c_lo: float
    c_hi: float
    eta: float
    epsilon: float
    t_window: float = 0.5

    def __post_init__(self):
        if self.c_hi <= self.c_lo or math.isnan(self.c_lo) != math.isnan(self.c_hi):
            raise ConfigError("frame band is empty: c_hi must exceed c_lo")
        if not self.epsilon > 0.0:
            raise ConfigError("persistence threshold epsilon must be positive")
        if not 0.0 < self.t_window <= 1.0:
            raise ConfigError("t_window must lie in (0, 1]")


def theorem_band(s: float, c: float, eta: float, epsilon: float,
                 t_window: float = 0.5) -> FrameBandSpec:
    """The persistence band [(s+eta)t, (c-eta)t] of a species with band speed
    ``c``; none (NaN speeds and ``eta``) when ``s >= c`` or ``c`` is NaN."""
    if not s < c:
        return FrameBandSpec(math.nan, math.nan, math.nan, epsilon, t_window)
    return FrameBandSpec(c_lo=s + eta, c_hi=c - eta, eta=eta,
                         epsilon=epsilon, t_window=t_window)


@dataclass(frozen=True)
class PersistenceReport:
    species: str
    eta: float
    epsilon: float
    band_min: float
    verdict: str          # persists / extinct / inconclusive


def level_set_position(x: np.ndarray, values: np.ndarray, theta: float,
                       side: str = "right") -> float:
    """Outermost crossing of ``theta``, linearly interpolated.

    Raises :class:`NoFrontError` when the field never crosses the level on
    the requested side (entirely below, or still above at the grid edge).
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    above = values >= theta
    if not above.any():
        raise NoFrontError(f"field entirely below theta={theta:g}")
    if side == "right":
        i = int(np.nonzero(above)[0][-1])
        if i == values.size - 1:
            raise NoFrontError("field still above theta at the right grid edge")
        frac = (values[i] - theta) / (values[i] - values[i + 1])
        return float(x[i] + frac * (x[i + 1] - x[i]))
    i = int(np.nonzero(above)[0][0])
    if i == 0:
        raise NoFrontError("field still above theta at the left grid edge")
    frac = (values[i] - theta) / (values[i] - values[i - 1])
    return float(x[i] - frac * (x[i] - x[i - 1]))


def _species_field(traj: Trajectory, species: str) -> np.ndarray:
    if species == "u":
        return traj.u
    if species == "v":
        return traj.v
    raise ValueError("species must be 'u' or 'v'")


def level_set_series(traj: Trajectory, theta: float, species: str = "u",
                     side: str = "right") -> LevelSetSeries:
    """Track the outermost crossing over all snapshots (NaN where absent)."""
    field = _species_field(traj, species)
    x = traj.grid.x
    positions = np.full(traj.times.size, np.nan)
    for i in range(traj.times.size):
        try:
            positions[i] = level_set_position(x, field[i], theta, side)
        except NoFrontError:
            pass
    return LevelSetSeries(theta=theta, side=side, times=traj.times.copy(),
                          positions=positions)


def estimate_speed(series: LevelSetSeries, window_fraction: float = 0.5) -> SpeedEstimate:
    """Least-squares slope of position vs. time over the trailing window."""
    if not 0.0 < window_fraction <= 1.0:
        raise ValueError("window_fraction must lie in (0, 1]")
    n = series.times.size
    start = n - max(2, int(np.ceil(window_fraction * n)))
    t = series.times[start:]
    p = series.positions[start:]
    keep = np.isfinite(p)
    t, p = t[keep], p[keep]
    if t.size < 10:
        raise InsufficientDataError(
            f"only {t.size} usable samples in the speed window (need >= 10)")
    tbar = t.mean()
    pbar = p.mean()
    sxx = float(np.sum((t - tbar) ** 2))
    slope = float(np.sum((t - tbar) * (p - pbar)) / sxx)
    resid = p - (pbar + slope * (t - tbar))
    sigma2 = float(np.sum(resid ** 2)) / (t.size - 2)
    return SpeedEstimate(speed=slope, stderr=float(np.sqrt(sigma2 / sxx)))


def _band_min_at(x: np.ndarray, values: np.ndarray, lo: float, hi: float) -> float:
    """Minimum of a sampled field over [lo, hi], endpoints interpolated."""
    if lo > x[-1]:
        raise ConfigError(
            f"band [{lo:g}, {hi:g}] starts beyond the grid end {x[-1]:g}")
    if hi < x[0]:
        raise ConfigError(
            f"band [{lo:g}, {hi:g}] ends before the grid start {x[0]:g}")
    hi = min(hi, float(x[-1]))
    lo = max(lo, float(x[0]))
    vals = [float(np.interp(lo, x, values)), float(np.interp(hi, x, values))]
    inside = values[(x >= lo) & (x <= hi)]
    if inside.size:
        vals.append(float(inside.min()))
    return min(vals)


def frame_band_min(traj: Trajectory, band: FrameBandSpec, species: str) -> PersistenceReport:
    """Minimum of a species over the moving band and the trailing window.

    With no band (NaN speeds) the species is tested for extinction:
    ``band_min`` is then its maximum over the grid and the trailing window,
    and the verdict is ``extinct`` or ``inconclusive``.
    """
    field = _species_field(traj, species)
    x = traj.grid.x
    t_cut = (1.0 - band.t_window) * traj.t_final
    kept = [(i, t) for i, t in enumerate(traj.times) if t >= t_cut and t > 0.0]
    if not kept:
        raise ConfigError("no snapshots fall inside the trailing window")
    has_band = not math.isnan(band.c_lo)
    if has_band:
        band_min = min(_band_min_at(x, field[i], band.c_lo * t, band.c_hi * t) for i, t in kept)
    else:
        band_min = float(field[[i for i, _ in kept]].max())
    if has_band and band_min >= band.epsilon:
        verdict = "persists"
    elif band_min <= min(EXTINCTION_FLOOR, band.epsilon):
        verdict = "extinct"
    else:
        verdict = "inconclusive"
    return PersistenceReport(species=species, eta=band.eta, epsilon=band.epsilon,
                             band_min=band_min, verdict=verdict)


def decay_sup(traj: Trajectory, c: float, species: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-snapshot supremum of a species over |x| >= c*t (grid-restricted).

    Instants where the region misses the grid entirely yield NaN.
    """
    if not c > 0.0:
        raise ValueError("frame speed c must be positive")
    field = _species_field(traj, species)
    x = traj.grid.x
    if c * traj.t_final > max(abs(x[0]), abs(x[-1])):
        raise ConfigError("c * t_final lies beyond the grid on both sides")
    sups = np.full(traj.times.size, np.nan)
    for i, t in enumerate(traj.times):
        mask = np.abs(x) >= c * t
        if mask.any():
            sups[i] = float(field[i][mask].max())
    return traj.times.copy(), sups
