"""Time integration of the coupled nonlocal predator-prey system.

The system on a truncated uniform grid, with zero extension outside:

    du/dt = d1*(J1*u - u) + r1*u*(alpha(x - s*t) - u - a*v)
    dv/dt = d2*(J2*v - v) + r2*v*(-1 + b*u - v)

Integration is classical RK4 with a fixed step; the nonlocal operator is
bounded, so the step limit comes from the reaction terms.  Only ``simulate``
knows time: stage times come from the step index, and the habitat is read
once per distinct stage time.  The step bound is checked once per run; one
min and one max per field and step drive the roundoff clamp, the aborts and
the record of the invariant box 0 <= u <= 1, 0 <= v <= b-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (BoundaryContaminationError, InstabilityError,
                     InvariantViolationError, NumericFailureError, ResolutionError)
from .habitat import HabitatProfile
from .kernels import Kernel, Stencil

# Undershoot threshold: roundoff-scale negatives (~1e-12) get clamped to
# zero; anything below this aborts as an instability.
_ABORT_FLOOR = -1e-10


@dataclass(frozen=True)
class Params:
    """Model constants: diffusion, growth, interaction, and shift speed."""

    d1: float
    d2: float
    r1: float
    r2: float
    a: float
    b: float
    s: float = 0.0

    def __post_init__(self):
        for name in ("d1", "d2", "r1", "r2", "a", "b"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"parameter {name} must be positive")
        if self.s < 0.0:
            raise ValueError("shift speed s must be nonnegative")

    @property
    def v_cap(self) -> float:
        """Upper edge of the predator box, b - 1 (may be <= 0 when b <= 1)."""
        return self.b - 1.0


@dataclass(frozen=True)
class Grid:
    """Uniform spatial grid on [x_min, x_max] with n points."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("grid needs at least 2 points")
        if not self.x_max > self.x_min:
            raise ValueError("grid interval is empty")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n)


def grid_from_spacing(x_min: float, x_max: float, dx: float) -> Grid:
    """Grid with spacing as close to ``dx`` as the interval allows."""
    n = int(round((x_max - x_min) / dx)) + 1
    return Grid(x_min=float(x_min), x_max=float(x_min) + (n - 1) * float(dx), n=n)


@dataclass
class State:
    """Grid-sampled initial densities; ``simulate`` starts them at t = 0."""

    u: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class BumpSpec:
    """A compactly supported cosine-squared bump: height * cos^2(pi*(x-c)/(2w))."""

    center: float
    half_width: float
    height: float


def sample_bump(spec: BumpSpec, x: np.ndarray) -> np.ndarray:
    z = (x - spec.center) / spec.half_width
    inside = np.abs(z) < 1.0
    vals = np.where(inside, spec.height * np.cos(0.5 * np.pi * np.clip(z, -1, 1)) ** 2, 0.0)
    return vals


def make_initial(u_spec, v_spec, grid: Grid, params: Params) -> State:
    """Sample initial data onto the grid and enforce the invariant box.

    Each spec is a :class:`BumpSpec` or a ready array.  A zero-height bump
    stands for an intentionally absent species; a positive bump must hit
    at least one grid point.
    """
    x = grid.x
    fields = []
    for spec, cap, name in ((u_spec, 1.0, "u"), (v_spec, params.v_cap, "v")):
        if isinstance(spec, BumpSpec):
            if spec.height < 0.0:
                raise InvariantViolationError(f"{name}0 height must be nonnegative")
            if spec.height > 0.0 and spec.height > cap + 1e-12:
                raise InvariantViolationError(
                    f"{name}0 height {spec.height:g} exceeds the invariant box cap {cap:g}")
            if spec.height > 0.0 and spec.half_width <= 0.0:
                raise InvariantViolationError(f"{name}0 half-width must be positive")
            vals = sample_bump(spec, x) if spec.height > 0.0 else np.zeros_like(x)
            if spec.height > 0.0 and not (vals > 0.0).any():
                raise ResolutionError(
                    f"{name}0 bump has empty support on the grid (half-width {spec.half_width:g}, dx {grid.dx:g})")
        else:
            vals = np.asarray(spec, dtype=float).copy()
            if vals.shape != x.shape:
                raise InvariantViolationError(f"{name}0 array does not match the grid")
            if not (vals.min() >= 0.0 and vals.max() <= cap + 1e-12):
                raise InvariantViolationError(f"{name}0 array leaves the invariant box")
        fields.append(vals)
    return State(u=fields[0], v=fields[1])


def nonlocal_apply(stencil: Stencil, field_values: np.ndarray) -> np.ndarray:
    """Vectorized (J*w - w) over the whole grid (zero extension)."""
    conv = np.convolve(field_values, stencil.weights, mode="same") * stencil.dx
    return conv - field_values


def rhs(u: np.ndarray, v: np.ndarray, alpha: np.ndarray, params: Params,
        st1: Stencil, st2: Stencil) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side of the coupled system for the habitat values ``alpha`` on the grid."""
    # An identically zero species stays zero; skip its convolution.
    if u.any():
        du = params.d1 * nonlocal_apply(st1, u) + params.r1 * u * (alpha - u - params.a * v)
    else:
        du = np.zeros_like(u)
    if v.any():
        dv = params.d2 * nonlocal_apply(st2, v) + params.r2 * v * (-1.0 + params.b * u - v)
    else:
        dv = np.zeros_like(v)
    return du, dv


def dt_max(params: Params, alpha_bar: float) -> float:
    """Stability step bound from the reaction Lipschitz constants.

    The predator pressure term is clamped at zero for b < 1 (where the
    predator box is empty) so the bound never loosens.
    """
    denom = (max(params.d1, params.d2)
             + params.r1 * (alpha_bar + 1.0 + params.a * max(params.b - 1.0, 0.0))
             + params.r2 * 2.0 * params.b)
    return 0.2 / denom


def _clamp_undershoot(arr: np.ndarray) -> float:
    """Zero out roundoff-level negatives; return the worst value seen."""
    worst = float(arr.min()) if arr.size else 0.0
    if worst < 0.0:
        np.clip(arr, 0.0, None, out=arr)
    return worst


def step(u: np.ndarray, v: np.ndarray, dt: float,
         alphas: tuple[np.ndarray, np.ndarray, np.ndarray], params: Params,
         st1: Stencil, st2: Stencil) -> tuple[np.ndarray, np.ndarray]:
    """One RK4 step; ``alphas`` is the habitat on the grid at its start, midpoint and end."""
    k1u, k1v = rhs(u, v, alphas[0], params, st1, st2)
    k2u, k2v = rhs(u + 0.5 * dt * k1u, v + 0.5 * dt * k1v, alphas[1], params, st1, st2)
    k3u, k3v = rhs(u + 0.5 * dt * k2u, v + 0.5 * dt * k2v, alphas[1], params, st1, st2)
    k4u, k4v = rhs(u + dt * k3u, v + dt * k3v, alphas[2], params, st1, st2)
    return (u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u),
            v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v))


def step_count(t_final: float, dt: float) -> int:
    """Number of equal steps, none longer than ``dt`` up to roundoff, that reach ``t_final``."""
    return max(1, int(math.ceil(t_final / dt - 1e-9)))


@dataclass
class Trajectory:
    """Snapshots of one simulation plus run diagnostics."""

    times: np.ndarray
    u: np.ndarray  # shape (n_snapshots, n_grid)
    v: np.ndarray
    grid: Grid
    params: Params
    diagnostics: dict = field(default_factory=dict)

    @property
    def t_final(self) -> float:
        return float(self.times[-1])


# Below this peak a species is in global decay: no front exists, so the
# edge-to-peak ratio stops meaning anything.
_MONITOR_PEAK_FLOOR = 1e-8


def _boundary_fraction(w: np.ndarray, sides: tuple[str, ...]) -> float:
    peak = float(w.max())
    if peak <= _MONITOR_PEAK_FLOOR:
        return 0.0
    edge = 0.0
    if "left" in sides:
        edge = max(edge, float(w[0]))
    if "right" in sides:
        edge = max(edge, float(w[-1]))
    return edge / peak


def simulate(params: Params, profile: HabitatProfile, kernel1: Kernel, kernel2: Kernel,
             grid: Grid, initial: State, dt: float, t_final: float,
             snapshot_stride: int = 1,
             boundary_monitor: str = "both") -> Trajectory:
    """Integrate to ``t_final`` and collect snapshots every ``snapshot_stride`` steps.

    The boundary monitor watches the outermost grid cells of the selected
    sides ("both", "left", "right", or "none"): density above 1e-6 of the
    species peak records a domain-too-small warning, above 1e-3 the run
    aborts because a front has reached the wall.
    """
    if boundary_monitor not in ("both", "left", "right", "none"):
        raise ValueError("boundary_monitor must be both/left/right/none")
    sides = {"both": ("left", "right"), "left": ("left",),
             "right": ("right",), "none": ()}[boundary_monitor]
    st1 = kernel1.discretize(grid.dx)
    st2 = kernel2.discretize(grid.dx)
    x = grid.x
    if not (t_final > 0.0 and dt > 0.0):
        raise ValueError("t_final and dt must be positive")
    n_steps = step_count(t_final, dt)
    dt_used = t_final / n_steps
    cap = dt_max(params, profile.alpha_bar)
    if dt_used > cap * (1.0 + 1e-12):
        raise InstabilityError(f"dt={dt_used:g} exceeds the stability bound dt_max={cap:g}")
    stride = max(1, int(snapshot_stride))

    times = np.zeros(1 + (n_steps + stride - 1) // stride)
    us, vs = np.empty((2, times.size, grid.n))
    us[0], vs[0] = initial.u, initial.v
    row = 0
    h_worst = {"u_min": float(initial.u.min()), "u_max": float(initial.u.max()),
               "v_min": float(initial.v.min()), "v_max": float(initial.v.max())}
    boundary_warning = False
    max_boundary_fraction = 0.0

    def check_boundary(u: np.ndarray, v: np.ndarray, t: float):
        nonlocal boundary_warning, max_boundary_fraction
        if not sides:
            return
        for w, name in ((u, "u"), (v, "v")):
            frac = _boundary_fraction(w, sides)
            max_boundary_fraction = max(max_boundary_fraction, frac)
            if frac > 1e-3:
                raise BoundaryContaminationError(
                    f"{name} reached {frac:.2e} of its peak at the domain edge "
                    f"(t={t:g}); enlarge the grid")
            if frac > 1e-6:
                boundary_warning = True

    check_boundary(initial.u, initial.v, 0.0)
    u, v, t = initial.u, initial.v, 0.0
    a_end = profile.alpha_shifted(x, t, params.s)
    for k in range(1, n_steps + 1):
        a_start, a_mid = a_end, profile.alpha_shifted(x, t + 0.5 * dt_used, params.s)
        t = t_final if k == n_steps else k * dt_used
        a_end = profile.alpha_shifted(x, t, params.s)
        u, v = step(u, v, dt_used, (a_start, a_mid, a_end), params, st1, st2)
        for w, name in ((u, "u"), (v, "v")):
            hi = float(w.max())
            lo = _clamp_undershoot(w)
            if not math.isfinite(lo + hi):
                raise NumericFailureError(f"non-finite values in {name} at t={t:g}")
            if lo < _ABORT_FLOOR:
                raise InstabilityError(
                    f"undershoot {lo:.3e} below {_ABORT_FLOOR:g} at t={t:g}; reduce dt")
            h_worst[name + "_min"] = min(h_worst[name + "_min"], lo)
            h_worst[name + "_max"] = max(h_worst[name + "_max"], hi)
        if k % stride == 0 or k == n_steps:
            check_boundary(u, v, t)
            row += 1
            times[row], us[row], vs[row] = t, u, v

    # For b <= 1 the predator box degenerates to {0}.
    v_cap_eff = max(params.v_cap, 0.0)
    h_violation = max(h_worst["u_max"] - 1.0, h_worst["v_max"] - v_cap_eff,
                      -h_worst["u_min"], -h_worst["v_min"])
    diagnostics = {
        "dt_used": dt_used,
        "n_steps": n_steps,
        "h_worst": h_worst,
        "h_invariant_ok": h_violation <= 1e-8,
        "boundary_warning": boundary_warning,
        "max_boundary_fraction": max_boundary_fraction,
        "boundary_monitor": boundary_monitor,
    }
    return Trajectory(times=times, u=us, v=vs,
                      grid=grid, params=params, diagnostics=diagnostics)
